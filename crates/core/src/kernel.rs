//! The kernel abstraction: computations over 2D images, organized in
//! variants, with monitoring hooks.
//!
//! In EASYPAP "functions performing computations on images are called
//! kernels" and every kernel comes in several *variants* (`seq`, `omp`,
//! `omp_tiled`, `mpi_omp`...) that students compare against each other
//! (§II-A). A [`Kernel`] owns whatever state the computation needs
//! (possibly "their own, low memory footprint data structures", §III-D)
//! and exposes its variants by name; [`KernelCtx`] carries the image
//! pair, the tile grid and the instrumentation probe.

use crate::error::Result;
use crate::grid::{Tile, TileGrid};
use crate::img::ImagePair;
use crate::params::RunConfig;
use crate::time::now_ns;
use crate::WorkerId;
use std::sync::Arc;

/// The class of data race flagged by the `ezp-check` shadow-write
/// detector (see `ezp_core::shadow`, feature `ezp-check`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two concurrently-runnable writers (chunks or tasks with no
    /// dependency path between them) wrote the same pixel.
    OverlappingWrite,
    /// A reader observed a pixel whose last writer it is not ordered
    /// after — a missing dependency edge, the lost-update pattern.
    LostUpdate,
}

/// Why a worker was idle — the cause tag carried by
/// [`RuntimeEvent::IdleNs`].
///
/// The paper's monitor shows *that* a worker idled (a dark stripe); the
/// cause tag says *why*, which is what turns the timeline into a
/// diagnosis: a dependency stall wants a wider DAG, a barrier wait wants
/// a better schedule, backpressure wants a wider farm stage. Each cause
/// maps to one `idle_ns{cause="..."}` counter and one `idle:...` span
/// family in `ezp-perf`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IdleCause {
    /// A task-graph worker found every deque empty: its next task's
    /// dependencies had not released yet.
    DepStall,
    /// Time inside a dispenser acquiring the next chunk — lock-free CAS
    /// retries and steal scans on range-scheduled loops.
    Steal,
    /// Out of work at the end-of-loop barrier, waiting for stragglers.
    Barrier,
    /// Blocked in the worker pool's spin-then-park region protocol
    /// (between parallel regions, not inside one).
    PoolPark,
    /// A streamed frame was data-ready but a bounded inter-stage buffer
    /// or stage-width limit held it back (`ezp-stream` backpressure).
    Backpressure,
}

impl IdleCause {
    /// Every cause, in stable index order.
    pub const ALL: [IdleCause; 5] = [
        IdleCause::DepStall,
        IdleCause::Steal,
        IdleCause::Barrier,
        IdleCause::PoolPark,
        IdleCause::Backpressure,
    ];

    /// Stable dense index (`0..IdleCause::ALL.len()`), for per-cause
    /// counter tables.
    pub fn index(self) -> usize {
        match self {
            IdleCause::DepStall => 0,
            IdleCause::Steal => 1,
            IdleCause::Barrier => 2,
            IdleCause::PoolPark => 3,
            IdleCause::Backpressure => 4,
        }
    }

    /// The `cause` label value used in counter names and reports.
    pub fn label(self) -> &'static str {
        match self {
            IdleCause::DepStall => "dep_stall",
            IdleCause::Steal => "steal",
            IdleCause::Barrier => "barrier",
            IdleCause::PoolPark => "pool_park",
            IdleCause::Backpressure => "backpressure",
        }
    }
}

/// The dependency-edge families a task graph distinguishes, recorded
/// into traces so a run replays as a timed DAG (see
/// `ezp_sched::skeleton` for the streaming semantics of each family).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// A true data dependency: the consumer reads what the producer
    /// wrote (wavefront neighbors, a frame flowing stage to stage).
    Data,
    /// A stage-width (replication-limit) edge: at most `w` frames inside
    /// a streaming stage concurrently.
    Width,
    /// A bounded-buffer capacity edge: backpressure as graph structure.
    Capacity,
}

impl EdgeKind {
    /// Stable wire encoding (trace format v2).
    pub fn as_u8(self) -> u8 {
        match self {
            EdgeKind::Data => 0,
            EdgeKind::Width => 1,
            EdgeKind::Capacity => 2,
        }
    }

    /// Inverse of [`EdgeKind::as_u8`].
    pub fn from_u8(v: u8) -> Option<EdgeKind> {
        match v {
            0 => Some(EdgeKind::Data),
            1 => Some(EdgeKind::Width),
            2 => Some(EdgeKind::Capacity),
            _ => None,
        }
    }

    /// Human-readable family name.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Data => "data",
            EdgeKind::Width => "width",
            EdgeKind::Capacity => "capacity",
        }
    }
}

/// A scheduler/runtime event reported through [`Probe::runtime_event`].
///
/// These are the counter-shaped observations the scheduling layer can
/// make but has nowhere to store: how work was carved up, how long a
/// worker waited for its next chunk, whether it had to steal. Probes
/// that care (the `ezp-perf` counter probe) accumulate them into named
/// per-worker counters; everyone else inherits the no-op default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeEvent {
    /// A dispenser handed `len` iterations to the worker in one chunk.
    ChunkDispensed {
        /// Number of loop iterations in the chunk.
        len: usize,
    },
    /// Work-stealing activity of the worker over one parallel loop,
    /// reported by that worker when its dispenser runs dry.
    Steals {
        /// Times the worker entered steal mode (local range empty).
        attempted: u64,
        /// Steals that actually obtained work from a victim.
        succeeded: u64,
    },
    /// Nanoseconds the worker spent waiting instead of computing, tagged
    /// with *why* it waited. Every wait site in the scheduling layer
    /// (dispenser acquisition, task-graph stalls, barriers, pool parks,
    /// stream backpressure) reports through this one variant, so the
    /// per-cause counters always sum to the total idle time.
    IdleNs {
        /// Wait duration in nanoseconds.
        ns: u64,
        /// Why the worker was idle.
        cause: IdleCause,
    },
    /// The worker waited for ready tasks in a task-graph run.
    TaskWait,
    /// A successful steal from another worker's ready deque in a
    /// task-graph run (the deque analogue of [`RuntimeEvent::Steals`],
    /// which covers range dispensers).
    DequeSteal,
    /// The `ezp-check` shadow-write detector flagged a data race at pixel
    /// `(x, y)`: `writer` (a chunk or task id) conflicted with
    /// `prev_writer`, which last touched the pixel in the same parallel
    /// region. Emitted only by the feature-gated checking layer — normal
    /// runs never produce it.
    ShadowRace {
        /// Pixel column of the conflicting access.
        x: usize,
        /// Pixel row of the conflicting access.
        y: usize,
        /// Chunk/task id that previously wrote the pixel.
        prev_writer: usize,
        /// Chunk/task id of the conflicting access.
        writer: usize,
        /// Overlapping write or lost update.
        kind: RaceKind,
    },
    /// A streamed frame became data-ready but could not start its next
    /// stage because a bounded inter-stage buffer (or a stage's width
    /// limit) was full — one backpressure stall in an `ezp-stream`
    /// pipeline.
    StreamStall,
    /// A streamed frame left the pipeline's final stage and was handed
    /// to the output sink.
    StreamFrameEmitted,
    /// High-water-mark gauge, sent once per streaming run: at most
    /// `frames` frames were simultaneously in flight inside the
    /// pipeline. Counter probes fold the gauges with `max`, not `add`.
    StreamInFlight {
        /// Peak of concurrent frames.
        frames: usize,
    },
    /// High-water-mark gauge, sent once per run: the ordered-emission
    /// reorder buffer held at most `depth` completed frames waiting for
    /// an earlier frame to finish.
    StreamReorderDepth {
        /// Peak of completed-but-unemitted frames.
        depth: usize,
    },
    /// High-water-mark gauge, sent once per run: some single stage had
    /// `depth` frames in service at once (bounded by the stage width).
    StreamStageOccupancy {
        /// Peak of frames concurrently inside one stage.
        depth: usize,
    },
}

/// A finished tile with the timestamps the scheduler took around it,
/// handed to [`Probe::tiles_done`] in batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileStamp {
    /// The tile computed.
    pub tile: Tile,
    /// Clock read before the tile (often the previous tile's `end_ns`).
    pub start_ns: u64,
    /// Clock read after the tile.
    pub end_ns: u64,
}

/// Instrumentation hooks — the Rust face of the paper's
/// `monitoring_start_tile` / `monitoring_end_tile` calls (§II-B).
///
/// Implementations (the live monitor, the tracer, composites) are free to
/// record timestamps, update per-CPU activity, or do nothing at all
/// ([`NullProbe`]). Methods take `&self` because they are invoked
/// concurrently from worker threads; implementations use interior
/// mutability with per-worker slots.
pub trait Probe: Send + Sync {
    /// A new iteration begins.
    fn iteration_start(&self, _iteration: u32) {}
    /// The current iteration is complete.
    fn iteration_end(&self, _iteration: u32) {}
    /// Worker `worker` starts computing a tile (timestamp taken here).
    fn start_tile(&self, _worker: WorkerId) {}
    /// Worker `worker` finished the tile with the given pixel rectangle.
    fn end_tile(&self, _x: usize, _y: usize, _w: usize, _h: usize, _worker: WorkerId) {}
    /// [`Probe::start_tile`] with the edge's timestamp already taken:
    /// a composite reads the clock once per bracket edge and hands the
    /// same `now_ns` to every probe it stacks. Probes that timestamp
    /// tiles put their logic here; the default keeps probes that only
    /// know `start_tile` working.
    fn start_tile_at(&self, worker: WorkerId, _now_ns: u64) {
        self.start_tile(worker);
    }
    /// [`Probe::end_tile`] with the edge's timestamp already taken (see
    /// [`Probe::start_tile_at`]).
    fn end_tile_at(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId, _now_ns: u64) {
        self.end_tile(x, y, w, h, worker);
    }
    /// Whether this probe takes tiles the scheduler timed, in
    /// [`Probe::tiles_done`] batches, instead of a bracket per tile.
    /// `parallel_for_tiles` reads its tile clocks only when this says so.
    fn wants_tile_stamps(&self) -> bool {
        false
    }
    /// Worker `worker` finished `stamps`, in order. The default replays
    /// each through [`Probe::start_tile_at`] / [`Probe::end_tile_at`], so
    /// a probe that only knows brackets still sees every tile.
    fn tiles_done(&self, worker: WorkerId, stamps: &[TileStamp]) {
        for s in stamps {
            self.start_tile_at(worker, s.start_ns);
            self.end_tile_at(s.tile.x, s.tile.y, s.tile.w, s.tile.h, worker, s.end_ns);
        }
    }
    /// A scheduler event occurred on `worker` (see [`RuntimeEvent`]).
    fn runtime_event(&self, _worker: WorkerId, _event: RuntimeEvent) {}
    /// Whether this probe consumes [`RuntimeEvent`]s. The scheduling
    /// layer checks this once per parallel loop and skips the clock
    /// reads that feed `IdleNs` when nobody is listening, keeping the
    /// uninstrumented hot path free of timer calls.
    fn wants_runtime_events(&self) -> bool {
        false
    }
    /// A dependency edge `from → to` (node ids of the executing task
    /// graph) of kind `kind` exists in the current region's DAG.
    /// Reported once per probed task-graph run, before execution starts,
    /// so tracers can record edge provenance alongside the task events.
    fn dep_edge(&self, _from: usize, _to: usize, _kind: EdgeKind) {}
    /// Whether this probe records [`Probe::dep_edge`] calls. Gated
    /// separately from `wants_runtime_events` because edge enumeration
    /// is O(edges) per region — only tracers should pay it.
    fn wants_dep_edges(&self) -> bool {
        false
    }
}

/// A probe that records nothing — used by the performance mode, where
/// "we need to completely eliminate the overhead of graphical updates".
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Broadcasts every event to several probes (e.g. live monitoring *and*
/// trace recording in the same run).
pub struct MultiProbe {
    probes: Vec<Arc<dyn Probe>>,
}

impl MultiProbe {
    /// Builds a composite over `probes`.
    pub fn new(probes: Vec<Arc<dyn Probe>>) -> Self {
        MultiProbe { probes }
    }
}

impl Probe for MultiProbe {
    fn iteration_start(&self, iteration: u32) {
        for p in &self.probes {
            p.iteration_start(iteration);
        }
    }
    fn iteration_end(&self, iteration: u32) {
        for p in &self.probes {
            p.iteration_end(iteration);
        }
    }
    fn start_tile(&self, worker: WorkerId) {
        self.start_tile_at(worker, now_ns());
    }
    fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
        self.end_tile_at(x, y, w, h, worker, now_ns());
    }
    fn start_tile_at(&self, worker: WorkerId, now_ns: u64) {
        for p in &self.probes {
            p.start_tile_at(worker, now_ns);
        }
    }
    fn end_tile_at(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId, now_ns: u64) {
        for p in &self.probes {
            p.end_tile_at(x, y, w, h, worker, now_ns);
        }
    }
    fn wants_tile_stamps(&self) -> bool {
        self.probes.iter().any(|p| p.wants_tile_stamps())
    }
    fn tiles_done(&self, worker: WorkerId, stamps: &[TileStamp]) {
        for p in &self.probes {
            p.tiles_done(worker, stamps);
        }
    }
    fn runtime_event(&self, worker: WorkerId, event: RuntimeEvent) {
        for p in &self.probes {
            p.runtime_event(worker, event);
        }
    }
    fn wants_runtime_events(&self) -> bool {
        self.probes.iter().any(|p| p.wants_runtime_events())
    }
    fn dep_edge(&self, from: usize, to: usize, kind: EdgeKind) {
        for p in &self.probes {
            p.dep_edge(from, to, kind);
        }
    }
    fn wants_dep_edges(&self) -> bool {
        self.probes.iter().any(|p| p.wants_dep_edges())
    }
}

/// Everything a kernel variant needs at run time.
pub struct KernelCtx {
    /// The parsed command line.
    pub cfg: RunConfig,
    /// Tile decomposition implied by `--size` / `--tile-size`.
    pub grid: TileGrid,
    /// Current/next image pair.
    pub images: ImagePair,
    /// Instrumentation sink (never null — use [`NullProbe`]).
    pub probe: Arc<dyn Probe>,
}

impl KernelCtx {
    /// Builds a context from a validated configuration with a no-op probe.
    pub fn new(cfg: RunConfig) -> Result<Self> {
        let grid = cfg.grid()?;
        let images = ImagePair::square(cfg.dim);
        Ok(KernelCtx {
            cfg,
            grid,
            images,
            probe: Arc::new(NullProbe),
        })
    }

    /// Replaces the probe (builder style).
    pub fn with_probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// Image dimension (`DIM`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Worker count for parallel variants.
    #[inline]
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }
}

/// A 2D computation kernel with named variants.
///
/// `compute` runs `nb_iter` iterations of the requested variant in a row
/// (EASYPAP hands the whole iteration budget to the variant, which owns
/// the outer loop — see Fig. 1). The return value is `Some(it)` when the
/// computation reached a steady state at iteration `it < nb_iter`
/// (EASYPAP's early-termination convention, used by `ccomp` and lazy
/// `life`), `None` when all iterations were executed.
pub trait Kernel: Send {
    /// Kernel name as used by `--kernel`.
    fn name(&self) -> &'static str;

    /// Variant names accepted by `--variant`, for error messages and
    /// discovery (`easypap --kernel k --variant list` in the original).
    fn variants(&self) -> Vec<&'static str>;

    /// One-time initialization: fill the initial image, allocate kernel
    /// state. Called once before the first `compute`.
    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()>;

    /// Runs `nb_iter` iterations of `variant`.
    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>>;

    /// For kernels computing in their own data structures: repaint
    /// `ctx.images` from that state ("such kernels simply have to update
    /// the current image when a graphical refresh is needed", §III-D).
    fn refresh_image(&mut self, _ctx: &mut KernelCtx) -> Result<()> {
        Ok(())
    }

    /// Extra named counters collected during `compute`, as
    /// `(name, per_worker_values)` rows — e.g. the per-rank MPI
    /// communication counts of a distributed variant. `--stats` merges
    /// them into the run's counter snapshot; most kernels have none.
    fn stats_counters(&self) -> Vec<(String, Vec<u64>)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct CountingProbe {
        starts: AtomicUsize,
        ends: AtomicUsize,
        iters: AtomicUsize,
    }

    impl Probe for CountingProbe {
        fn iteration_start(&self, _: u32) {
            self.iters.fetch_add(1, Ordering::Relaxed);
        }
        fn start_tile(&self, _: WorkerId) {
            self.starts.fetch_add(1, Ordering::Relaxed);
        }
        fn end_tile(&self, _: usize, _: usize, _: usize, _: usize, _: WorkerId) {
            self.ends.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn ctx_from_config() {
        let cfg = RunConfig::new("mandel").size(64).tile(16);
        let ctx = KernelCtx::new(cfg).unwrap();
        assert_eq!(ctx.dim(), 64);
        assert_eq!(ctx.grid.len(), 16);
        assert_eq!(ctx.images.dim(), 64);
    }

    #[test]
    fn null_probe_is_silent() {
        let p = NullProbe;
        p.iteration_start(0);
        p.start_tile(3);
        p.end_tile(0, 0, 4, 4, 3);
        p.iteration_end(0);
    }

    #[test]
    fn multi_probe_fans_out() {
        let a = Arc::new(CountingProbe::default());
        let b = Arc::new(CountingProbe::default());
        let multi = MultiProbe::new(vec![a.clone(), b.clone()]);
        multi.iteration_start(1);
        multi.start_tile(0);
        multi.end_tile(0, 0, 1, 1, 0);
        multi.iteration_end(1);
        for p in [&a, &b] {
            assert_eq!(p.iters.load(Ordering::Relaxed), 1);
            assert_eq!(p.starts.load(Ordering::Relaxed), 1);
            assert_eq!(p.ends.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn stacked_probes_share_one_timestamp_per_edge() {
        #[derive(Default)]
        struct StampProbe(std::sync::Mutex<Vec<u64>>);
        impl Probe for StampProbe {
            fn start_tile_at(&self, _: WorkerId, now_ns: u64) {
                self.0.lock().unwrap().push(now_ns);
            }
            fn end_tile_at(&self, _: usize, _: usize, _: usize, _: usize, _: WorkerId, t: u64) {
                self.0.lock().unwrap().push(t);
            }
        }
        let a = Arc::new(StampProbe::default());
        let b = Arc::new(StampProbe::default());
        // a probe that only knows the untimed hooks rides along through
        // the `*_at` defaults, also when composites nest
        let plain = Arc::new(CountingProbe::default());
        let inner = Arc::new(MultiProbe::new(vec![b.clone(), plain.clone()]));
        let multi = MultiProbe::new(vec![a.clone(), inner]);
        multi.start_tile(0);
        multi.end_tile(0, 0, 1, 1, 0);
        let stamps = a.0.lock().unwrap().clone();
        assert_eq!(stamps.len(), 2);
        assert!(stamps[0] <= stamps[1]);
        assert_eq!(*b.0.lock().unwrap(), stamps);
        assert_eq!(plain.starts.load(Ordering::Relaxed), 1);
        assert_eq!(plain.ends.load(Ordering::Relaxed), 1);

        // one probe that takes stamps turns the whole stack to stamps,
        // and every probe that only knows brackets gets each one replayed
        #[derive(Default)]
        struct BatchProbe(std::sync::Mutex<Vec<TileStamp>>);
        impl Probe for BatchProbe {
            fn wants_tile_stamps(&self) -> bool {
                true
            }
            fn tiles_done(&self, _: WorkerId, stamps: &[TileStamp]) {
                self.0.lock().unwrap().extend_from_slice(stamps);
            }
        }
        assert!(!multi.wants_tile_stamps());
        let batch = Arc::new(BatchProbe::default());
        let stamped = MultiProbe::new(vec![batch.clone(), Arc::new(multi)]);
        assert!(stamped.wants_tile_stamps());
        let tiles: Vec<TileStamp> = TileGrid::square(8, 4)
            .unwrap()
            .iter()
            .zip((0u64..).step_by(10))
            .map(|(tile, t)| TileStamp { tile, start_ns: t, end_ns: t + 10 })
            .collect();
        stamped.tiles_done(0, &tiles);
        assert_eq!(*batch.0.lock().unwrap(), tiles);
        let edges: Vec<u64> = tiles.iter().flat_map(|s| [s.start_ns, s.end_ns]).collect();
        assert_eq!(a.0.lock().unwrap()[2..], edges);
        assert_eq!(b.0.lock().unwrap()[2..], edges);
        assert_eq!(plain.starts.load(Ordering::Relaxed), 1 + tiles.len());
        assert_eq!(plain.ends.load(Ordering::Relaxed), 1 + tiles.len());
    }

    #[test]
    fn runtime_events_fan_out_and_gate() {
        struct EventProbe(AtomicUsize);
        impl Probe for EventProbe {
            fn runtime_event(&self, _: WorkerId, _: RuntimeEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn wants_runtime_events(&self) -> bool {
                true
            }
        }
        // a composite of silent probes stays silent...
        let silent = MultiProbe::new(vec![Arc::new(CountingProbe::default())]);
        assert!(!silent.wants_runtime_events());
        // ...one listener flips the gate for the whole stack
        let loud = Arc::new(EventProbe(AtomicUsize::new(0)));
        let multi = MultiProbe::new(vec![Arc::new(CountingProbe::default()), loud.clone()]);
        assert!(multi.wants_runtime_events());
        multi.runtime_event(0, RuntimeEvent::TaskWait);
        multi.runtime_event(1, RuntimeEvent::ChunkDispensed { len: 4 });
        assert_eq!(loud.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn dep_edges_fan_out_and_gate() {
        struct EdgeProbe(AtomicUsize);
        impl Probe for EdgeProbe {
            fn dep_edge(&self, _: usize, _: usize, _: EdgeKind) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn wants_dep_edges(&self) -> bool {
                true
            }
        }
        let silent = MultiProbe::new(vec![Arc::new(CountingProbe::default())]);
        assert!(!silent.wants_dep_edges());
        let tracer = Arc::new(EdgeProbe(AtomicUsize::new(0)));
        let multi = MultiProbe::new(vec![Arc::new(CountingProbe::default()), tracer.clone()]);
        assert!(multi.wants_dep_edges());
        multi.dep_edge(0, 1, EdgeKind::Data);
        multi.dep_edge(3, 5, EdgeKind::Capacity);
        assert_eq!(tracer.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn idle_cause_and_edge_kind_encodings_are_stable() {
        for (i, c) in IdleCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let labels: Vec<&str> = IdleCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["dep_stall", "steal", "barrier", "pool_park", "backpressure"]);
        for k in [EdgeKind::Data, EdgeKind::Width, EdgeKind::Capacity] {
            assert_eq!(EdgeKind::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(EdgeKind::from_u8(3), None);
    }

    #[test]
    fn with_probe_replaces_sink() {
        let cfg = RunConfig::new("mandel").size(32).tile(8);
        let probe = Arc::new(CountingProbe::default());
        let ctx = KernelCtx::new(cfg).unwrap().with_probe(probe.clone());
        ctx.probe.start_tile(0);
        assert_eq!(probe.starts.load(Ordering::Relaxed), 1);
    }
}
