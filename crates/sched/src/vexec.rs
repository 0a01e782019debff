//! Virtual-scheduler executor: deterministic schedule exploration
//! (`ezp-check`).
//!
//! The real [`WorkerPool`](crate::WorkerPool) leaves interleavings to the
//! OS; a test that wants to *search* interleavings needs to own them.
//! This module runs the scheduling layer on `N` *logical* workers
//! multiplexed onto the calling thread. Which worker acts next is decided
//! by an explicit [`Interleave`] strategy from `ezp-testkit`, so a run is
//! a pure function of `(strategy kind, seed)`: a failing interleaving
//! found by a random walk replays byte-for-byte from its seed.
//!
//! No executor here keeps protocol state of its own. Each one calls the
//! production code a real worker thread calls between its waits, one
//! call per scheduling point:
//!
//! | executor | drives |
//! |---|---|
//! | [`virtual_drain`] / [`virtual_for_range`] / [`virtual_for_tiles`] | [`Dispenser::next`] of every source |
//! | [`virtual_deque_taskgraph`] | `taskgraph::GraphRun::step` — the body of [`TaskGraph::run_probed`] |
//! | [`virtual_pipeline`] | the same step over [`PipeShape::graph`], plus [`EmitTracker::complete`] |
//! | [`virtual_region_protocol`] | `pool::PoolState::{publish, close, worker_step}` — the pool's epoch protocol |
//!
//! ([`virtual_taskgraph`] is the one abstract executor: it explores the
//! *valid topological orders* of a graph for the shadow-write detector,
//! and models no runtime structure at all.)
//!
//! The granularity of a virtual step is therefore one dispenser call
//! (one chunk), one task, or one side of a region hand-shake. That is
//! the granularity at which the scheduling layer's invariants live —
//! "every index handed out exactly once", "a task never starts before
//! its predecessors", "a region reports its own panics" — and the
//! granularity the shadow-write detector (`ezp_core::shadow`) needs: it
//! judges conflicts by *writer identity and happens-before*, not by
//! wall-clock order, so executing each chunk atomically loses no races.
//! What it cannot see is an interleaving *inside* a step, i.e. a
//! memory-ordering bug; those stay with the real-thread adversarial
//! tests and `ezp-lint`'s atomics-pairing pass (docs/testing.md).
//!
//! Everything here is compiled only under the `ezp-check` feature and is
//! never linked into production runs.

use crate::dispenser::Dispenser;
use crate::pool::{RegionDriver, WorkerStep};
use crate::skeleton::{EmitTracker, PipeShape};
use crate::taskgraph::{GraphRun, GraphStep, TaskGraph};
use ezp_core::error::{Error, Result};
use ezp_core::kernel::{Probe, RuntimeEvent};
use ezp_core::{EmitMode, Schedule, Tile, TileGrid, WorkerId};
use ezp_testkit::schedule::Interleave;
use std::sync::atomic::{AtomicU64, Ordering};

/// One step of a virtual schedule: `rank` called the dispenser and got
/// `chunk` (`None` = exhausted; the rank leaves the schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VStep {
    /// The logical worker that acted.
    pub rank: WorkerId,
    /// The chunk `(start, len)` granted, or `None` on exhaustion.
    pub chunk: Option<(usize, usize)>,
}

/// Drains `disp` from `workers` logical workers under `strategy`.
///
/// `f(index, chunk_id, rank)` runs for every iteration index, where
/// `chunk_id` numbers dispenser grants in schedule order — the writer
/// identity the shadow detector keys on. Returns the full step trace,
/// which is byte-for-byte reproducible for a given strategy state.
pub fn virtual_drain(
    disp: &Dispenser,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(usize, usize, WorkerId),
) -> Vec<VStep> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    let mut runnable = vec![true; workers];
    let mut trace = Vec::new();
    let mut chunk_id = 0usize;
    while let Some(rank) = strategy.next_worker(&runnable) {
        match disp.next(rank) {
            Some((start, len)) => {
                trace.push(VStep {
                    rank,
                    chunk: Some((start, len)),
                });
                for i in start..start + len {
                    f(i, chunk_id, rank);
                }
                chunk_id += 1;
            }
            None => {
                runnable[rank] = false;
                trace.push(VStep { rank, chunk: None });
            }
        }
    }
    trace
}

/// [`virtual_drain`] over a fresh dispenser for `schedule` — the virtual
/// twin of [`parallel_for_range`](crate::parallel_for_range).
pub fn virtual_for_range(
    n: usize,
    schedule: Schedule,
    workers: usize,
    strategy: &mut dyn Interleave,
    f: impl FnMut(usize, usize, WorkerId),
) -> Vec<VStep> {
    virtual_drain(&Dispenser::new(schedule, n, workers), workers, strategy, f)
}

/// The virtual twin of [`parallel_for_tiles`](crate::parallel_for_tiles):
/// `f(tile, chunk_id, rank)` for every tile of `grid`, chunked and
/// interleaved like the real scheduler would under `schedule`.
pub fn virtual_for_tiles(
    grid: &TileGrid,
    schedule: Schedule,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(Tile, usize, WorkerId),
) -> Vec<VStep> {
    let disp = Dispenser::new(schedule, grid.len(), workers);
    virtual_drain(&disp, workers, strategy, |i, chunk, rank| {
        f(grid.tile_at(i), chunk, rank)
    })
}

/// Executes `graph` under an explicit interleaving: each step, `strategy`
/// picks the acting worker *and* which ready task it grabs
/// ([`Interleave::pick`]), so random-walk strategies explore the space of
/// valid topological orders. Returns the `(task, rank)` execution order,
/// or [`Error::Config`] on a cycle (same contract as
/// [`TaskGraph::run`]).
pub fn virtual_taskgraph(
    graph: &TaskGraph,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(usize, WorkerId),
) -> Result<Vec<(usize, WorkerId)>> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    let n = graph.len();
    let mut indegree: Vec<usize> = (0..n).map(|t| graph.indegree(t)).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let runnable = vec![true; workers];
    while !ready.is_empty() {
        let rank = strategy
            .next_worker(&runnable)
            .expect("workers > 0 and all runnable");
        let task = ready.remove(strategy.pick(ready.len()));
        f(task, rank);
        order.push((task, rank));
        for &d in graph.dependents(task) {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(d);
            }
        }
    }
    if order.len() != n {
        return Err(Error::Config(format!(
            "task graph has a cycle: only {}/{n} tasks runnable",
            order.len()
        )));
    }
    Ok(order)
}

/// Counts the steals the task-graph step reports to its probe.
#[derive(Default)]
struct StealCount(AtomicU64);

impl Probe for StealCount {
    fn runtime_event(&self, _rank: WorkerId, event: RuntimeEvent) {
        if let RuntimeEvent::DequeSteal = event {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn wants_runtime_events(&self) -> bool {
        true
    }
}

/// The *deque-based* task-graph executor ([`TaskGraph::run_probed`])
/// under an explicit interleaving: each scheduling point, `strategy`
/// picks a logical worker and that worker takes one production step —
/// pop its own deque or steal, run the task, release dependents, or
/// run the termination / cycle check when nothing is in sight.
///
/// A worker whose step came back idle leaves the runnable set until the
/// executor's own wake condition holds, as a parked thread would — so
/// unfair strategies (steal-heavy, starve-one) cannot spin on it, and a
/// wakeup the completers fail to make true shows up as tasks left over.
///
/// Returns the `(task, rank)` execution order plus how many grabs were
/// steals, or [`Error::Config`] on a cycle.
pub fn virtual_deque_taskgraph(
    graph: &TaskGraph,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(usize, WorkerId),
) -> Result<(Vec<(usize, WorkerId)>, u64)> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    let steals = StealCount::default();
    let run = GraphRun::new(graph, workers, &steals);
    let mut order = Vec::with_capacity(graph.len());
    let mut busy = vec![false; workers];
    // `Some(seen)`: parked after an idle step with that snapshot.
    let mut parked: Vec<Option<u64>> = vec![None; workers];
    let mut runnable = vec![true; workers];
    loop {
        for w in 0..workers {
            if parked[w].is_some_and(|seen| run.should_wake(seen)) {
                parked[w] = None;
                runnable[w] = true;
            }
        }
        let Some(rank) = strategy.next_worker(&runnable) else {
            break;
        };
        let step = run.step(rank, &mut busy[rank], |task, rank| {
            f(task, rank);
            order.push((task, rank));
        });
        match step {
            GraphStep::Ran => {}
            GraphStep::Idle(seen) => {
                parked[rank] = Some(seen);
                runnable[rank] = false;
            }
            GraphStep::Done | GraphStep::Cyclic => runnable[rank] = false,
        }
        run.assert_consistent(busy.iter().filter(|&&b| b).count());
    }
    assert!(
        parked.iter().all(Option::is_none),
        "lost wakeup: a worker is parked with nothing left to wake it ({} of {} tasks ran)",
        order.len(),
        graph.len()
    );
    run.outcome()?;
    Ok((order, steals.0.into_inner()))
}

/// The outcome of a virtual streaming run ([`virtual_pipeline`]): the
/// substrate's execution order, the frame ids in emission order, and
/// the reorder-buffer peak the emission mode implied. Two runs from
/// the same `(strategy kind, seed)` compare equal — the replay contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VStream {
    /// `(task, rank)` execution order of the graph nodes.
    pub order: Vec<(usize, WorkerId)>,
    /// Frame ids in emission order: `0..frames` in ordered mode,
    /// completion order otherwise.
    pub emitted: Vec<usize>,
    /// Successful deque steals.
    pub steals: u64,
    /// Peak count of completed-but-unemitted frames (always 0 in
    /// unordered mode, where completion emits immediately).
    pub max_reorder_depth: usize,
}

/// The streaming pipeline engine (`ezp_stream::run_pipeline`) under an
/// explicit interleaving: compiles `shape` over `frames` frames to its
/// task graph ([`PipeShape::graph`]), executes it with
/// [`virtual_deque_taskgraph`], and feeds final-stage completions to
/// the engine's own [`EmitTracker`].
///
/// The invariants the `ezp_check` sweeps pin on the result: ordered
/// emission is exactly `0..frames` (frame `n + 1` never leaves before
/// `n`), unordered emission is a permutation of it, and the run replays
/// byte-for-byte from its `(strategy, seed)`.
pub fn virtual_pipeline(
    shape: &PipeShape,
    frames: usize,
    workers: usize,
    ordered: bool,
    strategy: &mut dyn Interleave,
) -> Result<VStream> {
    let graph = shape.graph(frames);
    let last = shape.stages() - 1;
    let mode = if ordered { EmitMode::Ordered } else { EmitMode::Unordered };
    let mut tracker = EmitTracker::new(frames);
    let (order, steals) = virtual_deque_taskgraph(&graph, workers, strategy, |t, _| {
        if shape.stage_of(t) == last {
            tracker.complete(shape.frame_of(t), mode);
        }
    })?;
    Ok(VStream {
        order,
        emitted: tracker.emitted().to_vec(),
        steals,
        max_reorder_depth: tracker.max_reorder_depth(),
    })
}

/// The pool's epoch protocol (`pool.rs`) under an explicit
/// interleaving: one master and `workers` logical workers, each taking
/// the production step a real thread takes between its waits — the
/// master `publish`, then (once the region is closed) `close`; a worker
/// `worker_step`. Waiting is leaving the runnable set until the
/// thread's own wait condition holds, so unfair strategies
/// (steal-heavy, starve-one) cannot spin on an idle actor, and a
/// condition nobody makes true surfaces as non-termination with work
/// outstanding.
///
/// `panic_plan(seq, rank)` says whether `rank`'s body panics in region
/// `seq` (1-based). For every region the executor asserts what the
/// threaded implementation's soundness comment claims:
///
/// * the master observes completion only after *every* worker ran that
///   exact region (no early unblock, no lost worker);
/// * the panic count the master reads equals the plan's count for that
///   region — never a leftover from region N-1 (the S1 regression);
/// * after the final region the master's shutdown reaches all workers,
///   including ones still parked (the shutdown-during-park schedule).
///
/// Returns the per-region panic counts the master observed. Build
/// `strategy` for `workers + 1` actors (the master is the last).
pub fn virtual_region_protocol(
    regions: u64,
    workers: usize,
    panic_plan: impl Fn(u64, WorkerId) -> bool + Sync,
    strategy: &mut dyn Interleave,
) -> Vec<usize> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    // What the body sees: the region the master last published, and how
    // often each rank ran since then.
    let region = AtomicU64::new(0);
    let ran: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let body = |rank: WorkerId| {
        ran[rank].fetch_add(1, Ordering::SeqCst);
        if panic_plan(region.load(Ordering::SeqCst), rank) {
            // a panic that skips the hook: planned, so not worth a
            // backtrace per region on stderr
            std::panic::resume_unwind(Box::new("planned panic"));
        }
    };
    let mut pool = RegionDriver::new(workers, &body);
    let mut last_seq = vec![0u64; workers];
    let mut exited = vec![false; workers];
    // Master: between publish and close / after shutting the pool down.
    let (mut waiting, mut master_exited) = (false, false);
    let mut observed = Vec::new();

    // Slot `workers` is the master; workers are 0..workers. An actor is
    // runnable when the wait a real thread sits in would return.
    let mut runnable = vec![true; workers + 1];
    loop {
        for w in 0..workers {
            runnable[w] = !exited[w] && pool.state.has_work(last_seq[w]);
        }
        runnable[workers] = !master_exited && (!waiting || pool.is_closed());
        let Some(actor) = strategy.next_worker(&runnable) else {
            break;
        };
        if actor < workers {
            match pool.state.worker_step(actor, &mut last_seq[actor]) {
                WorkerStep::Ran => assert_eq!(
                    last_seq[actor],
                    region.load(Ordering::SeqCst),
                    "worker {actor} ran a region other than the published one"
                ),
                WorkerStep::Idle => unreachable!("worker {actor} woke without work"),
                WorkerStep::Shutdown => exited[actor] = true,
            }
        } else if waiting {
            let seq = region.load(Ordering::SeqCst);
            for (w, r) in ran.iter().enumerate() {
                let r = r.swap(0, Ordering::SeqCst);
                assert_eq!(r, 1, "master unblocked while worker {w} ran region {seq} {r} times");
            }
            let panics = pool.close();
            let expected = (0..workers).filter(|&w| panic_plan(seq, w)).count();
            assert_eq!(panics, expected, "region {seq}: master read a stale panic count");
            observed.push(panics);
            waiting = false;
        } else if (observed.len() as u64) < regions {
            region.store(observed.len() as u64 + 1, Ordering::SeqCst);
            assert_eq!(pool.publish(), region.load(Ordering::SeqCst));
            waiting = true;
        } else {
            // all regions observed: shut down and exit (Drop joins,
            // which the end-state assertion below stands in for)
            pool.state.shut_down();
            master_exited = true;
        }
    }
    assert!(
        exited.iter().all(|&e| e),
        "shutdown lost: a worker is still parked after master exit"
    );
    assert_eq!(observed.len() as u64, regions, "master lost a region");
    observed
}

/// Transitive happens-before over a [`TaskGraph`], as per-task descendant
/// bitsets — the oracle [`ezp_core::shadow::ShadowSession`] needs to
/// judge cross-task conflicts. Intended for test-sized graphs (memory is
/// `O(n²/64)`).
pub struct Reachability {
    words: usize,
    bits: Vec<u64>,
}

impl Reachability {
    /// Computes reachability for `graph`. Panics on a cyclic graph (run
    /// [`TaskGraph::run_seq`] first to validate untrusted graphs).
    pub fn of(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        // Process in reverse topological order so descendant sets of
        // dependents are complete before being merged into their
        // predecessors.
        let mut topo = Vec::with_capacity(n);
        graph
            .run_seq(|t, _| topo.push(t))
            .expect("reachability requires an acyclic graph");
        for &t in topo.iter().rev() {
            for &d in graph.dependents(t) {
                bits[t * words + d / 64] |= 1 << (d % 64);
                let (head, tail) = bits.split_at_mut(t.max(d) * words);
                let (src, dst) = if d > t {
                    (&tail[..words], &mut head[t * words..t * words + words])
                } else {
                    (&head[d * words..d * words + words], &mut tail[..words])
                };
                for (dw, sw) in dst.iter_mut().zip(src.iter()) {
                    *dw |= sw;
                }
            }
        }
        Reachability { words, bits }
    }

    /// True when a dependency path leads from `a` to `b` (`a` happens
    /// before `b`).
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::schedule::{RandomWalk, RoundRobin, StarveOne, StealHeavy, StrategyKind};

    fn assert_exact_cover(hits: &[u32], what: &str) {
        for (i, &h) in hits.iter().enumerate() {
            assert_eq!(h, 1, "{what}: index {i} handed out {h} times");
        }
    }

    /// The dispenser-audit proof test: under every strategy family and
    /// many seeds, every policy hands out every index exactly once —
    /// including the stealing dispenser under adversarial steal-heavy and
    /// starve-one schedules (the exact interleaving class a double-grant
    /// under concurrent steal + local pop would corrupt).
    #[test]
    fn every_policy_exact_cover_under_adversarial_schedules() {
        let policies = [
            Schedule::Static,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(2),
            Schedule::Guided(1),
            Schedule::NonmonotonicDynamic(1),
            Schedule::NonmonotonicDynamic(3),
        ];
        for policy in policies {
            for kind in StrategyKind::all() {
                for seed in 0..16u64 {
                    for workers in [1usize, 2, 3, 5, 8] {
                        let n = 157;
                        let mut hits = vec![0u32; n];
                        let mut strategy = kind.build(seed, workers);
                        virtual_for_range(n, policy, workers, &mut *strategy, |i, _, _| {
                            hits[i] += 1;
                        });
                        assert_exact_cover(
                            &hits,
                            &format!("{policy:?} / {kind:?} / seed {seed} / {workers} workers"),
                        );
                    }
                }
            }
        }
    }

    /// Steal-heavy really does force the favourite through the steal
    /// path: it must record successful steals while other ranks still
    /// hold untouched static blocks.
    #[test]
    fn steal_heavy_schedule_forces_steals() {
        let n = 64;
        let d = Dispenser::new(Schedule::NonmonotonicDynamic(1), n, 4);
        let mut strategy = StealHeavy::new(2);
        let mut hits = vec![0u32; n];
        virtual_drain(&d, 4, &mut strategy, |i, _, _| hits[i] += 1);
        let (attempted, succeeded) = d.steals(2);
        assert!(succeeded > 0, "favourite never stole ({attempted} attempts)");
        // and nothing was lost or duplicated while it raided the others
        assert_exact_cover(&hits, "steal-heavy over stealing dispenser");
    }

    /// A starved worker that wakes up last must still find its static
    /// block (or what the thieves left of it) accounted for exactly once.
    #[test]
    fn starved_worker_sees_consistent_remains() {
        for seed in 0..32u64 {
            let n = 97;
            let mut hits = vec![0u32; n];
            let mut strategy = StarveOne::seeded(seed, 4);
            virtual_for_range(
                n,
                Schedule::NonmonotonicDynamic(2),
                4,
                &mut strategy,
                |i, _, _| hits[i] += 1,
            );
            assert_exact_cover(&hits, &format!("starve-one seed {seed}"));
        }
    }

    /// Same seed ⇒ same trace, different seed ⇒ (almost surely) a
    /// different trace: the replay contract of the executor as a whole.
    #[test]
    fn traces_replay_from_their_seed() {
        let trace = |seed: u64| {
            let mut s = RandomWalk::seeded(seed);
            virtual_for_range(200, Schedule::Dynamic(3), 4, &mut s, |_, _, _| {})
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn virtual_tiles_visit_every_tile_once() {
        let grid = TileGrid::new(50, 30, 16, 8).unwrap();
        let mut seen = vec![0u32; grid.len()];
        let mut s = RandomWalk::seeded(42);
        virtual_for_tiles(&grid, Schedule::Guided(1), 3, &mut s, |t, _, _| {
            seen[grid.linear_index(t.tx, t.ty)] += 1;
        });
        assert_exact_cover(&seen, "virtual_for_tiles");
    }

    #[test]
    fn virtual_taskgraph_is_topological_for_all_seeds() {
        let grid = TileGrid::square(40, 10).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let reach = Reachability::of(&g);
        for seed in 0..32u64 {
            let mut s = RandomWalk::seeded(seed);
            let order = virtual_taskgraph(&g, 4, &mut s, |_, _| {}).unwrap();
            assert_eq!(order.len(), g.len());
            let mut pos = vec![usize::MAX; g.len()];
            for (i, &(t, _)) in order.iter().enumerate() {
                pos[t] = i;
            }
            for a in 0..g.len() {
                for b in 0..g.len() {
                    if reach.precedes(a, b) {
                        assert!(
                            pos[a] < pos[b],
                            "seed {seed}: {a} must precede {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn virtual_taskgraph_detects_cycles() {
        let mut g = TaskGraph::new(3);
        g.add_dep(0, 1);
        g.add_dep(1, 2);
        g.add_dep(2, 0);
        let mut s = RoundRobin::new();
        assert!(virtual_taskgraph(&g, 2, &mut s, |_, _| {}).is_err());
    }

    #[test]
    fn deque_taskgraph_is_topological_and_replayable() {
        let grid = TileGrid::square(32, 8).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let reach = Reachability::of(&g);
        for seed in 0..8u64 {
            let mut s = RandomWalk::seeded(seed);
            let (order, _) = virtual_deque_taskgraph(&g, 4, &mut s, |_, _| {}).unwrap();
            assert_eq!(order.len(), g.len());
            let mut pos = vec![usize::MAX; g.len()];
            for (i, &(t, _)) in order.iter().enumerate() {
                pos[t] = i;
            }
            for a in 0..g.len() {
                for b in 0..g.len() {
                    if reach.precedes(a, b) {
                        assert!(pos[a] < pos[b], "seed {seed}: {a} must precede {b}");
                    }
                }
            }
            // Replay contract: same seed, same trace.
            let mut s2 = RandomWalk::seeded(seed);
            let (order2, _) = virtual_deque_taskgraph(&g, 4, &mut s2, |_, _| {}).unwrap();
            assert_eq!(order, order2, "seed {seed} did not replay");
        }
    }

    #[test]
    fn deque_taskgraph_steal_heavy_steals_without_losing_tasks() {
        let grid = TileGrid::square(24, 4).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let mut s = StealHeavy::new(1);
        let mut hits = vec![0u32; g.len()];
        let (order, steals) = virtual_deque_taskgraph(&g, 4, &mut s, |t, _| hits[t] += 1).unwrap();
        assert_eq!(order.len(), g.len());
        assert!(steals > 0, "steal-heavy schedule never exercised the steal path");
        assert_exact_cover(&hits, "deque taskgraph under steal-heavy");
    }

    #[test]
    fn deque_taskgraph_detects_cycles() {
        let mut g = TaskGraph::new(3);
        g.add_dep(0, 1);
        g.add_dep(1, 2);
        g.add_dep(2, 0);
        let mut s = RoundRobin::new();
        assert!(virtual_deque_taskgraph(&g, 2, &mut s, |_, _| {}).is_err());
    }

    #[test]
    fn region_protocol_counts_panics_per_region_for_all_strategies() {
        // Region 1 has two planned panics, region 2 none, region 3 one:
        // a stale read (the S1 bug) shows up as region 2 observing 2.
        let plan = |seq: u64, rank: WorkerId| match seq {
            1 => rank == 0 || rank == 2,
            3 => rank == 1,
            _ => false,
        };
        for kind in StrategyKind::all() {
            for seed in 0..8u64 {
                // Model actors = workers + master, so build for workers+1.
                let mut s = kind.build(seed, 4);
                let observed = virtual_region_protocol(3, 3, plan, &mut *s);
                assert_eq!(
                    observed,
                    vec![2, 0, 1],
                    "{kind:?} seed {seed}: stale or lost panic count"
                );
            }
        }
    }

    #[test]
    fn region_protocol_single_worker_and_no_regions() {
        let mut s = RoundRobin::new();
        assert_eq!(virtual_region_protocol(0, 1, |_, _| false, &mut s), vec![]);
        let mut s = RoundRobin::new();
        assert_eq!(
            virtual_region_protocol(5, 1, |seq, _| seq % 2 == 1, &mut s),
            vec![1, 0, 1, 0, 1]
        );
    }

    #[test]
    fn virtual_pipeline_ordered_emits_in_frame_order() {
        use crate::skeleton::PipeStage;
        let shape = PipeShape::new(vec![
            PipeStage::farm(3),
            PipeStage::serial(),
        ]);
        for seed in 0..8u64 {
            let mut s = RandomWalk::seeded(seed);
            let v = virtual_pipeline(&shape, 20, 3, true, &mut s).unwrap();
            assert_eq!(v.emitted, (0..20).collect::<Vec<_>>(), "seed {seed}");
            assert_eq!(v.order.len(), 20 * 2);
        }
    }

    #[test]
    fn virtual_pipeline_unordered_is_a_permutation() {
        use crate::skeleton::PipeStage;
        let shape = PipeShape::new(vec![PipeStage::farm(4), PipeStage::farm(2)]);
        let mut s = RandomWalk::seeded(5);
        let v = virtual_pipeline(&shape, 30, 4, false, &mut s).unwrap();
        let mut sorted = v.emitted.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        assert_eq!(v.max_reorder_depth, 0, "unordered mode has no reorder buffer");
    }

    #[test]
    fn reachability_matches_hand_computed_diamond() {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1);
        g.add_dep(0, 2);
        g.add_dep(1, 3);
        g.add_dep(2, 3);
        let r = Reachability::of(&g);
        assert!(r.precedes(0, 1) && r.precedes(0, 2) && r.precedes(0, 3));
        assert!(r.precedes(1, 3) && r.precedes(2, 3));
        assert!(!r.precedes(1, 2) && !r.precedes(2, 1));
        assert!(!r.precedes(3, 0) && !r.precedes(1, 0));
    }
}
