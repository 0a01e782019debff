//! The live monitoring probe: low-overhead per-worker event collection.
//!
//! Worker threads report every tile — `parallel_for_tiles` in timed
//! batches of up to 64 ([`Probe::tiles_done`]), kernel-authored loops
//! with `start_tile` / `end_tile` — so collection must not serialize
//! them. Each worker gets its own cache-line-padded slot holding the
//! open-tile timestamp and the log of its finished tiles. Only the
//! owning worker appends to a log, so its lock is uncontended on the
//! tile hot path; a report locks the logs just long enough to merge the
//! per-worker runs — each already in time order — into one vector. A
//! live report misses the tiles of a batch not yet handed over.

use crate::record::{DepEdge, TileRecord};
use crate::report::{IterationSpan, MonitorReport};
use ezp_core::kernel::{EdgeKind, Probe, TileStamp};
use ezp_core::time::now_ns;
use ezp_core::{Tile, TileGrid, WorkerId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Pads a worker slot to its own cache line to avoid false sharing, the
/// classic pitfall the guides (and Chapter 7 of *Rust Atomics and Locks*)
/// warn about for per-thread counters.
#[repr(align(128))]
struct WorkerSlot {
    /// Timestamp of the currently open tile (`u64::MAX` when none).
    /// counter-only: the timestamp is the entire payload and only the
    /// owning worker reads or writes it.
    open_start: AtomicU64,
    /// This worker's finished tiles in recording order. Reports are
    /// snapshots, not drains, so records stay here for the next one.
    log: Mutex<Vec<TileRecord>>,
}

/// The live monitor: a [`Probe`] implementation recording every tile.
pub struct Monitor {
    grid: TileGrid,
    slots: Vec<WorkerSlot>,
    current_iteration: AtomicU32,
    iterations: Mutex<Vec<IterationSpan>>,
    /// Dependency edges reported by the task-graph executor, deduped:
    /// graph runs re-enumerate the same structural edges every
    /// iteration, and the report wants each once. Edge reporting
    /// happens once per region launch (not per task), so this lock is
    /// nowhere near the tile hot path.
    edges: Mutex<BTreeSet<(usize, usize, u8)>>,
}

impl Monitor {
    /// Creates a monitor for `workers` threads over `grid`.
    pub fn new(workers: usize, grid: TileGrid) -> Self {
        assert!(workers > 0, "monitor needs at least one worker");
        // Room for an even share of one iteration, allocated here rather
        // than by a worker's first `end_tile`: a thread's first
        // allocation makes it set up a malloc arena of its own, inside
        // the iteration the monitor is timing.
        let slot = || WorkerSlot {
            open_start: AtomicU64::new(u64::MAX),
            log: Mutex::new(Vec::with_capacity(grid.len().div_ceil(workers))),
        };
        Monitor {
            grid,
            slots: (0..workers).map(|_| slot()).collect(),
            current_iteration: AtomicU32::new(0),
            iterations: Mutex::new(Vec::new()),
            edges: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of monitored workers.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Harvests everything collected so far into an analysable report.
    /// The monitor can keep running; records are *copied* out.
    pub fn report(&self) -> MonitorReport {
        // Workers only ever take their own lock and reports take them in
        // slot order, so holding all of them (one consistent cut, and an
        // exactly sized copy) cannot deadlock.
        let logs: Vec<_> = self.slots.iter().map(|s| s.log.lock().unwrap()).collect();
        let records = merge_runs(logs.iter().map(|log| log.as_slice()).collect());
        drop(logs);
        let mut iterations = self.iterations.lock().unwrap().clone();
        // close a still-open iteration so that live snapshots work
        if let Some(last) = iterations.last_mut() {
            if last.end_ns == u64::MAX {
                last.end_ns = now_ns();
            }
        }
        let edges: Vec<DepEdge> = self
            .edges
            .lock()
            .unwrap()
            .iter()
            .map(|&(from, to, kind)| DepEdge { from, to, kind })
            .collect();
        MonitorReport::new(self.slots.len(), self.grid, iterations, records)
            .with_edges(edges)
    }

    #[inline]
    fn slot(&self, worker: WorkerId) -> &WorkerSlot {
        assert!(
            worker < self.slots.len(),
            "worker {worker} out of range (monitor created for {})",
            self.slots.len()
        );
        &self.slots[worker]
    }
}

/// The per-worker logs merged in `(iteration, start_ns)` order, ties to
/// the lowest worker: a stable sort of their concatenation, which is
/// the fallback should a log be out of order (an iteration number that
/// went backwards). A worker records in time order, so it rarely is.
fn merge_runs(runs: Vec<&[TileRecord]>) -> Vec<TileRecord> {
    let key = |r: &TileRecord| (r.iteration, r.start_ns);
    if !runs.iter().all(|run| run.is_sorted_by_key(key)) {
        let mut out = runs.concat();
        out.sort_by_key(key);
        return out;
    }
    let total = runs.iter().map(|run| run.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut heads: Vec<_> = runs.iter().map(|run| run.iter().peekable()).collect();
    for _ in 0..total {
        // one run per worker: scanning the heads beats a heap, and
        // `min_by_key` keeps the first of equal keys, the lowest worker
        let (w, _) = (0..heads.len())
            .filter_map(|w| Some((w, key(heads[w].peek()?))))
            .min_by_key(|&(_, k)| k)
            .expect("a head is left while records are");
        out.extend(heads[w].next());
    }
    out
}

impl Probe for Monitor {
    fn iteration_start(&self, iteration: u32) {
        self.current_iteration.store(iteration, Ordering::Release);
        self.iterations.lock().unwrap().push(IterationSpan {
            iteration,
            start_ns: now_ns(),
            end_ns: u64::MAX,
        });
    }

    fn iteration_end(&self, iteration: u32) {
        let mut spans = self.iterations.lock().unwrap();
        if let Some(span) = spans.iter_mut().rev().find(|s| s.iteration == iteration) {
            span.end_ns = now_ns();
        }
    }

    fn start_tile(&self, worker: WorkerId) {
        self.start_tile_at(worker, now_ns());
    }

    fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
        self.end_tile_at(x, y, w, h, worker, now_ns());
    }

    fn start_tile_at(&self, worker: WorkerId, now_ns: u64) {
        self.slot(worker).open_start.store(now_ns, Ordering::Relaxed);
    }

    fn end_tile_at(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId, end: u64) {
        let slot = self.slot(worker);
        let start = slot.open_start.load(Ordering::Relaxed);
        slot.open_start.store(u64::MAX, Ordering::Relaxed);
        // An end without a start is an instrumentation bug in the kernel;
        // record a zero-length task rather than poisoning the run.
        let start = if start == u64::MAX { end } else { start };
        slot.log.lock().unwrap().push(TileRecord {
            iteration: self.current_iteration.load(Ordering::Acquire),
            x,
            y,
            w,
            h,
            start_ns: start,
            end_ns: end,
            worker,
        });
    }

    fn wants_tile_stamps(&self) -> bool {
        true
    }

    fn tiles_done(&self, worker: WorkerId, stamps: &[TileStamp]) {
        let iteration = self.current_iteration.load(Ordering::Acquire);
        let records = stamps.iter().map(|s| {
            let Tile { x, y, w, h, .. } = s.tile;
            TileRecord { iteration, x, y, w, h, start_ns: s.start_ns, end_ns: s.end_ns, worker }
        });
        self.slot(worker).log.lock().unwrap().extend(records);
    }

    fn dep_edge(&self, from: usize, to: usize, kind: EdgeKind) {
        self.edges.lock().unwrap().insert((from, to, kind.as_u8()));
    }

    fn wants_dep_edges(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::prop::any_u64;
    use ezp_testkit::{ezp_proptest, Rng};
    use std::sync::Arc;

    fn grid() -> TileGrid {
        TileGrid::square(64, 16).unwrap()
    }

    ezp_proptest! {
        /// Sorted per-worker runs with keys tied within and across runs,
        /// and in half the cases one run reversed out of order: the merge
        /// equals a stable sort of the concatenation.
        fn merged_runs_equal_the_stable_sort(workers in 1usize..6, seed in any_u64()) {
            let mut rng = Rng::seed(seed);
            let mut runs: Vec<Vec<TileRecord>> = (0..workers)
                .map(|worker| {
                    let (mut iteration, mut start_ns) = (1u32, 0u64);
                    (0..rng.gen_range(0..40usize))
                        .map(|x| {
                            iteration += rng.gen_bool(0.1) as u32;
                            start_ns += rng.gen_range(0..3u64);
                            let end_ns = start_ns;
                            TileRecord { iteration, x, y: 0, w: 1, h: 1, start_ns, end_ns, worker }
                        })
                        .collect()
                })
                .collect();
            if rng.gen_bool(0.5) {
                runs[rng.gen_range(0..workers)].reverse();
            }
            let mut expected = runs.concat();
            expected.sort_by_key(|r| (r.iteration, r.start_ns));
            assert_eq!(merge_runs(runs.iter().map(Vec::as_slice).collect()), expected);
        }
    }

    #[test]
    fn records_one_tile_per_bracket() {
        let m = Monitor::new(2, grid());
        m.iteration_start(1);
        m.start_tile(0);
        m.end_tile(0, 0, 16, 16, 0);
        m.start_tile(1);
        m.end_tile(16, 0, 16, 16, 1);
        m.iteration_end(1);
        let rep = m.report();
        assert_eq!(rep.records.len(), 2);
        assert_eq!(rep.records[0].worker, 0);
        assert_eq!(rep.records[1].x, 16);
        assert!(rep.records.iter().all(|r| r.iteration == 1));
    }

    #[test]
    fn tile_timestamps_are_ordered() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.start_tile(0);
        std::hint::black_box((0..1000).sum::<u64>());
        m.end_tile(0, 0, 16, 16, 0);
        let rep = m.report();
        let r = rep.records[0];
        assert!(r.end_ns >= r.start_ns);
    }

    #[test]
    fn end_without_start_yields_zero_duration() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.end_tile(0, 0, 16, 16, 0);
        let rep = m.report();
        assert_eq!(rep.records[0].duration_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worker_rank_is_checked() {
        let m = Monitor::new(2, grid());
        m.start_tile(5);
    }

    #[test]
    fn concurrent_workers_do_not_lose_records() {
        let m = Arc::new(Monitor::new(4, grid()));
        m.iteration_start(1);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        m.start_tile(w);
                        m.end_tile(i % 4 * 16, w * 16, 16, 16, w);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.iteration_end(1);
        let rep = m.report();
        assert_eq!(rep.records.len(), 400);
        for w in 0..4 {
            assert_eq!(rep.records.iter().filter(|r| r.worker == w).count(), 100);
        }
    }

    #[test]
    fn open_iteration_is_closed_at_report_time() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.start_tile(0);
        m.end_tile(0, 0, 16, 16, 0);
        // no iteration_end: live snapshot mid-iteration
        let rep = m.report();
        assert_eq!(rep.iterations.len(), 1);
        assert_ne!(rep.iterations[0].end_ns, u64::MAX);
    }

    #[test]
    fn dep_edges_are_collected_and_deduped() {
        let m = Monitor::new(1, grid());
        assert!(m.wants_dep_edges());
        // re-emission across iterations (same structural graph) dedupes
        for _ in 0..3 {
            m.dep_edge(0, 1, EdgeKind::Data);
            m.dep_edge(0, 4, EdgeKind::Data);
            m.dep_edge(2, 3, EdgeKind::Capacity);
        }
        let rep = m.report();
        assert_eq!(rep.edges.len(), 3);
        assert_eq!(
            rep.edges[0],
            DepEdge {
                from: 0,
                to: 1,
                kind: EdgeKind::Data.as_u8()
            }
        );
        assert_eq!(rep.edges[2].edge_kind(), Some(EdgeKind::Capacity));
    }

    #[test]
    fn report_is_a_snapshot_not_a_drain() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.start_tile(0);
        m.end_tile(0, 0, 16, 16, 0);
        assert_eq!(m.report().records.len(), 1);
        assert_eq!(m.report().records.len(), 1);
    }
}
