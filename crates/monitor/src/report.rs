//! Analysis of harvested monitoring data: per-iteration per-CPU
//! busy/idle accounting — the numbers behind the Activity Monitor window.

use crate::record::{iteration_run, DepEdge, TileRecord};
use crate::tiling::{HeatMap, TilingSnapshot};
use ezp_core::json::{FromJson, Json, ToJson};
use ezp_core::TileGrid;

/// Wall-clock span of one iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterationSpan {
    /// Iteration number (1-based).
    pub iteration: u32,
    /// Start timestamp (ns since process origin).
    pub start_ns: u64,
    /// End timestamp; `u64::MAX` while the iteration is still open.
    pub end_ns: u64,
}

impl IterationSpan {
    /// Iteration duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

impl ToJson for IterationSpan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("iteration", self.iteration.to_json()),
            ("start_ns", self.start_ns.to_json()),
            // end_ns may be the u64::MAX "still open" sentinel; the exact
            // integer representation in ezp-core::json preserves it.
            ("end_ns", self.end_ns.to_json()),
        ])
    }
}

impl FromJson for IterationSpan {
    fn from_json(v: &Json) -> ezp_core::Result<Self> {
        Ok(IterationSpan {
            iteration: v.field("iteration")?,
            start_ns: v.field("start_ns")?,
            end_ns: v.field("end_ns")?,
        })
    }
}

/// Per-CPU activity during one iteration: the Activity Monitor's
/// "percentage representing the amount of time spent in computations
/// over the duration of the iteration" (§II-B).
#[derive(Clone, Debug, PartialEq)]
pub struct IterationStats {
    /// The iteration this describes.
    pub span: IterationSpan,
    /// Busy nanoseconds per worker (sum of tile durations).
    pub busy_ns: Vec<u64>,
    /// Tiles computed per worker.
    pub tiles: Vec<usize>,
}

impl IterationStats {
    /// Load of `worker` in `[0, 1]`: busy time over iteration duration.
    pub fn load(&self, worker: usize) -> f64 {
        let d = self.span.duration_ns();
        if d == 0 {
            return 0.0;
        }
        (self.busy_ns[worker] as f64 / d as f64).min(1.0)
    }

    /// Idle nanoseconds of `worker` during the iteration.
    pub fn idle_ns(&self, worker: usize) -> u64 {
        self.span.duration_ns().saturating_sub(self.busy_ns[worker])
    }

    /// Cumulated idleness across all workers — one point of the history
    /// diagram "at the bottom of the window" (§II-B). Saturates instead
    /// of overflowing when an iteration carries the `u64::MAX` "still
    /// open" sentinel.
    pub fn total_idle_ns(&self) -> u64 {
        (0..self.busy_ns.len()).fold(0u64, |acc, w| acc.saturating_add(self.idle_ns(w)))
    }

    /// Busiest and laziest worker of the iteration as `(max, min)` busy
    /// nanoseconds (`(0, 0)` with no workers).
    pub fn busy_extremes(&self) -> (u64, u64) {
        let max = self.busy_ns.iter().copied().max().unwrap_or(0);
        let min = self.busy_ns.iter().copied().min().unwrap_or(0);
        (max, min)
    }

    /// Steal-style imbalance: max busy / min busy. `1.0` when every
    /// worker was equally (possibly zero) busy, `f64::INFINITY` when at
    /// least one worker did work while another sat fully idle — the
    /// signature of a static schedule on an irregular kernel (Fig. 3).
    pub fn busy_ratio(&self) -> f64 {
        let (max, min) = self.busy_extremes();
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// Load imbalance ratio: max busy / mean busy (1.0 = perfect balance).
    /// This is the quantity that makes the Fig. 3 static-schedule
    /// imbalance visible as a number.
    pub fn imbalance(&self) -> f64 {
        let n = self.busy_ns.len();
        if n == 0 {
            return 1.0;
        }
        let max = self.busy_ns.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.busy_ns.iter().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Everything the monitor collected, ready for analysis and rendering.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Number of monitored workers.
    pub workers: usize,
    /// Tile grid of the monitored run.
    pub grid: TileGrid,
    /// Iteration spans in chronological order.
    pub iterations: Vec<IterationSpan>,
    /// All tile records, sorted by (iteration, start time).
    pub records: Vec<TileRecord>,
    /// Dependency edges of the run's task graph (empty for loop-
    /// scheduled runs, which have no inter-task edges). Task ids index
    /// the graph the scheduler ran — for tiled kernels, row-major tile
    /// ids of `grid`.
    pub edges: Vec<DepEdge>,
}

impl MonitorReport {
    /// Assembles a report. Records are expected sorted by iteration
    /// then start time ([`crate::Monitor::report`] guarantees it); if
    /// they are not even grouped by iteration they are stably re-sorted
    /// by it, so the per-iteration queries — binary searches — see
    /// exactly the records a full scan would, in the same order.
    pub fn new(
        workers: usize,
        grid: TileGrid,
        iterations: Vec<IterationSpan>,
        mut records: Vec<TileRecord>,
    ) -> Self {
        if !records.is_sorted_by_key(|r| r.iteration) {
            records.sort_by_key(|r| r.iteration);
        }
        MonitorReport {
            workers,
            grid,
            iterations,
            records,
            edges: Vec::new(),
        }
    }

    /// The same report carrying the run's dependency edges (builder
    /// style, so the many edge-free constructions stay untouched).
    pub fn with_edges(mut self, edges: Vec<DepEdge>) -> Self {
        self.edges = edges;
        self
    }

    /// Records belonging to iteration `it`.
    pub fn records_of_iteration(&self, it: u32) -> impl Iterator<Item = &TileRecord> {
        iteration_run(&self.records, it).iter()
    }

    /// Per-CPU activity stats for iteration `it`, or `None` when the
    /// iteration was never started.
    pub fn iteration_stats(&self, it: u32) -> Option<IterationStats> {
        let span = *self.iterations.iter().find(|s| s.iteration == it)?;
        let mut busy_ns = vec![0u64; self.workers];
        let mut tiles = vec![0usize; self.workers];
        for r in self.records_of_iteration(it) {
            // fold out-of-range workers into the last slot rather than
            // panicking on a malformed record; saturate like duration_ns
            let w = r.worker.min(self.workers.saturating_sub(1));
            busy_ns[w] = busy_ns[w].saturating_add(r.duration_ns());
            tiles[w] += 1;
        }
        Some(IterationStats {
            span,
            busy_ns,
            tiles,
        })
    }

    /// Stats for every recorded iteration, in order.
    pub fn all_stats(&self) -> Vec<IterationStats> {
        self.iterations
            .iter()
            .filter_map(|s| self.iteration_stats(s.iteration))
            .collect()
    }

    /// The cumulated-idleness history: one `(iteration, total idle ns)`
    /// point per iteration, cumulative over time — the bottom diagram of
    /// the Activity Monitor window.
    pub fn idleness_history(&self) -> Vec<(u32, u64)> {
        let mut acc = 0u64;
        self.all_stats()
            .iter()
            .map(|s| {
                acc = acc.saturating_add(s.total_idle_ns());
                (s.span.iteration, acc)
            })
            .collect()
    }

    /// Tile→worker snapshot of iteration `it` (the Tiling window).
    pub fn tiling_snapshot(&self, it: u32) -> TilingSnapshot {
        TilingSnapshot::from_records(&self.grid, self.records_of_iteration(it))
    }

    /// Per-tile duration heat map of iteration `it` (Fig. 9).
    pub fn heat_map(&self, it: u32) -> HeatMap {
        HeatMap::from_records(&self.grid, self.records_of_iteration(it))
    }

    /// Total busy time across all workers and iterations (saturating).
    pub fn total_busy_ns(&self) -> u64 {
        self.records
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(r.duration_ns()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(it: u32, worker: usize, start: u64, end: u64, x: usize, y: usize) -> TileRecord {
        TileRecord {
            iteration: it,
            x,
            y,
            w: 16,
            h: 16,
            start_ns: start,
            end_ns: end,
            worker,
        }
    }

    fn sample_report() -> MonitorReport {
        let grid = TileGrid::square(32, 16).unwrap(); // 2x2 tiles
        let iterations = vec![
            IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 100,
            },
            IterationSpan {
                iteration: 2,
                start_ns: 100,
                end_ns: 300,
            },
        ];
        let records = vec![
            rec(1, 0, 0, 60, 0, 0),
            rec(1, 0, 60, 90, 16, 0),
            rec(1, 1, 0, 40, 0, 16),
            rec(1, 1, 40, 50, 16, 16),
            rec(2, 0, 100, 300, 0, 0),
            rec(2, 1, 100, 150, 16, 0),
        ];
        MonitorReport::new(2, grid, iterations, records)
    }

    #[test]
    fn span_duration() {
        let s = IterationSpan {
            iteration: 1,
            start_ns: 10,
            end_ns: 40,
        };
        assert_eq!(s.duration_ns(), 30);
    }

    #[test]
    fn per_worker_busy_accounting() {
        let rep = sample_report();
        let s1 = rep.iteration_stats(1).unwrap();
        assert_eq!(s1.busy_ns, vec![90, 50]);
        assert_eq!(s1.tiles, vec![2, 2]);
        assert!((s1.load(0) - 0.9).abs() < 1e-9);
        assert!((s1.load(1) - 0.5).abs() < 1e-9);
        assert_eq!(s1.idle_ns(0), 10);
        assert_eq!(s1.idle_ns(1), 50);
        assert_eq!(s1.total_idle_ns(), 60);
    }

    #[test]
    fn load_is_clamped_to_one() {
        // busy longer than the iteration span (possible with overlapping
        // instrumentation) must not report > 100 %
        let grid = TileGrid::square(16, 16).unwrap();
        let rep = MonitorReport::new(
            1,
            grid,
            vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 10,
            }],
            vec![rec(1, 0, 0, 50, 0, 0)],
        );
        assert_eq!(rep.iteration_stats(1).unwrap().load(0), 1.0);
    }

    #[test]
    fn missing_iteration_yields_none() {
        assert!(sample_report().iteration_stats(7).is_none());
    }

    #[test]
    fn imbalance_detects_skew() {
        let rep = sample_report();
        let s2 = rep.iteration_stats(2).unwrap();
        // worker 0 busy 200, worker 1 busy 50 -> max/mean = 200/125 = 1.6
        assert!((s2.imbalance() - 1.6).abs() < 1e-9);
        let s1 = rep.iteration_stats(1).unwrap();
        assert!(s2.imbalance() > s1.imbalance());
    }

    #[test]
    fn busy_ratio_spots_the_lazy_worker() {
        let rep = sample_report();
        let s1 = rep.iteration_stats(1).unwrap();
        assert_eq!(s1.busy_extremes(), (90, 50));
        assert!((s1.busy_ratio() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn busy_ratio_edge_cases() {
        let all_idle = IterationStats {
            span: IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 100,
            },
            busy_ns: vec![0, 0],
            tiles: vec![0, 0],
        };
        assert_eq!(all_idle.busy_ratio(), 1.0);
        let one_idle = IterationStats {
            busy_ns: vec![40, 0],
            tiles: vec![1, 0],
            ..all_idle.clone()
        };
        assert_eq!(one_idle.busy_ratio(), f64::INFINITY);
    }

    #[test]
    fn open_iteration_sentinel_does_not_overflow_idle_totals() {
        let grid = TileGrid::square(16, 16).unwrap();
        let rep = MonitorReport::new(
            4,
            grid,
            vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: u64::MAX, // still open
            }],
            vec![rec(1, 0, 0, 60, 0, 0)],
        );
        let s = rep.iteration_stats(1).unwrap();
        // 4 workers x ~u64::MAX idle each: must saturate, not panic
        assert_eq!(s.total_idle_ns(), u64::MAX);
        assert_eq!(rep.idleness_history(), vec![(1, u64::MAX)]);
    }

    #[test]
    fn out_of_range_worker_folds_into_last_slot() {
        let grid = TileGrid::square(16, 16).unwrap();
        let rep = MonitorReport::new(
            2,
            grid,
            vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 100,
            }],
            vec![rec(1, 9, 0, 30, 0, 0)], // worker 9 of 2
        );
        let s = rep.iteration_stats(1).unwrap();
        assert_eq!(s.busy_ns, vec![0, 30]);
        assert_eq!(s.tiles, vec![0, 1]);
    }

    #[test]
    fn idleness_history_is_cumulative() {
        let rep = sample_report();
        let hist = rep.idleness_history();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0], (1, 60));
        // iteration 2: duration 200, idle = (200-200) + (200-50) = 150
        assert_eq!(hist[1], (2, 210));
    }

    #[test]
    fn total_busy_sums_everything() {
        let rep = sample_report();
        assert_eq!(rep.total_busy_ns(), 60 + 30 + 40 + 10 + 200 + 50);
    }

    #[test]
    fn zero_duration_iteration_has_zero_load() {
        let grid = TileGrid::square(16, 16).unwrap();
        let rep = MonitorReport::new(
            1,
            grid,
            vec![IterationSpan {
                iteration: 1,
                start_ns: 5,
                end_ns: 5,
            }],
            vec![],
        );
        assert_eq!(rep.iteration_stats(1).unwrap().load(0), 0.0);
    }
}
