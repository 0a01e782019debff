//! Task-duration statistics over traces.
//!
//! EASYVIEW "cannot always capture some subtle properties such as the
//! heterogeneity of tasks duration" from the live view alone — the
//! post-mortem statistics here make that heterogeneity a number: count,
//! mean, extremes and percentiles per trace and per worker.
//! `easyview` prints this block by default, and the blur analysis uses
//! the bimodality detector to spot the fast-inner/slow-border split of
//! Fig. 10 automatically.

use ezp_monitor::TileRecord;
use ezp_trace::Trace;

/// Summary statistics over a set of task durations (ns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DurationStats {
    /// Number of tasks.
    pub count: usize,
    /// Sum of durations.
    pub total_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Shortest task.
    pub min_ns: u64,
    /// Longest task.
    pub max_ns: u64,
    /// Median (p50).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

impl DurationStats {
    /// Computes the summary of `durations` (empty input allowed).
    pub fn of(mut durations: Vec<u64>) -> DurationStats {
        if durations.is_empty() {
            return DurationStats {
                count: 0,
                total_ns: 0,
                mean_ns: 0.0,
                min_ns: 0,
                max_ns: 0,
                p50_ns: 0,
                p95_ns: 0,
                p99_ns: 0,
            };
        }
        durations.sort_unstable();
        let count = durations.len();
        let total: u64 = durations.iter().sum();
        DurationStats {
            count,
            total_ns: total,
            mean_ns: total as f64 / count as f64,
            min_ns: durations[0],
            max_ns: durations[count - 1],
            p50_ns: nearest_rank(&durations, 0.5),
            p95_ns: nearest_rank(&durations, 0.95),
            p99_ns: nearest_rank(&durations, 0.99),
        }
    }

    /// Heterogeneity indicator: `max / p50` (1.0 = perfectly uniform).
    /// The paper's blur trace shows strongly bimodal durations — this
    /// ratio jumps when a fast class of tasks appears.
    pub fn heterogeneity(&self) -> f64 {
        if self.p50_ns == 0 {
            1.0
        } else {
            self.max_ns as f64 / self.p50_ns as f64
        }
    }
}

/// The `q`-quantile of a non-empty ascending slice by nearest rank: the
/// value at 1-based rank `ceil(q * n)`. The one percentile definition
/// of this crate, behind `easyview`'s stats block and `easyview
/// explain`'s task-latency line.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Statistics over all tasks of a trace.
pub fn trace_stats(trace: &Trace) -> DurationStats {
    DurationStats::of(trace.tasks.iter().map(TileRecord::duration_ns).collect())
}

/// Per-worker statistics, indexed by worker id.
pub fn per_worker_stats(trace: &Trace) -> Vec<DurationStats> {
    (0..trace.meta.threads)
        .map(|w| {
            DurationStats::of(
                trace
                    .tasks
                    .iter()
                    .filter(|t| t.worker == w)
                    .map(TileRecord::duration_ns)
                    .collect(),
            )
        })
        .collect()
}

/// Renders the statistics block `easyview` prints.
pub fn render(trace: &Trace) -> String {
    use ezp_core::time::format_duration_ns as fmt;
    let all = trace_stats(trace);
    let mut out = format!(
        "tasks: {}  total {}  mean {}  min {}  p50 {}  p95 {}  max {}  (max/p50 x{:.1})\n",
        all.count,
        fmt(all.total_ns),
        fmt(all.mean_ns as u64),
        fmt(all.min_ns),
        fmt(all.p50_ns),
        fmt(all.p95_ns),
        fmt(all.max_ns),
        all.heterogeneity()
    );
    for (w, s) in per_worker_stats(trace).iter().enumerate() {
        out.push_str(&format!(
            "  CPU {w:>2}: {:>5} tasks, busy {:>10}, mean {:>10}\n",
            s.count,
            fmt(s.total_ns),
            fmt(s.mean_ns as u64)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_monitor::report::IterationSpan;
    use ezp_trace::TraceMeta;

    fn trace_with_durations(durations: &[(u64, usize)]) -> Trace {
        // (duration, worker)
        let mut t = 0u64;
        let tasks = durations
            .iter()
            .enumerate()
            .map(|(i, &(d, w))| {
                let rec = TileRecord {
                    iteration: 1,
                    x: (i * 16) % 64,
                    y: 16 * ((i * 16) / 64),
                    w: 16,
                    h: 16,
                    start_ns: t,
                    end_ns: t + d,
                    worker: w,
                };
                t += d;
                rec
            })
            .collect();
        Trace {
            meta: TraceMeta {
                kernel: "k".into(),
                variant: "v".into(),
                dim: 64,
                tile_size: 16,
                threads: 2,
                schedule: "static".into(),
                label: "stats".into(),
            },
            iterations: vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: t,
            }],
            tasks,
            edges: Vec::new(),
            counters: None,
        }
    }

    #[test]
    fn summary_of_known_values() {
        let s = DurationStats::of(vec![10, 20, 30, 40, 100]);
        assert_eq!(s.count, 5);
        assert_eq!(s.total_ns, 200);
        assert_eq!(s.mean_ns, 40.0);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.p50_ns, 30);
        assert_eq!(s.p95_ns, 100);
        assert_eq!(s.p99_ns, 100);
        assert!((s.heterogeneity() - 100.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_zeroed() {
        let s = DurationStats::of(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.heterogeneity(), 1.0);
    }

    #[test]
    fn per_worker_split() {
        let t = trace_with_durations(&[(10, 0), (20, 0), (100, 1)]);
        let per = per_worker_stats(&t);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].count, 2);
        assert_eq!(per[0].total_ns, 30);
        assert_eq!(per[1].count, 1);
        assert_eq!(per[1].max_ns, 100);
    }

    #[test]
    fn bimodal_durations_have_high_heterogeneity() {
        // the Fig. 10 signature: a fast class and a slow class
        let uniform = trace_with_durations(&[(100, 0); 8]);
        let mut bimodal_input = vec![(10u64, 0usize); 6];
        bimodal_input.extend([(100, 0), (100, 0)]);
        let bimodal = trace_with_durations(&bimodal_input);
        assert!((trace_stats(&uniform).heterogeneity() - 1.0).abs() < 1e-9);
        assert!(trace_stats(&bimodal).heterogeneity() >= 10.0);
    }

    #[test]
    fn render_contains_all_lines() {
        let t = trace_with_durations(&[(10, 0), (20, 1), (30, 1)]);
        let text = render(&t);
        assert!(text.starts_with("tasks: 3"));
        assert!(text.contains("CPU  0"));
        assert!(text.contains("CPU  1"));
    }
}
