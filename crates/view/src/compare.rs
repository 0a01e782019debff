//! Two-trace comparison (Fig. 10).
//!
//! "EASYVIEW offers a nice trace comparison feature": two runs of the
//! same kernel displayed one above the other, revealing that the
//! optimized blur "is approximately 3 times faster" overall and that
//! "many tasks are approximately 10 times faster than their original
//! version" (the branch-free, auto-vectorized inner tiles).

use ezp_core::error::{Error, Result};
use ezp_trace::Trace;
use std::collections::HashMap;

/// The aligned comparison of two traces.
#[derive(Clone, Debug)]
pub struct TraceComparison<'a> {
    /// Reference run (e.g. the basic blur), drawn at the bottom in Fig. 10.
    pub base: &'a Trace,
    /// Candidate run (e.g. the optimized blur).
    pub opt: &'a Trace,
    /// The matched tasks, in `base` order (see [`Self::task_speedups`]).
    speedups: Vec<TaskSpeedup>,
}

/// Duration statistics of matched tasks (same tile, same iteration).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskSpeedup {
    /// Tile x of the matched task.
    pub x: usize,
    /// Tile y of the matched task.
    pub y: usize,
    /// Iteration.
    pub iteration: u32,
    /// Base task duration (ns).
    pub base_ns: u64,
    /// Optimized task duration (ns).
    pub opt_ns: u64,
}

impl TaskSpeedup {
    /// `base / opt` duration ratio (×10 for the blur inner tiles).
    pub fn ratio(&self) -> f64 {
        self.base_ns as f64 / self.opt_ns.max(1) as f64
    }
}

impl<'a> TraceComparison<'a> {
    /// Pairs two traces of the same kernel/geometry.
    pub fn new(base: &'a Trace, opt: &'a Trace) -> Result<Self> {
        if base.meta.dim != opt.meta.dim || base.meta.tile_size != opt.meta.tile_size {
            return Err(Error::Config(format!(
                "cannot compare traces with different geometry ({}x{} tiles {} vs {}x{} tiles {})",
                base.meta.dim,
                base.meta.dim,
                base.meta.tile_size,
                opt.meta.dim,
                opt.meta.dim,
                opt.meta.tile_size
            )));
        }
        // one keyed pass over each trace; the first `opt` record of a
        // tile in an iteration is its match
        let mut first = HashMap::with_capacity(opt.tasks.len());
        for o in &opt.tasks {
            first.entry((o.iteration, o.x, o.y)).or_insert(o.duration_ns());
        }
        let speedups = base
            .tasks
            .iter()
            .filter_map(|b| {
                Some(TaskSpeedup {
                    x: b.x,
                    y: b.y,
                    iteration: b.iteration,
                    base_ns: b.duration_ns(),
                    opt_ns: *first.get(&(b.iteration, b.x, b.y))?,
                })
            })
            .collect();
        Ok(TraceComparison { base, opt, speedups })
    }

    /// Overall wall-clock speedup `base / opt` over the recorded spans.
    pub fn overall_speedup(&self) -> f64 {
        let span = |t: &Trace| t.time_bounds().map(|(a, b)| b - a).unwrap_or(0);
        span(self.base) as f64 / span(self.opt).max(1) as f64
    }

    /// Per-iteration durations `(iteration, base_ns, opt_ns)` for the
    /// iterations present in both traces.
    pub fn per_iteration(&self) -> Vec<(u32, u64, u64)> {
        self.base
            .iterations
            .iter()
            .filter_map(|b| {
                let o = self.opt.iterations.iter().find(|o| o.iteration == b.iteration)?;
                Some((b.iteration, b.duration_ns(), o.duration_ns()))
            })
            .collect()
    }

    /// Every `base` task matched by `(iteration, tile x, tile y)` with
    /// the first such `opt` task, and their duration ratios — the hover
    /// comparison students perform in Fig. 10.
    pub fn task_speedups(&self) -> &[TaskSpeedup] {
        &self.speedups
    }

    /// The tasks whose ratio is at least `threshold` — "short durations
    /// do always correspond to inner tiles".
    pub fn tasks_faster_than(&self, threshold: f64) -> Vec<TaskSpeedup> {
        self.speedups.iter().filter(|t| t.ratio() >= threshold).copied().collect()
    }

    /// A textual summary in the spirit of the Fig. 10 caption.
    pub fn summary(&self) -> String {
        let speedups = &self.speedups;
        let mean_ratio = if speedups.is_empty() {
            1.0
        } else {
            speedups.iter().map(|t| t.ratio()).sum::<f64>() / speedups.len() as f64
        };
        let max_ratio = speedups.iter().map(|t| t.ratio()).fold(1.0f64, f64::max);
        format!(
            "{} vs {}: overall x{:.2}, mean task x{:.2}, best task x{:.2} ({} matched tasks)",
            self.base.meta.label,
            self.opt.meta.label,
            self.overall_speedup(),
            mean_ratio,
            max_ratio,
            speedups.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_monitor::report::IterationSpan;
    use ezp_monitor::TileRecord;
    use ezp_trace::TraceMeta;

    fn meta(label: &str) -> TraceMeta {
        TraceMeta {
            kernel: "blur".into(),
            variant: label.into(),
            dim: 48,
            tile_size: 16,
            threads: 1,
            schedule: "static".into(),
            label: label.into(),
        }
    }

    /// A trace where inner tile (16,16) costs `inner` and the 8 border
    /// tiles cost `border` each.
    fn blur_trace(label: &str, border: u64, inner: u64) -> Trace {
        let grid = ezp_core::TileGrid::square(48, 16).unwrap();
        let mut tasks = Vec::new();
        let mut t = 0u64;
        for tile in grid.iter() {
            let cost = if tile.tx == 1 && tile.ty == 1 { inner } else { border };
            tasks.push(TileRecord {
                iteration: 1,
                x: tile.x,
                y: tile.y,
                w: tile.w,
                h: tile.h,
                start_ns: t,
                end_ns: t + cost,
                worker: 0,
            });
            t += cost;
        }
        Trace {
            meta: meta(label),
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
    fn fig10_shape_reproduced() {
        // basic: all tiles slow; optimized: inner tiles 10x faster
        let base = blur_trace("basic", 100, 100);
        let opt = blur_trace("opt", 100, 10);
        let cmp = TraceComparison::new(&base, &opt).unwrap();
        let speedups = cmp.task_speedups();
        assert_eq!(speedups.len(), 9);
        let fast = cmp.tasks_faster_than(9.0);
        assert_eq!(fast.len(), 1);
        assert_eq!((fast[0].x, fast[0].y), (16, 16)); // the inner tile
        assert!((fast[0].ratio() - 10.0).abs() < 1e-9);
        assert!(cmp.overall_speedup() > 1.0);
        assert!(cmp.summary().contains("x10.00"));
    }

    #[test]
    fn per_iteration_alignment() {
        let base = blur_trace("basic", 50, 50);
        let opt = blur_trace("opt", 50, 5);
        let cmp = TraceComparison::new(&base, &opt).unwrap();
        let per_it = cmp.per_iteration();
        assert_eq!(per_it.len(), 1);
        let (it, b, o) = per_it[0];
        assert_eq!(it, 1);
        assert!(b > o);
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let base = blur_trace("basic", 10, 10);
        let mut opt = blur_trace("opt", 10, 10);
        opt.meta.dim = 96;
        assert!(TraceComparison::new(&base, &opt).is_err());
    }

    #[test]
    fn unmatched_tasks_are_skipped() {
        let base = blur_trace("basic", 10, 10);
        let mut opt = blur_trace("opt", 10, 10);
        opt.tasks.truncate(4);
        let cmp = TraceComparison::new(&base, &opt).unwrap();
        assert_eq!(cmp.task_speedups().len(), 4);
    }

    #[test]
    fn the_first_record_of_a_tile_is_its_match() {
        // a two-phase kernel records tile (0,0) twice in one iteration
        let base = blur_trace("basic", 100, 100);
        let mut opt = blur_trace("opt", 100, 100);
        let end = opt.iterations[0].end_ns;
        opt.tasks.push(TileRecord { start_ns: end, end_ns: end + 50, ..opt.tasks[0] });
        let cmp = TraceComparison::new(&base, &opt).unwrap();
        assert_eq!(cmp.task_speedups().len(), 9);
        assert_eq!((cmp.task_speedups()[0].x, cmp.task_speedups()[0].y), (0, 0));
        assert_eq!(cmp.task_speedups()[0].opt_ns, 100);
        assert!(cmp.tasks_faster_than(1.5).is_empty());
    }

    #[test]
    fn identical_traces_have_unit_speedup() {
        let a = blur_trace("a", 20, 20);
        let b = blur_trace("b", 20, 20);
        let cmp = TraceComparison::new(&a, &b).unwrap();
        assert!((cmp.overall_speedup() - 1.0).abs() < 1e-9);
        assert!(cmp.tasks_faster_than(1.5).is_empty());
    }
}
