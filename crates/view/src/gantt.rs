//! The Gantt chart model and its two mouse modes.

use ezp_core::color::{worker_color, Rgba};
use ezp_core::svg::SvgCanvas;
use ezp_core::time::format_duration_ns;
use ezp_monitor::TileRecord;
use ezp_trace::Trace;

/// A Gantt view of a trace restricted to an iteration range — "a Gantt
/// chart displays per-CPU sequences of tasks for a selectable range of
/// iterations" (§II-D).
#[derive(Clone, Debug)]
pub struct GanttModel {
    /// Number of CPUs (rows).
    pub workers: usize,
    /// First iteration shown (inclusive).
    pub iter_lo: u32,
    /// Last iteration shown (inclusive).
    pub iter_hi: u32,
    /// Time of the left edge.
    pub t0: u64,
    /// Time of the right edge.
    pub t1: u64,
    /// Tasks in range, sorted by start time.
    tasks: Vec<TileRecord>,
}

impl GanttModel {
    /// Builds the model for iterations `[iter_lo, iter_hi]` of `trace`.
    pub fn new(trace: &Trace, iter_lo: u32, iter_hi: u32) -> Self {
        let mut tasks: Vec<TileRecord> = trace
            .tasks
            .iter()
            .filter(|t| (iter_lo..=iter_hi).contains(&t.iteration))
            .copied()
            .collect();
        tasks.sort_by_key(|t| t.start_ns);
        let t0 = trace
            .iterations
            .iter()
            .filter(|s| (iter_lo..=iter_hi).contains(&s.iteration))
            .map(|s| s.start_ns)
            .chain(tasks.iter().map(|t| t.start_ns))
            .min()
            .unwrap_or(0);
        let t1 = trace
            .iterations
            .iter()
            .filter(|s| (iter_lo..=iter_hi).contains(&s.iteration) && s.end_ns != u64::MAX)
            .map(|s| s.end_ns)
            .chain(tasks.iter().map(|t| t.end_ns))
            .max()
            .unwrap_or(t0);
        GanttModel {
            workers: trace.meta.threads,
            iter_lo,
            iter_hi,
            t0,
            t1,
            tasks,
        }
    }

    /// All tasks in the range.
    pub fn tasks(&self) -> &[TileRecord] {
        &self.tasks
    }

    /// Tasks of one CPU row, in time order.
    pub fn row(&self, worker: usize) -> Vec<&TileRecord> {
        self.tasks.iter().filter(|t| t.worker == worker).collect()
    }

    /// **Vertical mouse mode**: the tasks whose execution interval
    /// crosses wall-clock time `t` — their tiles are what EASYVIEW
    /// highlights over the image thumbnail.
    pub fn tasks_at_time(&self, t: u64) -> Vec<&TileRecord> {
        self.tasks
            .iter()
            .filter(|r| r.intersects_time(t, t + 1))
            .collect()
    }

    /// The specific task under the mouse at `(cpu, t)`, if any — the
    /// hover query behind the duration bubble of Fig. 7.
    pub fn task_at(&self, worker: usize, t: u64) -> Option<&TileRecord> {
        self.tasks
            .iter()
            .find(|r| r.worker == worker && r.intersects_time(t, t + 1))
    }

    /// **Horizontal mouse mode**: all tasks of `worker` in the displayed
    /// range (feed this to [`crate::CoverageMap`] for the coverage view).
    pub fn tasks_of_worker(&self, worker: usize) -> Vec<&TileRecord> {
        self.row(worker)
    }

    /// The hover bubble text for a task.
    pub fn bubble(task: &TileRecord) -> String {
        format!(
            "tile ({},{}) {}x{} on CPU {}: {}",
            task.x,
            task.y,
            task.w,
            task.h,
            task.worker,
            format_duration_ns(task.duration_ns())
        )
    }

    /// Renders the chart as ASCII, `width` columns wide: one row per
    /// CPU, task cells drawn with the worker's digit, idle time as `.`.
    pub fn to_ascii(&self, width: usize) -> String {
        assert!(width >= 10, "need at least 10 columns");
        let span = (self.t1 - self.t0).max(1);
        let mut out = String::new();
        for w in 0..self.workers {
            let mut row = vec!['.'; width];
            for t in self.row(w) {
                let c0 = ((t.start_ns - self.t0) as u128 * width as u128 / span as u128) as usize;
                let c1 = ((t.end_ns - self.t0) as u128 * width as u128 / span as u128) as usize;
                let c1 = c1.min(width - 1);
                for cell in row.iter_mut().take(c1 + 1).skip(c0) {
                    *cell = ezp_monitor::tiling::worker_char(w);
                }
            }
            out.push_str(&format!("CPU {w:>2} |"));
            out.extend(row);
            out.push('\n');
        }
        out.push_str(&format!(
            "        span: {} (iterations {}..{})\n",
            format_duration_ns(span),
            self.iter_lo,
            self.iter_hi
        ));
        out
    }

    /// Renders the chart as SVG (one colored bar per task).
    pub fn to_svg(&self, width: f64, row_height: f64) -> String {
        let span = (self.t1 - self.t0).max(1) as f64;
        let label_w = 60.0;
        let height = row_height * self.workers as f64 + 20.0;
        let mut c = SvgCanvas::new(width + label_w, height);
        for w in 0..self.workers {
            let y = w as f64 * row_height + 2.0;
            c.text(
                2.0,
                y + row_height * 0.7,
                row_height * 0.5,
                Rgba::BLACK,
                &format!("CPU {w}"),
            );
            for t in self.row(w) {
                let x0 = label_w + (t.start_ns - self.t0) as f64 / span * width;
                let x1 = label_w + (t.end_ns - self.t0) as f64 / span * width;
                c.rect(x0, y, (x1 - x0).max(0.5), row_height - 4.0, worker_color(w));
            }
        }
        c.text(
            label_w,
            height - 5.0,
            10.0,
            Rgba::BLACK,
            &format!(
                "iterations {}..{}  span {}",
                self.iter_lo,
                self.iter_hi,
                format_duration_ns(self.t1 - self.t0)
            ),
        );
        c.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_monitor::report::IterationSpan;
    use ezp_trace::TraceMeta;

    fn trace() -> Trace {
        let mk = |it, x, s, e, w| TileRecord {
            iteration: it,
            x,
            y: 0,
            w: 16,
            h: 16,
            start_ns: s,
            end_ns: e,
            worker: w,
        };
        Trace {
            meta: TraceMeta {
                kernel: "mandel".into(),
                variant: "omp".into(),
                dim: 64,
                tile_size: 16,
                threads: 2,
                schedule: "dynamic".into(),
                label: "t".into(),
            },
            iterations: vec![
                IterationSpan {
                    iteration: 1,
                    start_ns: 0,
                    end_ns: 100,
                },
                IterationSpan {
                    iteration: 2,
                    start_ns: 100,
                    end_ns: 200,
                },
            ],
            tasks: vec![
                mk(1, 0, 10, 50, 0),
                mk(1, 16, 20, 90, 1),
                mk(2, 32, 110, 160, 0),
                mk(2, 48, 120, 130, 1),
            ],
            edges: Vec::new(),
            counters: None,
        }
    }

    #[test]
    fn full_range_includes_all_tasks() {
        let g = GanttModel::new(&trace(), 1, 2);
        assert_eq!(g.tasks().len(), 4);
        assert_eq!(g.t0, 0);
        assert_eq!(g.t1, 200);
        assert_eq!(g.row(0).len(), 2);
        assert_eq!(g.row(1).len(), 2);
    }

    #[test]
    fn iteration_range_filters() {
        let g = GanttModel::new(&trace(), 2, 2);
        assert_eq!(g.tasks().len(), 2);
        assert_eq!(g.t0, 100);
        assert_eq!(g.t1, 200);
    }

    #[test]
    fn vertical_mouse_mode_finds_crossing_tasks() {
        let g = GanttModel::new(&trace(), 1, 2);
        let at_30 = g.tasks_at_time(30);
        assert_eq!(at_30.len(), 2); // both workers busy at t=30
        let at_95 = g.tasks_at_time(95);
        assert!(at_95.is_empty()); // gap between iterations
        let at_125 = g.tasks_at_time(125);
        assert_eq!(at_125.len(), 2);
    }

    #[test]
    fn hover_finds_the_task_and_formats_bubble() {
        let g = GanttModel::new(&trace(), 1, 1);
        let t = g.task_at(1, 25).unwrap();
        assert_eq!(t.x, 16);
        let bubble = GanttModel::bubble(t);
        assert!(bubble.contains("CPU 1"));
        assert!(bubble.contains("70 ns"));
        assert!(g.task_at(0, 60).is_none());
    }

    #[test]
    fn ascii_has_one_row_per_cpu() {
        let g = GanttModel::new(&trace(), 1, 2);
        let art = g.to_ascii(40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // 2 CPUs + footer
        assert!(lines[0].starts_with("CPU  0"));
        assert!(lines[0].contains('0'));
        assert!(lines[1].contains('1'));
        assert!(lines[2].contains("iterations 1..2"));
    }

    #[test]
    fn svg_contains_task_bars() {
        let g = GanttModel::new(&trace(), 1, 2);
        let svg = g.to_svg(400.0, 20.0);
        assert!(svg.contains("<svg"));
        // 1 background + 4 task rects
        assert_eq!(svg.matches("<rect").count(), 5);
    }

    #[test]
    fn empty_range_is_harmless() {
        let g = GanttModel::new(&trace(), 7, 9);
        assert!(g.tasks().is_empty());
        assert!(g.tasks_at_time(0).is_empty());
        let art = g.to_ascii(20);
        assert!(art.contains("CPU  0"));
    }
}
