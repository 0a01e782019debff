//! Fig. 7 — EASYVIEW: Gantt chart + task/tile linking.
//!
//! Records a real (wall-clock) trace of mandel `omp_tiled`, then drives
//! the EASYVIEW interactions the figure shows: the per-CPU Gantt chart,
//! the hover bubble with a task's duration, and the vertical mouse mode
//! that maps a time to the set of tiles being computed.

use ezp_bench::banner;
use ezp_core::kernel::Probe;
use ezp_core::perf::run_kernel;
use ezp_core::{RunConfig, Schedule};
use ezp_monitor::Monitor;
use ezp_trace::{Trace, TraceMeta};
use ezp_view::GanttModel;
use std::sync::Arc;

fn main() {
    banner("Fig. 7", "EASYVIEW Gantt chart with task/tile linking");
    let cfg = RunConfig::new("mandel")
        .variant("omp_tiled")
        .size(256)
        .tile(32)
        .iterations(10)
        .threads(4)
        .schedule(Schedule::Dynamic(2));
    let reg = ezp_kernels::registry();
    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid().unwrap()));
    let (outcome, _ctx) = run_kernel(&reg, cfg.clone(), monitor.clone() as Arc<dyn Probe>).unwrap();
    println!("{}\n", outcome.summary());
    let trace = Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report());
    ezp_trace::io::save(&trace, "fig07.ezv").unwrap();
    println!("trace -> fig07.ezv ({} tasks)\n", trace.tasks.len());

    // the Gantt chart for a selectable iteration range
    let gantt = GanttModel::new(&trace, 3, 5);
    println!("--- Gantt chart, iterations 3..5 ---");
    print!("{}", gantt.to_ascii(100));
    std::fs::write("fig07_gantt.svg", gantt.to_svg(1000.0, 26.0)).unwrap();
    println!("-> fig07_gantt.svg\n");

    // hover bubble: "moving the mouse over a task displays its duration"
    let longest = gantt
        .tasks()
        .iter()
        .max_by_key(|t| t.duration_ns())
        .expect("tasks recorded");
    println!("hover on the longest task: {}", GanttModel::bubble(longest));

    // vertical mouse mode: tasks (and their tiles) crossing a time
    let mid = gantt.t0 + (gantt.t1 - gantt.t0) / 2;
    let crossing = gantt.tasks_at_time(mid);
    println!(
        "\nvertical mouse mode at t = midpoint: {} tasks in flight",
        crossing.len()
    );
    for t in &crossing {
        println!(
            "  highlighted tile ({:>3},{:>3}) {}x{} on CPU {}",
            t.x, t.y, t.w, t.h, t.worker
        );
    }
    println!(
        "\n(sweeping the mouse left->right replays the order in which tiles\n\
         were computed, exactly the Fig. 7 interaction)"
    );
}
