//! Fig. 11/12 — task dependencies: the ccomp wavefront.
//!
//! Fig. 11 is the `#pragma omp task depend(...)` snippet — here the
//! [`ezp_sched::TaskGraph`] wavefront builders. Fig. 12 shows EASYVIEW
//! "visualizing the wave of tasks moving forward": three snapshots of
//! completed tiles while sweeping the mouse across the Gantt chart.
//! A correct dependency implementation shows a diagonal frontier; an
//! over-constrained one (the student failure mode) degenerates to a
//! sequential staircase, which the parallelism metric below exposes.

use ezp_bench::banner;
use ezp_core::kernel::Probe;
use ezp_core::{Kernel, KernelCtx, RunConfig};
use ezp_kernels::ccomp::CComp;
use ezp_monitor::Monitor;
use ezp_trace::{Trace, TraceMeta};
use ezp_view::GanttModel;
use std::sync::Arc;

fn main() {
    banner("Fig. 11/12", "ccomp task-dependency wavefront");
    let mut cfg = RunConfig::new("ccomp").size(256).tile(16).threads(4);
    cfg.seed = 42;
    println!("workload: ccomp 256x256, tiles 16x16 (16x16 grid), 4 threads\n");

    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid().unwrap()));
    let mut ctx = KernelCtx::new(cfg.clone())
        .unwrap()
        .with_probe(monitor.clone() as Arc<dyn Probe>);
    let mut kernel = CComp::default();
    kernel.init(&mut ctx).unwrap();
    let converged = kernel.compute(&mut ctx, "taskdep", 500).unwrap();
    println!("converged after {:?} iterations\n", converged);

    let trace = Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report());
    let grid = cfg.grid().unwrap();
    let gantt = GanttModel::new(&trace, 1, 1);

    // Fig. 12: completed tiles at three mouse positions
    for percent in [20u64, 50, 80] {
        let t = gantt.t0 + (gantt.t1 - gantt.t0) * percent / 100;
        println!("--- mouse at {percent}% of iteration 1 ---");
        for ty in 0..grid.tiles_y() {
            let row: String = (0..grid.tiles_x())
                .map(|tx| {
                    let done = gantt.tasks().iter().any(|task| {
                        task.end_ns <= t && grid.tile_of_pixel(task.x, task.y) == grid.tile(tx, ty)
                    });
                    if done {
                        '#'
                    } else {
                        '.'
                    }
                })
                .collect();
            println!("{row}");
        }
        println!();
    }

    // quantify the parallelism the dependencies allow. Wall-clock
    // overlap cannot exceed the host's CPU count, so the claim is
    // checked in virtual time: the same task graph, run by the
    // runtime's own scheduler on 4 virtual CPUs (DESIGN.md
    // substitution).
    use ezp_sched::TaskGraph;
    use ezp_simsched::simulate_taskgraph;
    let graph = TaskGraph::down_right_wavefront(&grid);
    let costs = vec![100u64; grid.len()];
    let sim = simulate_taskgraph(&graph, &costs, 4);
    println!(
        "virtual-time check on 4 CPUs: max tasks in flight = {}, speedup = {:.2}",
        sim.max_parallelism(),
        sim.speedup()
    );
    println!(
        "(> 1 proves the dependencies allow diagonal parallelism; an\n\
         over-constrained program — the student bug EASYVIEW exposes —\n\
         would show exactly 1 here and a sequential staircase above.\n\
         critical path {} vs makespan {} virtual ns)",
        sim.critical_path_ns, sim.makespan_ns
    );
    print!(
        "\n--- Gantt, iteration 1 (real wall-clock trace) ---\n{}",
        gantt.to_ascii(100)
    );
}
