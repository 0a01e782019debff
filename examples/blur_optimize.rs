//! The blur optimization study (paper §III-B, Fig. 9b and Fig. 10).
//!
//! Runs the branchy baseline (`omp_tiled`) and the border-specialized
//! variant (`omp_tiled_opt`) with tracing enabled, verifies the outputs
//! are identical, then performs the Fig. 10 analysis: overall speedup,
//! per-iteration comparison, which tasks got dramatically faster (the
//! inner tiles), plus the Fig. 9b heat-map observation that border
//! tiles are the expensive ones.
//!
//! Run with: `cargo run --release --example blur_optimize`

use easypap::core::kernel::Probe;
use easypap::core::perf::run_kernel;
use easypap::prelude::*;
use std::sync::Arc;

fn traced_run(variant: &str, dim: usize) -> easypap::core::Result<(Trace, Vec<Rgba>)> {
    let reg = easypap::kernels::registry();
    let cfg = RunConfig::new("blur")
        .variant(variant)
        .size(dim)
        .tile(32)
        .iterations(4)
        .schedule(Schedule::Dynamic(2));
    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid()?));
    let (_outcome, ctx) = run_kernel(&reg, cfg.clone(), monitor.clone() as Arc<dyn Probe>)?;
    let trace = Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report());
    Ok((trace, ctx.images.cur().as_slice().to_vec()))
}

fn main() -> easypap::core::Result<()> {
    let dim = 512;
    println!("== blur {dim}x{dim}, tiles 32x32, 4 iterations ==\n");

    let (basic, img_basic) = traced_run("omp_tiled", dim)?;
    let (opt, img_opt) = traced_run("omp_tiled_opt", dim)?;
    assert_eq!(
        img_basic, img_opt,
        "optimization must not change the output"
    );
    println!("outputs are bit-identical: OK\n");

    // ---- Fig. 9b: heat map — border tiles cost more -------------------
    let report = basic.to_report()?;
    let heat = report.heat_map(2);
    println!("== Fig. 9b: heat map of the basic variant (iteration 2) ==");
    print!("{}", heat.to_ascii());
    if let Some(ratio) = heat.border_inner_ratio() {
        println!("border/inner mean duration ratio: x{ratio:.2} (paper: border tiles slower)\n");
    }

    // ---- Fig. 10: trace comparison ------------------------------------
    let cmp = TraceComparison::new(&basic, &opt)?;
    println!("== Fig. 10: trace comparison ==");
    println!("{}", cmp.summary());
    for (it, base_ns, opt_ns) in cmp.per_iteration() {
        println!(
            "  iteration {it}: {} -> {}  (x{:.2})",
            easypap::core::time::format_duration_ns(base_ns),
            easypap::core::time::format_duration_ns(opt_ns),
            base_ns as f64 / opt_ns.max(1) as f64
        );
    }
    let fast = cmp.tasks_faster_than(3.0);
    let total = cmp.task_speedups().len();
    println!(
        "\ntasks >=3x faster in the optimized trace: {} / {total}",
        fast.len()
    );
    let inner = fast
        .iter()
        .filter(|t| {
            let grid = basic.meta.grid().unwrap();
            let tile = grid.tile_of_pixel(t.x, t.y);
            !tile.is_border(&grid)
        })
        .count();
    println!("...of which inner tiles: {inner} (paper: \"short durations do always correspond to inner tiles\")");

    // side-by-side Gantt charts, like the stacked traces of Fig. 10
    println!("\n== Gantt: basic (top) vs optimized (bottom), iteration 2 ==");
    print!("{}", GanttModel::new(&basic, 2, 2).to_ascii(100));
    print!("{}", GanttModel::new(&opt, 2, 2).to_ascii(100));
    Ok(())
}
