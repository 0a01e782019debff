//! Fig. 10 — trace comparison: basic vs optimized blur.
//!
//! "This later version is approximately 3 times faster in this setup
//! (iteration 3 with the basic version is as long as iterations [7..9]
//! with the optimized version)... many tasks are approximately 10 times
//! faster than their original version... short durations do always
//! correspond to inner tiles." Real wall-clock measurement (run with
//! `--release`; absolute factors depend on the host's vectorizer, the
//! *direction* and the inner-tile attribution are the reproduced shape).

use ezp_bench::banner;
use ezp_core::kernel::Probe;
use ezp_core::perf::run_kernel;
use ezp_core::{RunConfig, Schedule};
use ezp_monitor::Monitor;
use ezp_trace::{Trace, TraceMeta};
use ezp_view::{GanttModel, TraceComparison};
use std::sync::Arc;

fn traced(variant: &str, dim: usize, tile: usize, iters: u32) -> Trace {
    let cfg = RunConfig::new("blur")
        .variant(variant)
        .size(dim)
        .tile(tile)
        .iterations(iters)
        .threads(2)
        .schedule(Schedule::Dynamic(2));
    let reg = ezp_kernels::registry();
    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid().unwrap()));
    run_kernel(&reg, cfg.clone(), monitor.clone() as Arc<dyn Probe>).unwrap();
    Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report())
}

fn main() {
    banner("Fig. 10", "blur basic vs optimized trace comparison");
    let (dim, tile, iters) = (1024, 32, 9);
    println!("workload: blur {dim}x{dim}, tiles {tile}x{tile}, {iters} iterations, 2 threads\n");

    let basic = traced("omp_tiled", dim, tile, iters);
    let opt = traced("omp_tiled_opt", dim, tile, iters);
    let cmp = TraceComparison::new(&basic, &opt).unwrap();

    println!("{}\n", cmp.summary());
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "iteration", "basic", "optimized", "ratio"
    );
    for (it, b, o) in cmp.per_iteration() {
        println!(
            "{:>10} {:>12} {:>12} {:>7.2}x",
            it,
            ezp_core::time::format_duration_ns(b),
            ezp_core::time::format_duration_ns(o),
            b as f64 / o.max(1) as f64
        );
    }

    // the ">= 5x faster tasks are inner tiles" claim
    let grid = basic.meta.grid().unwrap();
    for threshold in [3.0, 5.0, 10.0] {
        let fast = cmp.tasks_faster_than(threshold);
        let inner = fast
            .iter()
            .filter(|t| !grid.tile_of_pixel(t.x, t.y).is_border(&grid))
            .count();
        println!(
            "tasks >= {threshold:>4.1}x faster: {:>4}   of which inner tiles: {:>4} ({:.0}%)",
            fast.len(),
            inner,
            if fast.is_empty() {
                0.0
            } else {
                100.0 * inner as f64 / fast.len() as f64
            }
        );
    }

    // the paper's specific cross-check: iteration 3 basic ~= iterations 7..9 optimized
    let b3 = cmp
        .per_iteration()
        .iter()
        .find(|(it, _, _)| *it == 3)
        .map(|&(_, b, _)| b)
        .unwrap_or(0);
    let o789: u64 = cmp
        .per_iteration()
        .iter()
        .filter(|(it, _, _)| (7..=9).contains(it))
        .map(|&(_, _, o)| o)
        .sum();
    println!(
        "\npaper's caption check: basic iteration 3 = {}, optimized iterations 7..9 = {} (ratio {:.2})",
        ezp_core::time::format_duration_ns(b3),
        ezp_core::time::format_duration_ns(o789),
        b3 as f64 / o789.max(1) as f64
    );

    // stacked Gantt charts, like the figure
    println!("\n--- basic, iterations 7..9 ---");
    print!("{}", GanttModel::new(&basic, 7, 9).to_ascii(100));
    println!("--- optimized, iterations 7..9 ---");
    print!("{}", GanttModel::new(&opt, 7, 9).to_ascii(100));
    ezp_trace::io::save(&basic, "fig10_basic.ezv").unwrap();
    ezp_trace::io::save(&opt, "fig10_opt.ezv").unwrap();
    println!("traces -> fig10_basic.ezv / fig10_opt.ezv (explore with easyview --compare)");
}
