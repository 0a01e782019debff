//! What-if extrapolation: measure once, simulate any machine.
//!
//! Records a *real* single-threaded trace of a kernel on this host,
//! converts the measured per-tile durations into a cost map
//! ([`ezp_simsched::CostMap::from_trace`]), and replays it on simulated
//! machines with 2..12 CPUs under every scheduling policy. This is the
//! glue that makes the paper's speedup methodology (Fig. 6) available
//! to students whose laptop has fewer cores than the lab machine.

use ezp_bench::{banner, paper_schedules, paper_thread_counts};
use ezp_core::kernel::Probe;
use ezp_core::perf::run_kernel;
use ezp_core::{RunConfig, Schedule};
use ezp_monitor::Monitor;
use ezp_simsched::{simulate, CostMap, SimConfig};
use ezp_trace::{Trace, TraceMeta};
use std::sync::Arc;

fn measure(kernel: &str, variant: &str, dim: usize, tile: usize) -> Trace {
    let cfg = RunConfig::new(kernel)
        .variant(variant)
        .size(dim)
        .tile(tile)
        .iterations(1)
        .threads(1)
        .schedule(Schedule::Dynamic(1));
    let reg = ezp_kernels::registry();
    let monitor = Arc::new(Monitor::new(1, cfg.grid().unwrap()));
    run_kernel(&reg, cfg.clone(), monitor.clone() as Arc<dyn Probe>).unwrap();
    Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report())
}

fn main() {
    banner("what-if", "measured trace -> simulated machines");
    for (kernel, variant, dim, tile) in [
        ("mandel", "tiled", 512usize, 16usize),
        ("blur", "omp_tiled_opt", 512, 32),
    ] {
        println!("\n== {kernel}/{variant} {dim}x{dim}, tiles {tile}x{tile} (measured on this host, 1 thread) ==");
        let trace = measure(kernel, variant, dim, tile);
        let costs = CostMap::from_trace(&trace, 1).expect("geometry is valid");
        println!(
            "measured sequential time {} over {} tiles, imbalance cv {:.2}",
            ezp_core::time::format_duration_ns(costs.total()),
            costs.len(),
            costs.imbalance_cv()
        );
        print!("{:>24}", "threads:");
        for t in paper_thread_counts() {
            print!("{t:>7}");
        }
        println!();
        for schedule in paper_schedules() {
            print!("{:>24}", schedule.as_omp_str());
            for threads in paper_thread_counts() {
                let sim = simulate(&costs, SimConfig::new(threads, schedule).overhead(200));
                print!(
                    "{:>7.2}",
                    costs.total() as f64 / sim.makespan_ns.max(1) as f64
                );
            }
            println!();
        }
    }
    println!(
        "\n(mandel: imbalanced -> static falls behind; blur: near-uniform\n\
         tiles -> every policy scales, the Fig. 6 contrast from measured data)"
    );
}
