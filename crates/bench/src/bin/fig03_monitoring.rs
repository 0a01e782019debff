//! Fig. 3 — the monitoring windows under a static schedule.
//!
//! "In Fig. 3, we clearly observe a load imbalance between CPUs. The
//! static distribution of tiles is indeed inappropriate because the
//! large black area ... involves much more computations than other
//! areas." This binary reruns that session: mandel `omp_tiled`,
//! `schedule(static)`, monitoring on, and prints the Activity Monitor
//! (per-CPU loads + cumulated idleness) and Tiling window, plus the
//! imbalance numbers that the paper reads off the screen.

use ezp_bench::{banner, mandel_cost_map};
use ezp_core::Schedule;
use ezp_simsched::{simulate_iterations, SimConfig};

fn main() {
    banner("Fig. 3", "Activity Monitor + Tiling window, mandel static");
    let dim = 512;
    let tile = 32;
    let threads = 6;
    let costs = mandel_cost_map(dim, tile, 512);
    println!(
        "workload: mandel {dim}x{dim}, tiles {tile}x{tile}, {threads} CPUs, schedule(static)\n"
    );

    let sim = simulate_iterations(&costs, SimConfig::new(threads, Schedule::Static), 3);
    let report = sim.to_report(&costs, "mandel", "omp_tiled");

    println!("--- Activity Monitor ---");
    print!("{}", ezp_monitor::activity::render_report(&report));

    let snap = report.tiling_snapshot(1);
    println!("\n--- Tiling window (iteration 1) ---");
    print!("{}", snap.to_ascii());

    let stats = report.iteration_stats(1).unwrap();
    let loads: Vec<String> = (0..threads)
        .map(|w| format!("{:.0}%", stats.load(w) * 100.0))
        .collect();
    println!("\nper-CPU load: {}", loads.join(" "));
    println!("imbalance (max/mean busy): {:.2}", stats.imbalance());
    println!(
        "\npaper's observation: static chunks give the CPUs owning the black\n\
         area far more work — the load bars above should be visibly uneven\n\
         (imbalance well above 1.0). Speedup at {threads} CPUs: {:.2} (ideal {threads}).",
        sim.speedup()
    );
}
