//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Three sweeps, all deterministic (virtual time over the exact mandel
//! cost map):
//!
//! 1. **dispatch overhead × chunk size** — why `dynamic,1` is not free:
//!    the per-chunk cost the simulator's `dispatch_overhead_ns` models
//!    eats the balancing gains when chunks get tiny;
//! 2. **steal granularity** — the `nonmonotonic:dynamic` work-stealing
//!    chunk (`k`): steal-half-ranges with local chunks of `k`;
//! 3. **tile size (grain)** — the Fig. 6 grain-16-vs-32 contrast pushed
//!    across the whole range: too-coarse tiles can't balance, too-fine
//!    tiles drown in dispatch overhead.

use ezp_bench::{banner, mandel_cost_map};
use ezp_core::Schedule;
use ezp_simsched::{simulate, SimConfig};

fn main() {
    banner("ablation", "scheduling design-choice sweeps (virtual time)");
    let dim = 512;
    let threads = 8;

    // 1) dispatch overhead x dynamic chunk size
    println!("== 1) speedup of dynamic,k under per-chunk dispatch overhead (P={threads}) ==");
    let costs = mandel_cost_map(dim, 16, 512);
    print!("{:>14}", "overhead\\k:");
    let chunks = [1usize, 2, 4, 8, 16];
    for k in chunks {
        print!("{k:>8}");
    }
    println!();
    for overhead in [0u64, 100, 500, 2000, 10000] {
        print!("{overhead:>12}ns");
        for k in chunks {
            let sim = simulate(
                &costs,
                SimConfig::new(threads, Schedule::Dynamic(k)).overhead(overhead),
            );
            print!("{:>8.2}", sim.speedup());
        }
        println!();
    }
    println!("(read: with costly dispatch, bigger chunks win; at zero overhead, the smallest chunks (k <= 2) win)\n");

    // 2) steal granularity for nonmonotonic:dynamic
    println!("== 2) nonmonotonic:dynamic steal/local chunk k (P={threads}, overhead 200ns) ==");
    for k in [1usize, 2, 4, 8, 16, 32] {
        let sim = simulate(
            &costs,
            SimConfig::new(threads, Schedule::NonmonotonicDynamic(k)).overhead(200),
        );
        println!("  k={k:<3} speedup {:.2}", sim.speedup());
    }
    println!();

    // 3) tile size (grain) sweep at fixed schedule
    println!("== 3) grain sweep, dynamic,2 with 200ns dispatch overhead (P={threads}) ==");
    println!(
        "{:>8} {:>8} {:>10} {:>8}",
        "grain", "tiles", "imbal(cv)", "speedup"
    );
    for grain in [8usize, 16, 32, 64, 128, 256] {
        let costs = mandel_cost_map(dim, grain, 512);
        let sim = simulate(
            &costs,
            SimConfig::new(threads, Schedule::Dynamic(2)).overhead(200),
        );
        println!(
            "{grain:>8} {:>8} {:>10.2} {:>8.2}",
            costs.len(),
            costs.imbalance_cv(),
            sim.speedup()
        );
    }
    println!(
        "(the sweet spot sits between \"enough tiles to balance\" and \"not so\n\
         many that dispatch dominates\" — the trade-off behind the paper's\n\
         grain-16-vs-32 panels)"
    );
}
