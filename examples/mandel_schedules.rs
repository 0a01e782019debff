//! The Mandelbrot scheduling study (paper §III-A, Fig. 4 and Fig. 6).
//!
//! Students' first real assignment: find the scheduling policy / tile
//! size combination that balances the wildly non-uniform Mandelbrot
//! workload. This example reproduces both figures deterministically via
//! the virtual-time simulator (the policies and the per-tile costs are
//! exact; only time is virtual — see DESIGN.md):
//!
//! * the **tiling windows** of Fig. 4: who computed which tile under
//!   static / dynamic,2 / nonmonotonic:dynamic / guided;
//! * the **speedup curves** of Fig. 6: threads 2..12, grain 16 and 32.
//!
//! Run with: `cargo run --release --example mandel_schedules`

use easypap::kernels::mandel;
use easypap::prelude::*;
use easypap::simsched::speedup_curve;
use easypap::view::patterns;

fn main() -> easypap::core::Result<()> {
    let dim = 512;
    let max_iter = 256;
    let view = mandel::Viewport::default();

    // ---- Fig. 4: tile ownership maps at P = 6 -------------------------
    println!("== Fig. 4: tile -> thread maps (mandel {dim}x{dim}, tiles 32x32, 6 threads) ==");
    let grid = TileGrid::square(dim, dim / 16)?; // 16x16 tiles
    let costs = CostMap::from_fn(grid, |t| mandel::tile_cost(&view, t, dim, max_iter));
    for schedule in Schedule::paper_policies() {
        let sim = simulate(&costs, SimConfig::new(6, schedule));
        let report = sim.to_report(&costs, "mandel", "omp_tiled");
        let snap = report.tiling_snapshot(1);
        println!("\n--- schedule({schedule}) ---");
        print!("{}", snap.to_ascii());
        let owners = snap.owners().to_vec();
        println!(
            "speedup {:.2} | max same-thread run {} | cyclic score (period 6) {:.2}",
            sim.speedup(),
            patterns::max_run_length(&owners),
            patterns::cyclic_score(&owners, 6),
        );
    }

    // ---- Fig. 6: speedup vs threads for grain 16 and 32 ---------------
    let threads: Vec<usize> = (2..=12).step_by(2).collect();
    for grain in [16usize, 32] {
        println!("\n== Fig. 6: speedup vs threads (grain = {grain}) ==");
        let grid = TileGrid::square(dim, grain)?;
        let costs = CostMap::from_fn(grid, |t| mandel::tile_cost(&view, t, dim, max_iter));
        print!("{:>24}", "threads:");
        for t in &threads {
            print!("{t:>7}");
        }
        println!();
        for schedule in Schedule::paper_policies() {
            print!("{:>24}", schedule.as_omp_str());
            for p in speedup_curve(&costs, schedule, &threads, 10, 200) {
                print!("{:>7.2}", p.speedup);
            }
            println!();
        }
    }
    println!("\n(the paper's shape: dynamic/nonmonotonic > guided > static under imbalance)");
    Ok(())
}
