//! Integration of the virtual-time simulator with the rest of the
//! framework, and the sweep→CSV→plot pipeline of §II-C.

use easypap::kernels::mandel;
use easypap::plot::Dataset;
use easypap::prelude::*;
use easypap::view::patterns;

/// The simulator and the real scheduler share the dispensers, so the
/// *static* policy must produce the identical tile→worker assignment in
/// both worlds (dynamic policies are timing-dependent by design).
#[test]
fn sim_static_assignment_matches_real_scheduler() {
    use easypap::core::kernel::Probe;
    use easypap::monitor::Monitor;
    use easypap::sched::{parallel_for_tiles, WorkerPool};
    use std::sync::Arc;

    let grid = TileGrid::square(64, 16).unwrap();
    let threads = 4;

    // real execution under the monitor
    let monitor = Arc::new(Monitor::new(threads, grid));
    monitor.iteration_start(1);
    let mut pool = WorkerPool::new(threads);
    parallel_for_tiles(
        Some(&mut pool),
        &grid,
        Schedule::Static,
        &*monitor,
        |_, _| {},
    );
    monitor.iteration_end(1);
    let real = monitor.report().tiling_snapshot(1);

    // simulated execution over a uniform cost map
    let costs = CostMap::uniform(grid, 10);
    let sim = simulate(&costs, SimConfig::new(threads, Schedule::Static))
        .to_report(&costs, "spin", "omp_tiled")
        .tiling_snapshot(1);

    assert_eq!(sim.computed_tiles(), grid.len());
    assert_eq!(sim.owners(), real.owners(), "static assignment differs");
}

/// Fig. 8 reproduced end to end: a mandel cost map under `dynamic,1`
/// with small tiles produces same-color stripes in the cheap region and
/// a near-cyclic distribution in the uniformly-expensive region.
#[test]
fn fig8_patterns_emerge_from_simulated_dynamic_schedule() {
    let dim = 256;
    let view = mandel::Viewport::default();
    let grid = TileGrid::square(dim, 8).unwrap(); // small tiles, 32x32 grid
                                                  // a high iteration cap makes interior tiles vastly heavier than
                                                  // exterior ones — the imbalance regime where Fig. 8's stripes appear
    let costs = CostMap::from_fn(grid, |t| mandel::tile_cost(&view, t, dim, 1024).max(1));
    let threads = 6;
    let sim = simulate(
        &costs,
        SimConfig::new(threads, Schedule::Dynamic(1)).overhead(0),
    );
    let report = sim.to_report(&costs, "mandel", "omp_tiled");
    let snap = report.tiling_snapshot(1);

    // pattern 1: some rows of the cheap region are handled by <= 2
    // threads, and long same-thread runs cross the grid
    let stripes = patterns::striped_rows(&snap, 2);
    assert!(stripes > 0, "expected same-color stripes, found none");
    let owners_all = snap.owners().to_vec();
    assert!(
        patterns::max_run_length(&owners_all) >= grid.tiles_x() / 2,
        "expected a same-thread run at least half a row long"
    );

    // pattern 2: inside the most expensive (uniform) region, the
    // distribution is near-cyclic with period = thread count
    let heavy = (costs.max() as f64 * 0.9) as u64;
    let heavy_rows: Vec<usize> = (0..grid.tiles_y())
        .filter(|&ty| (0..grid.tiles_x()).all(|tx| costs.cost_at(tx, ty) >= heavy))
        .collect();
    if heavy_rows.len() >= 2 {
        let owners: Vec<Option<usize>> = heavy_rows
            .iter()
            .flat_map(|&ty| (0..grid.tiles_x()).map(move |tx| (tx, ty)))
            .map(|(tx, ty)| snap.owner(tx, ty))
            .collect();
        let score = patterns::cyclic_score(&owners, threads);
        assert!(
            score > 0.5,
            "uniform-cost region should be near-cyclic, score {score:.2}"
        );
    }
}

/// §II-C end to end: sweep → CSV → dataset with auto legend → speedup.
#[test]
fn sweep_csv_plot_pipeline() {
    use easypap::exp::Sweep;
    let csv = std::env::temp_dir().join(format!("ezp_it_sweep_{}.csv", std::process::id()));
    std::fs::remove_file(&csv).ok();
    Sweep::new()
        .fixed("--kernel", "invert")
        .fixed("--variant", "omp")
        .fixed("--size", 64)
        .fixed("--tile-size", 16)
        .set("--threads", [1, 2])
        .set("--schedule", ["static", "dynamic,2"])
        .runs(2)
        .execute(&easypap::kernels::registry(), &csv)
        .unwrap();

    let table = Sweep::load_results(&csv).unwrap();
    assert_eq!(table.len(), 2 * 2 * 2);
    let data = Dataset::from_table(&table, "threads", "time_us", &["run"]).unwrap();
    // constants factored: kernel, variant, dim, tile...
    assert!(data
        .constants
        .iter()
        .any(|(k, v)| k == "kernel" && v == "invert"));
    // legend: exactly the two schedules
    assert_eq!(data.series.len(), 2);
    assert!(data.series.iter().all(|s| s.label.starts_with("schedule=")));
    // speedup transform keeps the point count
    let speedup = data.into_speedup(1000.0);
    assert!(speedup.series.iter().all(|s| s.points.len() == 2));
    let ascii = easypap::plot::render_ascii(&speedup, 40, 10);
    assert!(ascii.contains("legend:"));
    std::fs::remove_file(&csv).unwrap();
}

/// The simulated makespan honours the classic scheduling bounds for the
/// real mandel workload at every paper thread count.
#[test]
fn fig6_simulation_respects_scheduling_theory() {
    let dim = 128;
    let view = mandel::Viewport::default();
    let grid = TileGrid::square(dim, 16).unwrap();
    let costs = CostMap::from_fn(grid, |t| mandel::tile_cost(&view, t, dim, 128));
    let total = costs.total();
    let cmax = costs.max();
    for threads in [2, 4, 6, 8, 10, 12] {
        for schedule in Schedule::paper_policies() {
            let sim = simulate(&costs, SimConfig::new(threads, schedule).overhead(0));
            assert!(
                sim.makespan_ns >= total.div_ceil(threads as u64),
                "{schedule:?}"
            );
            assert!(sim.makespan_ns >= cmax, "{schedule:?}");
            assert!(sim.makespan_ns <= total, "{schedule:?}");
            // dynamic with unit chunks is within 2x of the greedy bound
            if schedule == Schedule::Dynamic(2) {
                let greedy_bound = total / threads as u64 + cmax;
                assert!(
                    sim.makespan_ns <= greedy_bound,
                    "dynamic exceeded the Graham bound at P={threads}"
                );
            }
        }
    }
}

/// The greedy bound of one-tile-per-claim list scheduling,
/// `total/P + max`, holds for both adaptive policies on a fine-grained
/// mandel map (see `ezp_sched::dispenser`). `dynamic,1` claims several
/// tiles at once while the loop is long, but a claim never exceeds
/// 1/(16 P) of what is left and the last 16 P claims are single tiles.
/// `nonmonotonic:dynamic,1` starts from static blocks, and a thief
/// publishes the half it stole, so a later thief can split that half
/// again instead of running dry while the first one holds the interior.
#[test]
fn batched_and_stealing_claims_stay_within_the_graham_bound() {
    let dim = 1024;
    let view = mandel::Viewport::default();
    let grid = TileGrid::square(dim, 8).unwrap(); // 128x128 tiles
    let costs = CostMap::from_fn(grid, |t| mandel::tile_cost(&view, t, dim, 256).max(1));
    for threads in [2, 6, 12] {
        let bound = costs.total() / threads as u64 + costs.max();
        for schedule in [Schedule::Dynamic(1), Schedule::NonmonotonicDynamic(1)] {
            let sim = simulate(&costs, SimConfig::new(threads, schedule).overhead(0));
            assert!(
                sim.makespan_ns <= bound,
                "{schedule:?} at P={threads}: makespan {} above total/P + max = {bound}",
                sim.makespan_ns
            );
        }
    }
}
