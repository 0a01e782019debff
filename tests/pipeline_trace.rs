//! End-to-end pipeline: kernel → monitor → trace file → EASYVIEW.
//!
//! This is the paper's §II-D workflow as one integration test: run an
//! instrumented kernel, record the trace, write it to disk, read it
//! back, and drive every exploration feature on it.

use easypap::core::kernel::Probe;
use easypap::core::perf::run_kernel;
use easypap::prelude::*;
use std::sync::Arc;

fn traced_run(
    threads: usize,
    kernel: &str,
    variant: &str,
    dim: usize,
    tile: usize,
    iters: u32,
) -> Trace {
    let reg = easypap::kernels::registry();
    let cfg = RunConfig::new(kernel)
        .variant(variant)
        .size(dim)
        .tile(tile)
        .iterations(iters)
        .threads(threads)
        .schedule(Schedule::Dynamic(1));
    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid().unwrap()));
    run_kernel(&reg, cfg.clone(), monitor.clone() as Arc<dyn Probe>).unwrap();
    Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report())
}

#[test]
fn mandel_trace_survives_disk_and_feeds_easyview() {
    let trace = traced_run(2, "mandel", "omp_tiled", 64, 16, 3);
    assert_eq!(trace.iteration_count(), 3);
    assert_eq!(trace.tasks.len(), 3 * 16, "16 tiles per iteration");
    trace.validate().unwrap();

    // disk round trip
    let path = std::env::temp_dir().join(format!("ezp_it_pipeline_{}.ezv", std::process::id()));
    easypap::trace::io::save(&trace, &path).unwrap();
    let loaded = easypap::trace::io::load(&path).unwrap();
    assert_eq!(loaded, trace);
    std::fs::remove_file(&path).unwrap();

    // Gantt: every task is reachable through the vertical mouse mode
    let gantt = GanttModel::new(&loaded, 1, 3);
    assert_eq!(gantt.tasks().len(), 48);
    for task in gantt.tasks() {
        let mid = task.start_ns + task.duration_ns() / 2;
        assert!(
            gantt.tasks_at_time(mid).iter().any(|t| t.x == task.x && t.y == task.y),
            "task at ({},{}) not found under the mouse",
            task.x,
            task.y
        );
        assert!(GanttModel::bubble(task).contains("tile"));
    }

    // horizontal mouse mode: coverage maps of both CPUs partition tiles
    let cov0 = CoverageMap::new(&loaded, 0, 1, 1).unwrap();
    let cov1 = CoverageMap::new(&loaded, 1, 1, 1).unwrap();
    assert_eq!(cov0.covered_tiles() + cov1.covered_tiles(), 16);

    // monitor analyses re-derived post mortem
    let report = loaded.to_report().unwrap();
    let stats = report.iteration_stats(2).unwrap();
    assert_eq!(stats.tiles.iter().sum::<usize>(), 16);
    assert!(stats.load(0) > 0.0 || stats.load(1) > 0.0);
    let snap = report.tiling_snapshot(2);
    assert_eq!(snap.computed_tiles(), 16);
    let heat = report.heat_map(2);
    assert!(heat.max_duration() > 0);

    // the geometry of the ci/verify.sh explain lane: 16-pixel mandel
    // tiles are microseconds long, not a grain problem
    let explained = easypap::view::explain(&loaded).unwrap();
    assert!(
        explained.advice.iter().all(|a| a.rule != "grain-too-fine"),
        "{:?}",
        explained.advice
    );
}

#[test]
fn blur_comparison_pipeline_aligns_tasks_and_shows_border_cost() {
    // Wall-clock ratios across runs, or means within one, are too noisy
    // to assert on a shared host: the timing-shape claims of Fig. 10
    // live in `fig10_blur_compare`. Here: the structural pipeline, then
    // the Fig. 9b signal in a form preemption cannot fake.
    let basic = traced_run(2, "blur", "omp_tiled", 96, 16, 2);
    let opt = traced_run(2, "blur", "omp_tiled_opt", 96, 16, 2);
    let cmp = TraceComparison::new(&basic, &opt).unwrap();
    let speedups = cmp.task_speedups();
    assert_eq!(speedups.len(), 2 * 36, "every task pair must be matched");
    assert!(speedups.iter().all(|s| s.base_ns > 0));
    assert!(cmp.per_iteration().len() == 2);
    let heat = opt.to_report().unwrap().heat_map(2);
    assert!(heat.border_inner_ratio().is_some(), "6x6 grid has inner tiles");

    // Fig. 9b: in the *optimized* trace, border tiles (still running
    // checked code) cost more than the branch-free inner tiles. Being
    // preempted can only lengthen a tile, so the *fastest* tile of each
    // class within one iteration of a one-thread run is that class's
    // undisturbed cost; comparing inside an iteration (~2 ms) keeps a
    // host that changes speed mid-run from skewing one class, and the
    // majority vote absorbs the iteration where it changes.
    const ITERS: u32 = 7;
    let solo = traced_run(1, "blur", "omp_tiled_opt", 96, 16, ITERS);
    let grid = TileGrid::square(96, 16).unwrap();
    let border_wins = (1..=ITERS)
        .filter(|&it| {
            let fastest = |border: bool| {
                solo.tasks_of_iteration(it)
                    .filter(|t| grid.tile_of_pixel(t.x, t.y).is_border(&grid) == border)
                    .map(|t| t.duration_ns())
                    .min()
                    .expect("both tile classes ran")
            };
            fastest(true) > fastest(false)
        })
        .count();
    assert!(
        border_wins > ITERS as usize / 2,
        "optimized border tiles should out-cost inner tiles \
         (did in only {border_wins} of {ITERS} iterations)"
    );
}

#[test]
fn gpu_variants_record_every_work_group_as_a_tile_on_worker_0() {
    // the host runs the work-groups one after another, so that is what
    // the monitor must see; what P compute units would make of them is
    // the replay's answer, not a second scheduler's
    for kernel in ["mandel", "invert"] {
        let trace = traced_run(2, kernel, "gpu", 64, 16, 2);
        trace.validate().unwrap();
        assert_eq!(trace.tasks.len(), 2 * 16, "{kernel}: 16 work-groups per iteration");
        assert!(trace.tasks.iter().all(|t| t.worker == 0), "{kernel}");
        for it in 1..=2 {
            let cov = CoverageMap::new(&trace, 0, it, it).unwrap();
            // 32 tasks in all, so each iteration covers every tile once
            assert_eq!(cov.covered_tiles(), 16, "{kernel}: iteration {it}");
        }
        let explained = easypap::view::explain(&trace).unwrap();
        let at4 = explained.scaling.iter().find(|p| p.threads == 4);
        assert!(at4.is_some_and(|p| p.speedup > 1.0), "{kernel}: {:?}", explained.scaling);
    }
}
