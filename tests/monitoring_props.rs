//! Property tests spanning kernels × scheduler × monitor: whatever the
//! configuration, the monitoring data obeys the framework invariants.

mod common;

use easypap::core::kernel::Probe;
use easypap::core::perf::run_kernel;
use easypap::prelude::*;
use ezp_testkit::ezp_proptest;
use ezp_testkit::prop::{any_u64, select, Strategy, StrategyExt};
use std::sync::Arc;

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (0usize..5, 1usize..5).prop_map(|(which, k)| match which {
        0 => Schedule::Static,
        1 => Schedule::StaticChunk(k),
        2 => Schedule::Dynamic(k),
        3 => Schedule::Guided(k),
        _ => Schedule::NonmonotonicDynamic(k),
    })
}

ezp_proptest! {
    #![cases(12)]

    /// For any geometry/schedule/threads, a monitored mandel run records
    /// exactly one task per tile per iteration, with sane timestamps and
    /// worker ranks, and the tiling snapshot is complete.
    fn monitored_runs_are_complete_and_sane(
        dim_tiles in 2usize..6,
        tile in select(vec![8usize, 12, 16]),
        threads in 1usize..5,
        iters in 1u32..4,
        schedule in schedule_strategy(),
    ) {
        let dim = dim_tiles * tile;
        let reg = easypap::kernels::registry();
        let cfg = RunConfig::new("mandel")
            .variant("omp_tiled")
            .size(dim)
            .tile(tile)
            .iterations(iters)
            .threads(threads)
            .schedule(schedule);
        let grid = cfg.grid().unwrap();
        let monitor = Arc::new(Monitor::new(threads, grid));
        run_kernel(&reg, cfg, monitor.clone() as Arc<dyn Probe>).unwrap();
        let report = monitor.report();

        assert_eq!(report.iterations.len(), iters as usize);
        assert_eq!(report.records.len(), grid.len() * iters as usize);
        for r in &report.records {
            assert!(r.worker < threads);
            assert!(r.end_ns >= r.start_ns);
            assert!((1..=iters).contains(&r.iteration));
        }
        for it in 1..=iters {
            let snap = report.tiling_snapshot(it);
            assert_eq!(snap.computed_tiles(), grid.len());
            let stats = report.iteration_stats(it).unwrap();
            assert_eq!(stats.tiles.iter().sum::<usize>(), grid.len());
            // per-worker busy time never exceeds the iteration span by
            // more than scheduling jitter (tasks are within the span)
            for w in 0..threads {
                assert!(stats.load(w) <= 1.0);
            }
        }
        // trace conversion + validation always succeeds
        let trace = Trace::from_report(
            TraceMeta {
                kernel: "mandel".into(),
                variant: "omp_tiled".into(),
                dim,
                tile_size: tile,
                threads,
                schedule: schedule.as_omp_str(),
                label: "prop".into(),
            },
            &report,
        );
        assert!(trace.validate().is_ok());
        // binary round trip
        let bytes = easypap::trace::io::to_bytes(&trace).unwrap();
        assert_eq!(easypap::trace::io::from_bytes(&bytes).unwrap(), trace);
    }

    /// Life variants agree with seq on random boards under any schedule.
    fn life_variants_agree_under_any_schedule(
        seed in any_u64(),
        schedule in schedule_strategy(),
        threads in 1usize..4,
    ) {
        let reg = easypap::kernels::registry();
        let run = |variant: &str, schedule: Schedule, threads: usize| {
            let mut cfg = RunConfig::new("life")
                .variant(variant)
                .size(48)
                .tile(16)
                .iterations(4)
                .threads(threads)
                .schedule(schedule);
            cfg.seed = seed;
            cfg.kernel_arg = Some("random:0.3".into());
            if variant == "mpi_omp" {
                cfg.mpi_ranks = 2;
            }
            let (_, ctx) = run_kernel(&reg, cfg, Arc::new(easypap::core::kernel::NullProbe)).unwrap();
            ctx.images.cur().as_slice().to_vec()
        };
        let reference = run("seq", Schedule::Static, 1);
        assert_eq!(run("omp_tiled", schedule, threads), reference.clone());
        assert_eq!(run("lazy", schedule, threads), reference.clone());
        assert_eq!(run("mpi_omp", schedule, threads), reference);
    }

    /// Simulated executions of arbitrary cost maps convert into valid,
    /// analyzable traces whatever the policy.
    fn simulated_traces_are_always_valid(
        seed in any_u64(),
        threads in 1usize..8,
        iters in 1u32..4,
        schedule in schedule_strategy(),
    ) {
        let grid = TileGrid::square(64, 16).unwrap();
        let mut state = seed;
        let costs = CostMap::from_fn(grid, |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            1 + (state >> 33) % 1000
        });
        let sim = simulate_iterations(&costs, SimConfig::new(threads, schedule), iters);
        let trace = sim.to_trace(&costs, "synthetic", "sim");
        assert!(trace.validate().is_ok());
        assert_eq!(trace.tasks.len(), grid.len() * iters as usize);
        let report = trace.to_report().unwrap();
        for it in 1..=iters {
            assert_eq!(report.tiling_snapshot(it).computed_tiles(), grid.len());
        }
        // speedup is bounded by thread count
        assert!(sim.speedup() <= threads as f64 + 1e-9);
    }
}

/// Every (kernel, variant) the framework runs reports its tiles inside
/// the iteration spans it opens, whoever writes the loop: one span per
/// completed iteration, every record in one of them, on a real worker,
/// with sane clocks — and a sequential row on worker 0 alone. `life
/// mpi_omp` is left out: its ranks record into monitors of their own.
#[test]
fn every_variant_reports_its_tiles_inside_its_iterations() {
    // the rows whose tables declare them sequential (`Body::Seq`)
    let seq_rows = [
        ("mandel", "seq"),
        ("mandel", "tiled"),
        ("mandel", "gpu"),
        ("blur", "seq"),
        ("life", "seq"),
        ("ccomp", "seq"),
        ("sandpile", "seq"),
        ("sandpile", "async"),
        ("heat", "seq"),
        ("rotate90", "seq"),
        ("scrollup", "seq"),
        ("transpose", "seq"),
        ("invert", "seq"),
        ("invert", "gpu"),
        ("pixelize", "seq"),
        ("spin", "seq"),
    ];
    let reg = easypap::kernels::registry();
    let threads = 2;
    let mut seq_seen = 0;
    for case in common::cases() {
        for variant in reg.create(case.kernel).unwrap().variants() {
            if (case.kernel, variant) == ("life", "mpi_omp") {
                continue;
            }
            let row = format!("{} {variant}", case.kernel);
            let cfg = RunConfig::new(case.kernel)
                .variant(variant)
                .size(case.dim)
                .tile(case.tile)
                .iterations(case.iters.min(3))
                .threads(threads);
            let monitor = Arc::new(Monitor::new(threads, cfg.grid().unwrap()));
            let (outcome, _) = run_kernel(&reg, cfg, monitor.clone() as Arc<dyn Probe>).unwrap();
            let report = monitor.report();
            let iters = outcome.completed_iterations;
            assert_eq!(report.iterations.len(), iters as usize, "{row}");
            assert!(!report.records.is_empty(), "{row} reported no tile");
            for r in &report.records {
                assert!((1..=iters).contains(&r.iteration), "{row}: {r:?}");
                assert!(r.worker < threads, "{row}: {r:?}");
                assert!(r.start_ns <= r.end_ns, "{row}: {r:?}");
            }
            if seq_rows.contains(&(case.kernel, variant)) {
                seq_seen += 1;
                assert!(
                    report.records.iter().all(|r| r.worker == 0),
                    "{row} left worker 0"
                );
            }
        }
    }
    assert_eq!(
        seq_seen,
        seq_rows.len(),
        "a sequential row above is not registered"
    );
}

/// A kernel holds the next image exactly when it double-buffers: every
/// registered (kernel, variant) row claims `next` in `init`, before the
/// clock, when one `compute(.., 1)` writes or swaps it, and otherwise
/// never allocates it; `compute` itself never creates it. The in-place
/// kernels are named, so a kernel that starts double-buffering, or one
/// that stops claiming `next`, fails here by name.
#[test]
fn next_is_claimed_in_init_exactly_where_compute_uses_it() {
    // they paint `cur` in place; their `gpu` rows double-buffer
    let in_place = [
        "mandel", "heat", "sandpile", "spin", "invert", "ccomp", "life",
    ];
    let reg = easypap::kernels::registry();
    let mut rows = 0;
    for case in common::cases() {
        for variant in reg.create(case.kernel).unwrap().variants() {
            let row = format!("{} {variant}", case.kernel);
            let mut cfg = RunConfig::new(case.kernel)
                .variant(variant)
                .size(case.dim)
                .tile(case.tile)
                .threads(2);
            if variant == "mpi_omp" {
                cfg.mpi_ranks = 2;
            }
            let mut kernel = reg.create_variant(case.kernel, variant).unwrap();
            let mut ctx = KernelCtx::new(cfg).unwrap();
            kernel.init(&mut ctx).unwrap();
            let claimed = ctx.images.has_next();
            let cur_at = ctx.images.cur().as_slice().as_ptr();
            let next_before = claimed.then(|| ctx.images.next_mut().clone());
            kernel.compute(&mut ctx, variant, 1).unwrap();
            assert_eq!(
                ctx.images.has_next(),
                claimed,
                "{row}: compute created the next image, on the clock"
            );
            let swapped = ctx.images.cur().as_slice().as_ptr() != cur_at;
            let used = swapped || next_before.is_some_and(|n| *ctx.images.next_mut() != n);
            let double_buffers = !in_place.contains(&case.kernel) || variant == "gpu";
            assert_eq!(used, double_buffers, "{row}: does compute use next?");
            assert_eq!(claimed, double_buffers, "{row}: does init claim next?");
            rows += 1;
        }
    }
    assert!(rows > in_place.len(), "only {rows} rows ran");
}
