//! Failure injection: the framework must fail loudly and recover
//! cleanly, never hang or corrupt state — the property that makes it
//! usable as a teaching tool where student kernels crash all the time.

use easypap::core::error::Result as EzpResult;
use easypap::core::kernel::NullProbe;
use easypap::core::perf::run_kernel;
use easypap::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// A kernel whose tiles panic on demand.
struct Crashy {
    /// Panic when computing the tile containing this pixel.
    poison: Option<(usize, usize)>,
}

impl Kernel for Crashy {
    fn name(&self) -> &'static str {
        "crashy"
    }
    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "omp_tiled"]
    }
    fn init(&mut self, _ctx: &mut KernelCtx) -> EzpResult<()> {
        Ok(())
    }
    fn compute(&mut self, ctx: &mut KernelCtx, _v: &str, nb_iter: u32) -> EzpResult<Option<u32>> {
        let grid = ctx.grid;
        let poison = self.poison;
        let mut pool = easypap::sched::WorkerPool::new(ctx.threads());
        for it in 1..=nb_iter {
            ctx.probe.iteration_start(it);
            easypap::sched::parallel_for_tiles(
                &mut pool,
                &grid,
                ctx.cfg.schedule,
                &*ctx.probe,
                |tile, _| {
                    if let Some((px, py)) = poison {
                        if tile.contains(px, py) {
                            panic!("student bug in tile ({}, {})", tile.x, tile.y);
                        }
                    }
                },
            );
            ctx.probe.iteration_end(it);
        }
        Ok(None)
    }
}

fn crashy_registry() -> Registry {
    let mut r = Registry::new();
    r.register("crashy", || Box::new(Crashy { poison: Some((0, 0)) }));
    r.register("healthy", || Box::new(Crashy { poison: None }));
    r
}

#[test]
fn panicking_tile_function_is_reported_not_hung() {
    let reg = crashy_registry();
    let cfg = RunConfig::new("crashy")
        .variant("omp_tiled")
        .size(64)
        .tile(16)
        .threads(3)
        .iterations(2);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_kernel(&reg, cfg, Arc::new(NullProbe))
    }));
    assert!(result.is_err(), "the worker panic must propagate");
    // and the process is still healthy: a fresh run works
    let ok = run_kernel(
        &reg,
        RunConfig::new("healthy").variant("omp_tiled").size(64).tile(16).threads(3),
        Arc::new(NullProbe),
    );
    assert!(ok.is_ok());
}

#[test]
fn corrupt_trace_files_never_panic() {
    // every byte-level mutilation of a real trace must yield Err
    let trace = {
        let reg = easypap::kernels::registry();
        let cfg = RunConfig::new("invert").variant("omp").size(32).tile(8).threads(2);
        let monitor = Arc::new(Monitor::new(2, cfg.grid().unwrap()));
        run_kernel(&reg, cfg.clone(), monitor.clone() as Arc<dyn easypap::core::kernel::Probe>)
            .unwrap();
        Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report())
    };
    let bytes = easypap::trace::io::to_bytes(&trace).unwrap();
    // truncations
    for cut in (0..bytes.len()).step_by(7) {
        let r = std::panic::catch_unwind(|| easypap::trace::io::from_bytes(&bytes[..cut]));
        assert!(matches!(r, Ok(Err(_))), "truncation at {cut} did not error cleanly");
    }
    // single-byte corruptions (sampled)
    for pos in (0..bytes.len()).step_by(11) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xff;
        let r = std::panic::catch_unwind(move || {
            easypap::trace::io::from_bytes(&bad).ok();
        });
        assert!(r.is_ok(), "corruption at {pos} panicked");
    }
}

#[test]
fn invalid_configurations_error_before_any_work() {
    let reg = easypap::kernels::registry();
    for cfg in [
        RunConfig::new("mandel").size(0),
        RunConfig::new("mandel").tile(0),
        RunConfig::new("mandel").size(8).tile(64),
        RunConfig::new("mandel").threads(0),
        RunConfig::new("nonexistent-kernel"),
        RunConfig::new("mandel").variant("nonexistent-variant"),
    ] {
        assert!(
            run_kernel(&reg, cfg.clone(), Arc::new(NullProbe)).is_err(),
            "config {cfg:?} should have been rejected"
        );
    }
}

#[test]
fn zero_iterations_complete_instantly_everywhere() {
    let reg = easypap::kernels::registry();
    for kernel in ["mandel", "blur", "life", "sandpile", "heat"] {
        let cfg = RunConfig::new(kernel).size(32).tile(8).threads(2).iterations(0);
        let (outcome, _) = run_kernel(&reg, cfg, Arc::new(NullProbe)).unwrap();
        assert_eq!(outcome.completed_iterations, 0, "{kernel}");
    }
}

#[test]
fn mpi_rank_crash_surfaces_as_error() {
    let result = easypap::mpi::run(2, |comm| -> easypap::core::Result<()> {
        if comm.rank() == 1 {
            panic!("rank 1 dies");
        }
        // rank 0 may or may not get to communicate; either way the world
        // must shut down with an error, not a hang
        comm.send(1, 0, &1u32).ok();
        Ok(())
    });
    assert!(result.is_err());
}

#[test]
fn cyclic_task_graph_from_user_code_is_reported() {
    let mut g = TaskGraph::new(4);
    g.add_dep(0, 1);
    g.add_dep(1, 2);
    g.add_dep(2, 1); // cycle 1 <-> 2
    let mut pool = WorkerPool::new(2);
    let err = g.run(&mut pool, |_, _| {}).unwrap_err();
    assert!(err.to_string().contains("cycle"));
    // pool remains usable
    let ok = TaskGraph::new(3).run(&mut pool, |_, _| {});
    assert!(ok.is_ok());
}
