//! The variant runner: EASYPAP's `<kernel>_compute_<variant>` lookup by
//! name (§II-A). A kernel declares one `VARIANTS` table of per-iteration
//! bodies; [`run`] owns what every variant's loop would otherwise repeat
//! by hand — the lookup and its error, the grid, the pool, the iteration
//! spans and the early stop — and the run's iteration count: a span is
//! numbered from `KernelCtx::iterations_done`, which the runner
//! advances, so a run split over several `compute` calls keeps one
//! numbering. Rows that differ only in their [`Grid`] and in running on
//! the pool share one step, and so one tile body.

use ezp_core::error::{Error, Result};
use ezp_core::kernel::Probe;
use ezp_core::{Kernel, KernelCtx, TileGrid};
use ezp_sched::{TileWriter, WorkerPool};
use std::sync::Arc;

/// One iteration over a grid's tiles, on the pool when the runner hands
/// it one. Returns `Ok(true)` when the state is stable: the run stops
/// after that iteration.
pub(crate) type Step<K> =
    fn(&mut K, &mut KernelCtx, &TileGrid, Option<&mut WorkerPool>) -> Result<bool>;

/// The tiles a row's step runs over, built once per `compute`.
#[derive(Clone, Copy)]
pub(crate) enum Grid {
    /// One tile, the whole image: a plain sequential pass.
    Whole,
    /// The run's grid (`--tile-size`).
    Tiles,
    /// Full-width rows one pixel high (`#pragma omp for` over lines).
    Rows,
    /// Full-width bands of `--tile-size` rows.
    Bands,
}

impl Grid {
    fn of(self, ctx: &KernelCtx) -> Result<TileGrid> {
        let dim = ctx.dim();
        match self {
            Grid::Whole => TileGrid::square(dim, dim),
            Grid::Tiles => Ok(ctx.grid),
            Grid::Rows => TileGrid::new(dim, dim, dim, 1),
            Grid::Bands => TileGrid::new(dim, dim, dim, ctx.grid.tile_h()),
        }
    }
}

/// Writes `f(x, y)` to every pixel of `w`'s tile, row by row: the
/// `do_tile` of a kernel that computes each pixel on its own.
#[inline]
pub(crate) fn paint<T: Copy>(w: &TileWriter<'_, '_, T>, mut f: impl FnMut(usize, usize) -> T) {
    let t = w.tile();
    for y in t.y..t.y + t.h {
        for x in t.x..t.x + t.w {
            w.set(x, y, f(x, y));
        }
    }
}

/// What a variant runs.
pub(crate) enum Body<K> {
    /// One step per iteration on the calling thread, with no pool.
    Seq(Grid, Step<K>),
    /// One step per iteration on the run's pool, acquired once per
    /// `compute`.
    Par(Grid, Step<K>),
    /// The whole run, for a variant whose loop is not one step per
    /// iteration on this thread (`life mpi_omp`: every rank iterates).
    Whole(fn(&mut K, &mut KernelCtx, u32) -> Result<Option<u32>>),
}

/// A kernel's variants, in `--list` order, each with its body.
pub(crate) type Table<K> = [(&'static str, Body<K>)];

/// The variant names of `table` (`Kernel::variants`).
pub(crate) fn names<K>(table: &Table<K>) -> Vec<&'static str> {
    table.iter().map(|(name, _)| *name).collect()
}

/// Runs `nb_iter` iterations of `variant` (`Kernel::compute`). Only a
/// `Par` row acquires a pool: a sequential run never spawns one.
pub(crate) fn run<K: Kernel>(
    k: &mut K,
    ctx: &mut KernelCtx,
    table: &Table<K>,
    variant: &str,
    nb_iter: u32,
) -> Result<Option<u32>> {
    let Some((_, body)) = table.iter().find(|(name, _)| *name == variant) else {
        return Err(Error::UnknownKernel {
            kernel: k.name().into(),
            variant: variant.into(),
        });
    };
    let (probe, done) = (Arc::clone(&ctx.probe), ctx.iterations_done);
    let converged = match body {
        Body::Seq(grid, step) => {
            let grid = grid.of(ctx)?;
            iterate(&*probe, done, nb_iter, || step(k, ctx, &grid, None))
        }
        Body::Par(grid, step) => {
            let grid = grid.of(ctx)?;
            iterate_on_pool(&*probe, ctx.threads(), done, nb_iter, |pool| {
                step(k, ctx, &grid, Some(pool))
            })
        }
        Body::Whole(whole) => whole(k, ctx, nb_iter),
    }?;
    ctx.iterations_done += converged.unwrap_or(nb_iter);
    Ok(converged)
}

/// Runs `step` for iterations `done + 1..=done + nb_iter`, each inside
/// its `iteration_start`/`iteration_end` span, and returns `Some(it)`,
/// counted from the call, for the first iteration whose step reports
/// stable (its span closed too).
pub(crate) fn iterate(
    probe: &dyn Probe,
    done: u32,
    nb_iter: u32,
    mut step: impl FnMut() -> Result<bool>,
) -> Result<Option<u32>> {
    for it in 1..=nb_iter {
        probe.iteration_start(done + it);
        let stable = step()?;
        probe.iteration_end(done + it);
        if stable {
            return Ok(Some(it));
        }
    }
    Ok(None)
}

/// [`iterate`] with every step on one pool of `threads` workers: the
/// thread's installed shared pool when there is one, else its own.
pub(crate) fn iterate_on_pool(
    probe: &dyn Probe,
    threads: usize,
    done: u32,
    nb_iter: u32,
    mut step: impl FnMut(&mut WorkerPool) -> Result<bool>,
) -> Result<Option<u32>> {
    let mut pool = ezp_sched::acquire_pool(threads);
    iterate(probe, done, nb_iter, || step(&mut pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[derive(Default)]
    struct SpanCounter {
        starts: AtomicU32,
        ends: AtomicU32,
    }

    impl Probe for SpanCounter {
        fn iteration_start(&self, it: u32) {
            assert_eq!(self.starts.fetch_add(1, Ordering::Relaxed) + 1, it);
        }
        fn iteration_end(&self, it: u32) {
            assert_eq!(self.ends.fetch_add(1, Ordering::Relaxed) + 1, it);
        }
    }

    #[test]
    fn iterate_stops_at_the_first_stable_step_with_its_span_closed() {
        for (stable_at, nb_iter) in [(1, 5), (3, 5), (5, 5), (6, 5)] {
            let probe = SpanCounter::default();
            let mut steps = 0;
            let got = iterate(&probe, 0, nb_iter, || {
                steps += 1;
                Ok(steps == stable_at)
            })
            .unwrap();
            let ran = stable_at.min(nb_iter);
            assert_eq!(got, (stable_at <= nb_iter).then_some(stable_at));
            assert_eq!(steps, ran);
            assert_eq!(probe.starts.into_inner(), ran);
            assert_eq!(probe.ends.into_inner(), ran);
        }
    }

    /// A kernel whose variants do nothing but check what the runner hands
    /// them, one per kind of body.
    struct Idle;

    impl Idle {
        const VARIANTS: &'static Table<Self> = &[
            (
                "seq",
                Body::Seq(Grid::Whole, |_, _, grid, pool| {
                    assert!(pool.is_none() && grid.len() == 1);
                    Ok(false)
                }),
            ),
            (
                "omp",
                Body::Par(Grid::Tiles, |_, ctx, grid, pool| {
                    assert!(pool.is_some() && *grid == ctx.grid);
                    Ok(false)
                }),
            ),
            (
                "whole",
                Body::Whole(|_, ctx, nb_iter| {
                    let probe = Arc::clone(&ctx.probe);
                    iterate(&*probe, ctx.iterations_done, nb_iter, || Ok(false))
                }),
            ),
        ];
    }

    impl Kernel for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }
        fn variants(&self) -> Vec<&'static str> {
            names(Self::VARIANTS)
        }
        fn init(&mut self, _: &mut KernelCtx) -> Result<()> {
            Ok(())
        }
        fn compute(&mut self, ctx: &mut KernelCtx, v: &str, nb_iter: u32) -> Result<Option<u32>> {
            run(self, ctx, Self::VARIANTS, v, nb_iter)
        }
    }

    #[test]
    fn compute_calls_on_one_ctx_number_the_run_not_the_call() {
        for v in names(Idle::VARIANTS) {
            // the counter asserts that its spans are numbered 1, 2, ...
            let probe = Arc::new(SpanCounter::default());
            let cfg = ezp_core::RunConfig::new("idle").size(16).tile(8).threads(2);
            let mut ctx = KernelCtx::new(cfg).unwrap().with_probe(probe.clone());
            for nb_iter in [1, 1, 1, 2] {
                assert_eq!(Idle.compute(&mut ctx, v, nb_iter).unwrap(), None);
            }
            assert_eq!(probe.ends.load(Ordering::Relaxed), 5, "{v}");
            assert_eq!(ctx.iterations_done, 5, "{v}");
        }
    }

    #[test]
    fn a_failing_step_ends_the_run_with_its_error() {
        let probe = SpanCounter::default();
        let got = iterate(&probe, 0, 5, || Err(Error::Config("boom".into())));
        assert!(matches!(got, Err(Error::Config(m)) if m == "boom"));
        assert_eq!(probe.starts.into_inner(), 1);
    }
}
