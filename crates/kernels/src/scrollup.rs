//! The Scrollup kernel: the image scrolls up one row per iteration
//! (wrapping) — EASYPAP's minimal animated kernel, the typical target
//! of the very first hands-on session.

use crate::variant::{self, Body, Grid};
use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};

/// The scrollup kernel.
#[derive(Default)]
pub struct Scrollup;

impl Scrollup {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Whole, Self::step)),
        ("omp_tiled", Body::Par(Grid::Tiles, Self::step)),
    ];

    fn step(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let dim = ctx.dim();
        let (src, dst) = ctx.images.rw();
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, dst, |w, _| {
            let t = w.tile();
            for y in t.y..t.y + t.h {
                let from = if y + 1 == dim { 0 } else { y + 1 };
                w.write_row(t.x, y, &src.row(from)[t.x..t.x + t.w]);
            }
        });
        ctx.images.swap();
        Ok(false)
    }
}

impl Kernel for Scrollup {
    fn name(&self) -> &'static str {
        "scrollup"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        crate::shapes::test_card(ctx.images.cur_mut());
        // every iteration writes `next`: claim it before the clock starts
        ctx.images.next_mut();
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        variant::run(self, ctx, Self::VARIANTS, variant, nb_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::{Rgba, RunConfig};

    fn run(variant: &str, dim: usize, iters: u32) -> Vec<Rgba> {
        let mut ctx =
            KernelCtx::new(RunConfig::new("scrollup").size(dim).tile(8).threads(2)).unwrap();
        let mut k = Scrollup;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn one_scroll_shifts_rows_up() {
        let dim = 16;
        let out = run("seq", dim, 1);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        for y in 0..dim {
            for x in 0..dim {
                assert_eq!(out[y * dim + x], original.get(x, (y + 1) % dim));
            }
        }
    }

    #[test]
    fn dim_scrolls_are_identity() {
        let dim = 12;
        let out = run("omp_tiled", dim, dim as u32);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        assert_eq!(out, original.as_slice());
    }

    #[test]
    fn variants_agree() {
        assert_eq!(run("seq", 24, 5), run("omp_tiled", 24, 5));
        // 8-pixel tiles do not divide 29: clipped right and bottom tiles
        assert_eq!(run("seq", 29, 5), run("omp_tiled", 29, 5));
    }
}
