//! The Transpose kernel (paper §II-A): `next(x, y) = cur(y, x)`.
//!
//! The interesting parallel aspect is memory access: a tile `(tx, ty)`
//! of the destination reads tile `(ty, tx)` of the source, so tiled
//! execution turns a strided full-image sweep into cache-friendly
//! blocked accesses.

use crate::variant::{self, paint, Body, Grid};
use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};

/// The transpose kernel.
#[derive(Default)]
pub struct Transpose;

impl Transpose {
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
        let (src, dst) = ctx.images.rw();
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, dst, |w, _| {
            paint(w, |x, y| src.get(y, x));
        });
        ctx.images.swap();
        Ok(false)
    }
}

impl Kernel for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
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

    fn run(variant: &str, dim: usize, tile: usize, iters: u32) -> Vec<Rgba> {
        let mut ctx =
            KernelCtx::new(RunConfig::new("transpose").size(dim).tile(tile).threads(3)).unwrap();
        let mut k = Transpose;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn single_transpose_flips_coordinates() {
        let dim = 32;
        let out = run("seq", dim, 8, 1);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        for y in 0..dim {
            for x in 0..dim {
                assert_eq!(out[y * dim + x], original.get(y, x));
            }
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let dim = 24;
        let out = run("omp_tiled", dim, 8, 2);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        assert_eq!(out, original.as_slice());
    }

    #[test]
    fn tiled_matches_seq_with_ragged_tiles() {
        assert_eq!(run("omp_tiled", 30, 7, 3), run("seq", 30, 7, 3));
    }
}
