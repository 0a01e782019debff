//! The Rotate90 kernel: `next(x, y) = cur(y, DIM-1-x)` — a quarter-turn
//! clockwise per iteration. Like `transpose`, its parallel interest is
//! the mismatch between read and write tile footprints.

use crate::variant::{self, paint, Body, Grid};
use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};

/// The rotate90 kernel.
#[derive(Default)]
pub struct Rotate90;

impl Rotate90 {
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
            paint(w, |x, y| src.get(y, dim - 1 - x));
        });
        ctx.images.swap();
        Ok(false)
    }
}

impl Kernel for Rotate90 {
    fn name(&self) -> &'static str {
        "rotate90"
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
            KernelCtx::new(RunConfig::new("rotate90").size(dim).tile(tile).threads(3)).unwrap();
        let mut k = Rotate90;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn single_rotation_moves_corners() {
        let dim = 16;
        let out = run("seq", dim, 8, 1);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        // clockwise: the top-left corner goes to the top-right
        assert_eq!(out[dim - 1], original.get(0, 0));
        // and every pixel follows next(x,y) = cur(y, dim-1-x)
        for y in 0..dim {
            for x in 0..dim {
                assert_eq!(out[y * dim + x], original.get(y, dim - 1 - x));
            }
        }
    }

    #[test]
    fn four_rotations_are_identity() {
        let dim = 20;
        let out = run("omp_tiled", dim, 8, 4);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        assert_eq!(out, original.as_slice());
    }

    #[test]
    fn two_rotations_are_point_reflection() {
        let dim = 12;
        let out = run("seq", dim, 4, 2);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        for y in 0..dim {
            for x in 0..dim {
                assert_eq!(out[y * dim + x], original.get(dim - 1 - x, dim - 1 - y));
            }
        }
    }

    #[test]
    fn tiled_matches_seq_on_ragged_grid() {
        assert_eq!(run("omp_tiled", 28, 8, 3), run("seq", 28, 8, 3));
    }
}
