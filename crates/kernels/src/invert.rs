//! The Invert kernel (paper §II-A): per-pixel RGB complement — the
//! "hello world" of EASYPAP variants, embarrassingly parallel and
//! memory-bound.

use crate::variant::{self, paint, Body, Grid};
use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, Rgba, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};

/// RGB complement, alpha preserved.
#[inline]
pub fn invert_pixel(p: Rgba) -> Rgba {
    Rgba(p.0 ^ 0xffff_ff00)
}

/// The invert kernel.
#[derive(Default)]
pub struct Invert;

impl Invert {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Whole, Self::step)),
        ("omp", Body::Par(Grid::Rows, Self::step)),
        ("gpu", Body::Seq(Grid::Tiles, Self::gpu)),
    ];

    fn step(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let img = ctx.images.cur_mut();
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, img, |w, _| {
            paint(w, |x, y| invert_pixel(w.get(x, y)));
        });
        Ok(false)
    }

    fn gpu(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        _: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        crate::gpu::launch(ctx, grid, |x, y, src| invert_pixel(src.get(x, y)));
        Ok(false)
    }
}

impl Kernel for Invert {
    fn name(&self) -> &'static str {
        "invert"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        crate::shapes::test_card(ctx.images.cur_mut());
        crate::gpu::claim_next(ctx);
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        variant::run(self, ctx, Self::VARIANTS, variant, nb_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::RunConfig;

    fn run(variant: &str, iters: u32) -> Vec<Rgba> {
        let mut ctx = KernelCtx::new(RunConfig::new("invert").size(32).tile(8).threads(2)).unwrap();
        let mut k = Invert;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn invert_pixel_complements_rgb_keeps_alpha() {
        let p = Rgba::new(10, 200, 0, 123);
        let q = invert_pixel(p);
        assert_eq!((q.r(), q.g(), q.b(), q.a()), (245, 55, 255, 123));
        assert_eq!(invert_pixel(q), p);
    }

    #[test]
    fn variants_agree() {
        let seq = run("seq", 1);
        assert_eq!(run("omp", 1), seq);
        assert_eq!(run("gpu", 1), seq);
    }

    #[test]
    fn double_invert_is_identity() {
        let mut original = ezp_core::Img2D::square(32);
        crate::shapes::test_card(&mut original);
        assert_eq!(run("omp", 2), original.as_slice());
    }
}
