//! The Invert kernel (paper §II-A): per-pixel RGB complement — the
//! "hello world" of EASYPAP variants, embarrassingly parallel and
//! memory-bound.

use ezp_core::error::{Error, Result};
use ezp_core::{Kernel, KernelCtx, Rgba, TileGrid};
use ezp_sched::parallel_for_tiles_img;

/// RGB complement, alpha preserved.
#[inline]
pub fn invert_pixel(p: Rgba) -> Rgba {
    Rgba(p.0 ^ 0xffff_ff00)
}

/// The invert kernel.
#[derive(Default)]
pub struct Invert;

impl Kernel for Invert {
    fn name(&self) -> &'static str {
        "invert"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "omp", "gpu"]
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        crate::shapes::test_card(ctx.images.cur_mut());
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        let dim = ctx.dim();
        match variant {
            "seq" => {
                for it in 1..=nb_iter {
                    ctx.probe.iteration_start(it);
                    ctx.probe.start_tile(0);
                    ctx.images.cur_mut().for_each_mut(|_, _, p| *p = invert_pixel(*p));
                    ctx.probe.end_tile(0, 0, dim, dim, 0);
                    ctx.probe.iteration_end(it);
                }
            }
            "omp" => {
                // row-shaped tiles, like `#pragma omp parallel for` over lines
                let grid = TileGrid::new(dim, dim, dim, 1)?;
                let schedule = ctx.cfg.schedule;
                let mut pool = ezp_sched::acquire_pool(ctx.threads());
                for it in 1..=nb_iter {
                    ctx.probe.iteration_start(it);
                    parallel_for_tiles_img(
                        &mut pool,
                        &grid,
                        schedule,
                        &*ctx.probe,
                        ctx.images.cur_mut(),
                        |w, _| {
                            let t = w.tile();
                            for x in t.x..t.x + t.w {
                                w.set(x, t.y, invert_pixel(w.get(x, t.y)));
                            }
                        },
                    );
                    ctx.probe.iteration_end(it);
                }
            }
            "gpu" => {
                for it in 1..=nb_iter {
                    ctx.probe.iteration_start(it);
                    crate::gpu::launch(ctx, |x, y, src| invert_pixel(src.get(x, y)));
                    ctx.probe.iteration_end(it);
                }
            }
            other => {
                return Err(Error::UnknownKernel {
                    kernel: "invert".into(),
                    variant: other.into(),
                })
            }
        }
        Ok(None)
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
