//! The Transpose kernel (paper §II-A): `next(x, y) = cur(y, x)`.
//!
//! The interesting parallel aspect is memory access: a tile `(tx, ty)`
//! of the destination reads tile `(ty, tx)` of the source, so tiled
//! execution turns a strided full-image sweep into cache-friendly
//! blocked accesses.

use ezp_core::error::{Error, Result};
use ezp_core::{Kernel, KernelCtx};
use ezp_sched::{parallel_for_tiles, ImgCell};

/// The transpose kernel.
#[derive(Default)]
pub struct Transpose;

impl Kernel for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "omp_tiled"]
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
                    {
                        let (src, dst) = ctx.images.rw();
                        for y in 0..dim {
                            for x in 0..dim {
                                dst.set(x, y, src.get(y, x));
                            }
                        }
                    }
                    ctx.probe.end_tile(0, 0, dim, dim, 0);
                    ctx.images.swap();
                    ctx.probe.iteration_end(it);
                }
            }
            "omp_tiled" => {
                let grid = ctx.grid;
                let schedule = ctx.cfg.schedule;
                let mut pool = ezp_sched::acquire_pool(ctx.threads());
                for it in 1..=nb_iter {
                    ctx.probe.iteration_start(it);
                    {
                        let (src, dst) = ctx.images.rw();
                        let cell = ImgCell::new(dst);
                        parallel_for_tiles(&mut pool, &grid, schedule, &*ctx.probe, |t, _| {
                            let w = cell.tile_writer(t);
                            for y in t.y..t.y + t.h {
                                for x in t.x..t.x + t.w {
                                    w.set(x, y, src.get(y, x));
                                }
                            }
                        });
                    }
                    ctx.images.swap();
                    ctx.probe.iteration_end(it);
                }
            }
            other => {
                return Err(Error::UnknownKernel {
                    kernel: "transpose".into(),
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
    use ezp_core::{Rgba, RunConfig};

    fn run(variant: &str, dim: usize, tile: usize, iters: u32) -> Vec<Rgba> {
        let mut ctx = KernelCtx::new(RunConfig::new("transpose").size(dim).tile(tile).threads(3)).unwrap();
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
