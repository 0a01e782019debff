//! The Picture-Blurring kernel — a 3×3 mean stencil (paper §III-B).
//!
//! Each iteration reads every pixel's 3×3 neighbourhood from the current
//! image and writes the average to the next one; the images are swapped
//! between iterations. Border pixels have fewer than 9 neighbours, so
//! the naive code is full of conditional branches. The paper's optimized
//! variant specializes: "tests are only required for tiles located on
//! the edges", so *inner* tiles run a branch-free loop the compiler can
//! auto-vectorize — the ×10 per-task speedup of Fig. 10. Both variants
//! produce bit-identical images (property-tested below).

use crate::variant::{self, paint, Body, Grid};
use ezp_core::error::Result;
use ezp_core::{Img2D, Kernel, KernelCtx, Rgba, Tile, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};

/// Average of the up-to-9 neighbours of `(x, y)`, with bounds checks —
/// the "poor performance" branchy version that is nonetheless correct
/// everywhere.
#[inline]
pub fn blur_pixel_checked(src: &Img2D<Rgba>, x: usize, y: usize) -> Rgba {
    let (mut r, mut g, mut b, mut a) = (0u32, 0u32, 0u32, 0u32);
    let mut n = 0u32;
    for dy in -1i64..=1 {
        for dx in -1i64..=1 {
            if let Some(p) = src.try_get(x as isize + dx as isize, y as isize + dy as isize) {
                r += p.r() as u32;
                g += p.g() as u32;
                b += p.b() as u32;
                a += p.a() as u32;
                n += 1;
            }
        }
    }
    Rgba::new((r / n) as u8, (g / n) as u8, (b / n) as u8, (a / n) as u8)
}

/// Average of the exactly-9 neighbours of `(x, y)` — no branches, valid
/// only when `1 <= x < dim-1 && 1 <= y < dim-1`. This is the loop the
/// compiler vectorizes in the paper's optimized variant.
#[inline]
pub fn blur_pixel_unchecked(src: &Img2D<Rgba>, x: usize, y: usize) -> Rgba {
    debug_assert!(x >= 1 && y >= 1 && x + 1 < src.width() && y + 1 < src.height());
    let (mut r, mut g, mut b, mut a) = (0u32, 0u32, 0u32, 0u32);
    for dy in 0..3 {
        let row = src.row(y + dy - 1);
        for dx in 0..3 {
            let p = row[x + dx - 1];
            r += p.r() as u32;
            g += p.g() as u32;
            b += p.b() as u32;
            a += p.a() as u32;
        }
    }
    Rgba::new((r / 9) as u8, (g / 9) as u8, (b / 9) as u8, (a / 9) as u8)
}

/// True when every pixel of `tile` has all 9 neighbours inside the image.
#[inline]
fn tile_is_inner(tile: &Tile, dim: usize) -> bool {
    tile.x > 0 && tile.y > 0 && tile.x + tile.w < dim && tile.y + tile.h < dim
}

/// Cost model for `ezp-simsched` / Fig. 9b: per-pixel unit cost, with
/// border tiles `border_penalty`× heavier (branches + no vectorization).
pub fn tile_cost(tile: Tile, dim: usize, border_penalty: u64) -> u64 {
    let pixels = tile.pixels() as u64;
    if tile_is_inner(&tile, dim) {
        pixels
    } else {
        pixels * border_penalty
    }
}

/// The blur kernel state (the image pair lives in the context).
#[derive(Default)]
pub struct Blur;

impl Blur {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Whole, Self::step::<false>)),
        ("omp_tiled", Body::Par(Grid::Tiles, Self::step::<false>)),
        ("omp_tiled_opt", Body::Par(Grid::Tiles, Self::step::<true>)),
    ];

    /// One blur over `grid`'s tiles; `SPECIALIZED` switches the inner
    /// tiles to the branch-free loop (the paper's optimization).
    fn step<const SPECIALIZED: bool>(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let dim = ctx.dim();
        let (src, dst) = ctx.images.rw();
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, dst, |w, _| {
            if SPECIALIZED && tile_is_inner(&w.tile(), dim) {
                paint(w, |x, y| blur_pixel_unchecked(src, x, y));
            } else {
                paint(w, |x, y| blur_pixel_checked(src, x, y));
            }
        });
        ctx.images.swap();
        Ok(false)
    }
}

impl Kernel for Blur {
    fn name(&self) -> &'static str {
        "blur"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        // a colorful deterministic test card: gradients + a few shapes,
        // so that blurring is visible and every channel is exercised
        crate::shapes::test_card(ctx.images.cur_mut());
        // every iteration writes all of `next`: claim it before the clock
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
    use ezp_core::{RunConfig, Schedule, TileGrid};
    use ezp_testkit::ezp_proptest;

    fn run(variant: &str, dim: usize, tile: usize, iters: u32) -> Vec<Rgba> {
        let mut k = Blur;
        let mut c = KernelCtx::new(
            RunConfig::new("blur")
                .variant(variant)
                .size(dim)
                .tile(tile)
                .threads(3)
                .schedule(Schedule::NonmonotonicDynamic(1))
                .iterations(iters),
        )
        .unwrap();
        k.init(&mut c).unwrap();
        k.compute(&mut c, variant, iters).unwrap();
        c.images.cur().as_slice().to_vec()
    }

    #[test]
    fn checked_and_unchecked_agree_on_interior() {
        let mut img = Img2D::square(8);
        crate::shapes::test_card(&mut img);
        for y in 1..7 {
            for x in 1..7 {
                assert_eq!(
                    blur_pixel_checked(&img, x, y),
                    blur_pixel_unchecked(&img, x, y),
                    "disagreement at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn corner_averages_four_pixels() {
        let mut img: Img2D<Rgba> = Img2D::square(4);
        img.fill(Rgba::new(100, 100, 100, 255));
        img.set(0, 0, Rgba::new(200, 200, 200, 255));
        let c = blur_pixel_checked(&img, 0, 0);
        // corner sees 4 pixels: (200 + 3*100)/4 = 125
        assert_eq!(c.r(), 125);
    }

    #[test]
    fn uniform_image_is_fixed_point() {
        let mut img: Img2D<Rgba> = Img2D::square(6);
        img.fill(Rgba::new(42, 17, 99, 255));
        for y in 0..6 {
            for x in 0..6 {
                assert_eq!(blur_pixel_checked(&img, x, y), Rgba::new(42, 17, 99, 255));
            }
        }
    }

    #[test]
    fn optimized_variant_matches_basic_exactly() {
        // the core Fig. 10 claim: removing the branches does not change
        // the output
        let basic = run("omp_tiled", 48, 16, 3);
        let opt = run("omp_tiled_opt", 48, 16, 3);
        assert_eq!(basic, opt);
    }

    #[test]
    fn parallel_variants_match_seq() {
        let seq = run("seq", 32, 8, 2);
        assert_eq!(run("omp_tiled", 32, 8, 2), seq);
        assert_eq!(run("omp_tiled_opt", 32, 8, 2), seq);
    }

    #[test]
    fn blur_actually_smooths() {
        let before = {
            let mut img = Img2D::square(32);
            crate::shapes::test_card(&mut img);
            img
        };
        let after = run("seq", 32, 8, 4);
        // total variation (neighbour differences) must decrease
        let tv = |data: &[Rgba]| -> u64 {
            let mut acc = 0u64;
            for y in 0..32 {
                for x in 0..31 {
                    let a = data[y * 32 + x];
                    let b = data[y * 32 + x + 1];
                    acc += (a.r() as i64 - b.r() as i64).unsigned_abs();
                }
            }
            acc
        };
        assert!(tv(&after) < tv(before.as_slice()));
    }

    #[test]
    fn cost_model_matches_fig9b_shape() {
        let grid = TileGrid::square(64, 16).unwrap();
        let inner = grid.tile(1, 1);
        let border = grid.tile(0, 0);
        assert_eq!(tile_cost(inner, 64, 10), 256);
        assert_eq!(tile_cost(border, 64, 10), 2560);
    }

    #[test]
    fn ragged_tiles_handled() {
        // tile size not dividing dim: edge tiles clipped, still correct
        let seq = run("seq", 30, 8, 1);
        assert_eq!(run("omp_tiled_opt", 30, 8, 1), seq);
    }

    ezp_proptest! {
        #![cases(12)]

        fn prop_variants_agree(dim_pow in 3usize..6, tile in 4usize..16, iters in 1u32..4) {
            let dim = 1 << dim_pow; // 8..32
            let tile = tile.min(dim);
            let seq = run("seq", dim, tile, iters);
            assert_eq!(run("omp_tiled", dim, tile, iters), seq.clone());
            assert_eq!(run("omp_tiled_opt", dim, tile, iters), seq);
        }
    }
}
