//! The Pixelize kernel (paper §II-A): each tile is replaced by its
//! average color — a mosaic effect where the tile grid itself *is* the
//! visual output, making `--tile-size` effects directly visible.

use crate::variant::{self, paint, Body, Grid};
use ezp_core::error::Result;
use ezp_core::{Img2D, Kernel, KernelCtx, Rgba, Tile, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};

/// Average color of `tile` in `img`.
pub fn tile_average(img: &Img2D<Rgba>, tile: Tile) -> Rgba {
    let (mut r, mut g, mut b, mut a) = (0u64, 0u64, 0u64, 0u64);
    for y in tile.y..tile.y + tile.h {
        for x in tile.x..tile.x + tile.w {
            let p = img.get(x, y);
            r += p.r() as u64;
            g += p.g() as u64;
            b += p.b() as u64;
            a += p.a() as u64;
        }
    }
    let n = tile.pixels() as u64;
    Rgba::new((r / n) as u8, (g / n) as u8, (b / n) as u8, (a / n) as u8)
}

/// The pixelize kernel.
#[derive(Default)]
pub struct Pixelize;

impl Pixelize {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Tiles, Self::step)),
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
            let avg = tile_average(src, w.tile());
            paint(w, |_, _| avg);
        });
        ctx.images.swap();
        Ok(false)
    }
}

impl Kernel for Pixelize {
    fn name(&self) -> &'static str {
        "pixelize"
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
    use ezp_core::{RunConfig, TileGrid};

    fn run(variant: &str, dim: usize, tile: usize) -> Vec<Rgba> {
        let mut ctx =
            KernelCtx::new(RunConfig::new("pixelize").size(dim).tile(tile).threads(3)).unwrap();
        let mut k = Pixelize;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, 1).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn tiles_become_uniform() {
        let dim = 32;
        let out = run("seq", dim, 8);
        let grid = TileGrid::square(dim, 8).unwrap();
        for t in grid.iter() {
            let first = out[t.y * dim + t.x];
            for y in t.y..t.y + t.h {
                for x in t.x..t.x + t.w {
                    assert_eq!(out[y * dim + x], first, "tile not uniform at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn average_is_exact_on_known_input() {
        let mut img = Img2D::square(4);
        img.fill(Rgba::new(10, 20, 30, 255));
        img.set(0, 0, Rgba::new(50, 20, 30, 255));
        let grid = TileGrid::square(4, 4).unwrap();
        let avg = tile_average(&img, grid.tile(0, 0));
        // r: (50 + 15*10)/16 = 12.5 -> 12
        assert_eq!(avg.r(), 12);
        assert_eq!(avg.g(), 20);
        assert_eq!(avg.a(), 255);
    }

    #[test]
    fn parallel_matches_seq_even_ragged() {
        assert_eq!(run("omp_tiled", 30, 8), run("seq", 30, 8));
        assert_eq!(run("omp_tiled", 32, 8), run("seq", 32, 8));
    }

    #[test]
    fn pixelize_is_idempotent() {
        let once = run("seq", 32, 8);
        let mut ctx =
            KernelCtx::new(RunConfig::new("pixelize").size(32).tile(8).threads(1)).unwrap();
        let mut k = Pixelize;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, "seq", 2).unwrap();
        assert_eq!(ctx.images.cur().as_slice(), once);
    }
}
