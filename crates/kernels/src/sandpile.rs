//! The Abelian sandpile kernel (paper §II-A).
//!
//! Cells hold grains of sand; any cell with 4 or more grains topples,
//! sending one grain to each 4-neighbour. The synchronous (Jacobi)
//! update used here double-buffers the grain counts, so tiles can be
//! computed in parallel without ordering constraints; the final stable
//! configuration of the abelian sandpile is famously independent of the
//! toppling order, which the tests exploit.

use crate::variant::{self, paint, Body, Grid};
use ezp_core::error::{Error, Result};
use ezp_core::{Img2D, Kernel, KernelCtx, Rgba, TileGrid};
use ezp_sched::{parallel_for_tiles_img, TileWriter, WorkerPool};
use std::sync::atomic::{AtomicBool, Ordering};

/// Synchronous sandpile step of one tile: `next = cur - 4*(cur>=4) +
/// incoming topples`. Returns true when the tile changed.
fn step_tile(cur: &Img2D<u32>, w: &TileWriter<'_, '_, u32>) -> bool {
    let (width, height) = (cur.width(), cur.height());
    let mut changed = false;
    paint(w, |x, y| {
        let mut v = cur.get(x, y);
        if v >= 4 {
            v -= 4;
        }
        let mut incoming = 0;
        if x > 0 && cur.get(x - 1, y) >= 4 {
            incoming += 1;
        }
        if x + 1 < width && cur.get(x + 1, y) >= 4 {
            incoming += 1;
        }
        if y > 0 && cur.get(x, y - 1) >= 4 {
            incoming += 1;
        }
        if y + 1 < height && cur.get(x, y + 1) >= 4 {
            incoming += 1;
        }
        let new = v + incoming;
        changed |= new != cur.get(x, y);
        new
    });
    changed
}

/// Grain count → display color (0..3 stable shades, ≥4 bright red).
pub fn grain_color(grains: u32) -> Rgba {
    match grains {
        0 => Rgba::BLACK,
        1 => Rgba::new(40, 40, 120, 255),
        2 => Rgba::new(60, 120, 180, 255),
        3 => Rgba::new(220, 200, 80, 255),
        _ => Rgba::new(255, 60, 40, 255),
    }
}

/// The sandpile kernel: double-buffered grain grids.
pub struct Sandpile {
    cur: Img2D<u32>,
    next: Img2D<u32>,
}

impl Default for Sandpile {
    fn default() -> Self {
        Sandpile {
            cur: Img2D::new(0, 0),
            next: Img2D::new(0, 0),
        }
    }
}

impl Sandpile {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Tiles, Self::step)),
        ("async", Body::Seq(Grid::Whole, Self::sweep)),
        ("omp_tiled", Body::Par(Grid::Tiles, Self::step)),
    ];

    /// Read access to the grain grid (tests, examples).
    pub fn grains(&self) -> &Img2D<u32> {
        &self.cur
    }

    /// True when no cell can topple.
    pub fn is_stable(&self) -> bool {
        self.cur.as_slice().iter().all(|&v| v < 4)
    }

    /// One synchronous (Jacobi) step over `grid`'s tiles.
    fn step(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let changed = AtomicBool::new(false);
        let (cur, next) = (&self.cur, &mut self.next);
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, next, |w, _| {
            if step_tile(cur, w) {
                changed.store(true, Ordering::Relaxed);
            }
        });
        std::mem::swap(&mut self.cur, &mut self.next);
        Ok(!changed.into_inner())
    }

    /// Asynchronous (Gauss-Seidel) toppling: cells topple *in place*
    /// during the sweep of the grid's one tile, so an avalanche can
    /// travel the whole grid in one iteration. The abelian property of
    /// the sandpile guarantees the same final stable configuration as
    /// the synchronous scheme — a striking invariant the tests pin down
    /// (EASYPAP ships the same pair as `ssandPile` / `asandPile`).
    fn sweep(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let dim = ctx.dim();
        let changed = AtomicBool::new(false);
        let cur = &mut self.cur;
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, cur, |w, _| {
            for y in 0..dim {
                for x in 0..dim {
                    let v = w.get(x, y);
                    if v >= 4 {
                        let q = v / 4;
                        w.set(x, y, v % 4);
                        if x > 0 {
                            w.set(x - 1, y, w.get(x - 1, y) + q);
                        }
                        if x + 1 < dim {
                            w.set(x + 1, y, w.get(x + 1, y) + q);
                        }
                        if y > 0 {
                            w.set(x, y - 1, w.get(x, y - 1) + q);
                        }
                        if y + 1 < dim {
                            w.set(x, y + 1, w.get(x, y + 1) + q);
                        }
                        changed.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        Ok(!changed.into_inner())
    }
}

impl Kernel for Sandpile {
    fn name(&self) -> &'static str {
        "sandpile"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let dim = ctx.dim();
        self.cur = Img2D::new(dim, dim);
        self.next = Img2D::new(dim, dim);
        // --arg N drops N grains in the center (default: a big central pile)
        let grains: u32 = match &ctx.cfg.kernel_arg {
            Some(a) => a
                .parse()
                .map_err(|_| Error::Config(format!("sandpile: bad grain count `{a}`")))?,
            None => (dim * dim / 4) as u32,
        };
        self.cur.set(dim / 2, dim / 2, grains);
        self.refresh_image(ctx)
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        variant::run(self, ctx, Self::VARIANTS, variant, nb_iter)
    }

    fn refresh_image(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let img = ctx.images.cur_mut();
        for y in 0..img.height() {
            for x in 0..img.width() {
                img.set(x, y, grain_color(self.cur.get(x, y)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::RunConfig;

    fn run(variant: &str, dim: usize, grains: u32, iters: u32) -> (Sandpile, Option<u32>) {
        let mut cfg = RunConfig::new("sandpile").size(dim).tile(8).threads(3);
        cfg.kernel_arg = Some(grains.to_string());
        let mut ctx = KernelCtx::new(cfg).unwrap();
        let mut k = Sandpile::default();
        k.init(&mut ctx).unwrap();
        let conv = k.compute(&mut ctx, variant, iters).unwrap();
        (k, conv)
    }

    #[test]
    fn grains_are_conserved_on_interior_topples() {
        // few grains, nothing reaches the border: total is conserved
        let (k, conv) = run("seq", 32, 100, 1000);
        assert!(conv.is_some(), "small pile must stabilize");
        let total: u32 = k.grains().as_slice().iter().sum();
        assert_eq!(total, 100);
        assert!(k.is_stable());
    }

    #[test]
    fn stable_configuration_has_no_cell_above_3() {
        let (k, conv) = run("seq", 32, 500, 5000);
        assert!(conv.is_some());
        assert!(k.grains().as_slice().iter().all(|&v| v < 4));
    }

    #[test]
    fn parallel_matches_seq() {
        let (a, ca) = run("seq", 32, 300, 200);
        let (b, cb) = run("omp_tiled", 32, 300, 200);
        assert_eq!(a.grains(), b.grains());
        assert_eq!(ca, cb);
    }

    #[test]
    fn final_pile_is_symmetric() {
        // the sandpile identity: a centered pile stabilizes to a
        // 4-fold-symmetric pattern
        let (k, conv) = run("seq", 33, 400, 5000); // odd dim: exact center
        assert!(conv.is_some());
        let g = k.grains();
        for y in 0..33 {
            for x in 0..33 {
                assert_eq!(g.get(x, y), g.get(32 - x, y));
                assert_eq!(g.get(x, y), g.get(x, 32 - y));
            }
        }
    }

    #[test]
    fn abelian_property_async_equals_sync() {
        // the final stable configuration is independent of toppling
        // order — Gauss-Seidel and Jacobi agree exactly
        let (sync, cs) = run("seq", 33, 400, 5000);
        let (asynchronous, ca) = run("async", 33, 400, 5000);
        assert!(cs.is_some() && ca.is_some());
        assert_eq!(sync.grains(), asynchronous.grains());
        // and the async scheme needs (far) fewer iterations
        assert!(ca.unwrap() <= cs.unwrap());
    }

    #[test]
    fn async_conserves_interior_grains() {
        let (k, conv) = run("async", 32, 100, 1000);
        assert!(conv.is_some());
        let total: u32 = k.grains().as_slice().iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn zero_grains_converges_immediately() {
        let (_, conv) = run("omp_tiled", 16, 0, 10);
        assert_eq!(conv, Some(1));
    }

    #[test]
    fn grain_colors_are_distinct() {
        let colors: Vec<Rgba> = (0..5).map(grain_color).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(colors[i], colors[j]);
            }
        }
    }
}
