//! A 2D heat-diffusion kernel — the "simulations involving Stencil
//! computations" students are "quickly exposed to" (§III-B).
//!
//! Explicit Jacobi step over a double-buffered `f32` temperature field:
//! `T'(x,y) = T + k * (T_left + T_right + T_up + T_down - 4 T)` with
//! insulated borders (missing neighbours contribute the center value,
//! i.e. zero flux). Converges to the uniform average; `compute` detects
//! the steady state like the other simulation kernels.

use crate::variant::{self, paint, Body, Grid};
use ezp_core::color::heat_color;
use ezp_core::error::{Error, Result};
use ezp_core::{Img2D, Kernel, KernelCtx, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};
use std::sync::atomic::{AtomicBool, Ordering};

/// Diffusion coefficient (stability requires `k <= 0.25`).
const K: f32 = 0.2;

/// Steady-state threshold on the per-step maximum temperature change.
const EPSILON: f32 = 1e-4;

/// One Jacobi update of pixel `(x, y)` with insulated borders.
#[inline]
fn diffuse(cur: &Img2D<f32>, x: usize, y: usize) -> f32 {
    let c = cur.get(x, y);
    let left = if x > 0 { cur.get(x - 1, y) } else { c };
    let right = if x + 1 < cur.width() {
        cur.get(x + 1, y)
    } else {
        c
    };
    let up = if y > 0 { cur.get(x, y - 1) } else { c };
    let down = if y + 1 < cur.height() {
        cur.get(x, y + 1)
    } else {
        c
    };
    c + K * (left + right + up + down - 4.0 * c)
}

/// The heat kernel: double-buffered temperature fields in `[0, 1]`.
pub struct Heat {
    cur: Img2D<f32>,
    next: Img2D<f32>,
}

impl Default for Heat {
    fn default() -> Self {
        Heat {
            cur: Img2D::new(0, 0),
            next: Img2D::new(0, 0),
        }
    }
}

impl Heat {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Tiles, Self::step)),
        ("omp_tiled", Body::Par(Grid::Tiles, Self::step)),
    ];

    /// Read access to the temperature field.
    pub fn field(&self) -> &Img2D<f32> {
        &self.cur
    }

    /// Total thermal energy (sum of temperatures) — conserved by the
    /// insulated-border scheme, which the tests verify.
    pub fn energy(&self) -> f64 {
        self.cur.as_slice().iter().map(|&t| t as f64).sum()
    }

    /// One Jacobi step over `grid`'s tiles; stable when no temperature
    /// moved by more than [`EPSILON`].
    fn step(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let changed = AtomicBool::new(false);
        let (cur, next) = (&self.cur, &mut self.next);
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, next, |w, _| {
            let mut moved = false;
            paint(w, |x, y| {
                let v = diffuse(cur, x, y);
                moved |= (v - cur.get(x, y)).abs() > EPSILON;
                v
            });
            if moved {
                changed.store(true, Ordering::Relaxed);
            }
        });
        std::mem::swap(&mut self.cur, &mut self.next);
        Ok(!changed.into_inner())
    }
}

impl Kernel for Heat {
    fn name(&self) -> &'static str {
        "heat"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let dim = ctx.dim();
        self.cur = Img2D::new(dim, dim);
        self.next = Img2D::new(dim, dim);
        // hot discs in two corners; --arg sets the initial temperature
        let temp: f32 = match &ctx.cfg.kernel_arg {
            Some(a) => a
                .parse()
                .map_err(|_| Error::Config(format!("heat: bad temperature `{a}`")))?,
            None => 1.0,
        };
        let r = (dim / 6).max(1);
        for (cx, cy) in [(dim / 4, dim / 4), (3 * dim / 4, 3 * dim / 4)] {
            for y in cy.saturating_sub(r)..(cy + r).min(dim) {
                for x in cx.saturating_sub(r)..(cx + r).min(dim) {
                    let dx = x as i64 - cx as i64;
                    let dy = y as i64 - cy as i64;
                    if dx * dx + dy * dy <= (r * r) as i64 {
                        self.cur.set(x, y, temp);
                    }
                }
            }
        }
        self.refresh_image(ctx)
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        variant::run(self, ctx, Self::VARIANTS, variant, nb_iter)
    }

    fn refresh_image(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let img = ctx.images.cur_mut();
        for y in 0..img.height() {
            for x in 0..img.width() {
                img.set(x, y, heat_color(self.cur.get(x, y).clamp(0.0, 1.0)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::{RunConfig, Schedule};

    fn run(variant: &str, dim: usize, iters: u32) -> (Heat, Option<u32>) {
        let mut ctx = KernelCtx::new(
            RunConfig::new("heat")
                .size(dim)
                .tile(16)
                .threads(3)
                .schedule(Schedule::Dynamic(1)),
        )
        .unwrap();
        let mut k = Heat::default();
        k.init(&mut ctx).unwrap();
        let conv = k.compute(&mut ctx, variant, iters).unwrap();
        (k, conv)
    }

    #[test]
    fn energy_is_conserved() {
        let (k0, _) = run("seq", 48, 0);
        let e0 = k0.energy();
        let (k, _) = run("seq", 48, 50);
        assert!(
            (k.energy() - e0).abs() / e0 < 1e-3,
            "{} vs {e0}",
            k.energy()
        );
    }

    #[test]
    fn heat_spreads_outward() {
        let (k, _) = run("seq", 48, 30);
        // a point between the discs warms up from zero
        assert!(k.field().get(24, 24) > 0.0);
        // the disc centers cool down from 1.0
        assert!(k.field().get(12, 12) < 1.0);
        // temperatures stay physical
        assert!(k
            .field()
            .as_slice()
            .iter()
            .all(|&t| (0.0..=1.0).contains(&t)));
    }

    #[test]
    fn parallel_matches_seq_bitwise() {
        let (a, ca) = run("seq", 48, 25);
        let (b, cb) = run("omp_tiled", 48, 25);
        assert_eq!(a.field().as_slice(), b.field().as_slice());
        assert_eq!(ca, cb);
    }

    #[test]
    fn converges_to_uniform_average() {
        let (k, conv) = run("seq", 16, 50_000);
        assert!(conv.is_some(), "diffusion must reach steady state");
        let field = k.field();
        let mean = k.energy() as f32 / (16 * 16) as f32;
        for &t in field.as_slice() {
            assert!((t - mean).abs() < 0.01, "{} vs mean {}", t, mean);
        }
    }

    #[test]
    fn maximum_principle_holds() {
        // diffusion never exceeds the initial extremes
        let (k, _) = run("omp_tiled", 32, 100);
        assert!(k
            .field()
            .as_slice()
            .iter()
            .all(|&t| (0.0..=1.0).contains(&t)));
    }
}
