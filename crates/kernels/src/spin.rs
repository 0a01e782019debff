//! The Spin kernel — EASYPAP's compute-bound demo: a color wheel whose
//! hue field rotates a little every iteration. Every pixel costs the
//! same (pure trigonometry, no memory traffic to speak of), making spin
//! the *balanced* counterpoint to `mandel`: static scheduling is already
//! optimal here, which students discover by comparing the two.

use crate::variant::{self, paint, Body, Grid};
use ezp_core::color::hsv_to_rgba;
use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, Rgba, TileGrid};
use ezp_sched::{parallel_for_tiles_img, WorkerPool};

/// Pixel color for rotation angle `base_angle` (degrees).
#[inline]
pub fn spin_color(x: usize, y: usize, dim: usize, base_angle: f32) -> Rgba {
    let cx = x as f32 - dim as f32 / 2.0;
    let cy = y as f32 - dim as f32 / 2.0;
    let angle = cy.atan2(cx).to_degrees() + base_angle;
    let radius = (cx * cx + cy * cy).sqrt() / (dim as f32 / 2.0);
    hsv_to_rgba(angle, radius.clamp(0.0, 1.0), 1.0)
}

/// Rotation speed in degrees per iteration.
const SPEED: f32 = 5.0;

/// The spin kernel.
#[derive(Default)]
pub struct Spin {
    angle: f32,
}

impl Spin {
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
        let (dim, angle) = (ctx.dim(), self.angle);
        let img = ctx.images.cur_mut();
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, img, |w, _| {
            paint(w, |x, y| spin_color(x, y, dim, angle));
        });
        self.angle += SPEED;
        Ok(false)
    }
}

impl Kernel for Spin {
    fn name(&self) -> &'static str {
        "spin"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        self.angle = 0.0;
        ctx.images.cur_mut().fill(Rgba::BLACK);
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
        let mut ctx = KernelCtx::new(RunConfig::new("spin").size(32).tile(8).threads(3)).unwrap();
        let mut k = Spin::default();
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn variants_agree() {
        assert_eq!(run("seq", 3), run("omp_tiled", 3));
    }

    #[test]
    fn image_rotates_between_iterations() {
        assert_ne!(run("seq", 1), run("seq", 2));
    }

    #[test]
    fn center_is_unsaturated_border_saturated() {
        let out = run("seq", 1);
        let center = out[16 * 32 + 16];
        // near-zero radius -> near-white (saturation ~ 0)
        assert!(center.r() > 200 && center.g() > 200 && center.b() > 200);
        let corner = out[0];
        let spread = corner
            .r()
            .abs_diff(corner.g())
            .max(corner.g().abs_diff(corner.b()));
        assert!(spread > 50, "corner should be saturated, got {corner:?}");
    }
}
