//! The Mandelbrot kernel (paper Fig. 1/2, §III-A).
//!
//! `compute_color(y, x)` is the escape-time iteration; every frame the
//! viewport zooms slightly ("`zoom()`; // modify the viewpoint real
//! coordinates"). Work per pixel is wildly non-uniform — points inside
//! the set burn `max_iter` iterations, far-away points only a few — which
//! is exactly why this kernel is the paper's load-balancing teaching
//! vehicle: a static tile distribution starves most CPUs (Fig. 3) and
//! students must find the right `schedule`/tile-size combination
//! (Fig. 4/6).
//!
//! Every variant paints through one routine: [`escape_row`] produces
//! the escape counts of a run of pixels, [`LANES`] at a time, and a
//! palette table built in `init` turns a count into a colour. Scalar
//! [`escape_iterations`] and `ezp_core::color::mandel_color` stay as the
//! definitions both are tested against, pixel by pixel and entry by
//! entry. What the two buy, 1 thread, 512², 15 iterations, median of 11
//! alternating runs (`seq` / `omp_tiled`): per-pixel `sin` + HSV and a
//! scalar escape loop 278 / 321 ms; palette table alone 170 / 184; table
//! and lanes 93 / 99. The variants differ only in who computes which
//! rows — which is all the paper wants them to differ in.

use crate::variant::{self, Body, Grid};
use ezp_core::color::mandel_palette;
use ezp_core::error::{Error, Result};
use ezp_core::{Kernel, KernelCtx, Rgba, Tile, TileGrid};
use ezp_sched::{parallel_for_tiles_img, TileWriter, WorkerPool};
use std::sync::{Arc, OnceLock};

/// Default escape-time iteration cap. Large enough to show the black
/// interior, small enough for laptop-scale runs.
pub const DEFAULT_MAX_ITER: u32 = 256;

/// Per-frame zoom factor (the paper zooms in slightly every iteration).
const ZOOM_FACTOR: f64 = 0.96;

/// The complex-plane viewport.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Viewport {
    /// Left real coordinate.
    pub xmin: f64,
    /// Right real coordinate.
    pub xmax: f64,
    /// Top imaginary coordinate.
    pub ymin: f64,
    /// Bottom imaginary coordinate.
    pub ymax: f64,
}

impl Default for Viewport {
    fn default() -> Self {
        // the classic full-set view, centered like EASYPAP's
        Viewport {
            xmin: -2.05,
            xmax: 0.75,
            ymin: -1.4,
            ymax: 1.4,
        }
    }
}

impl Viewport {
    /// Zooms toward a fixed interesting point on the set's boundary, so
    /// that the zoomed view keeps a mix of cheap and expensive areas.
    pub fn zoom(&mut self) {
        const CX: f64 = -0.743_643_887_037;
        const CY: f64 = 0.131_825_904_205;
        self.xmin = CX + (self.xmin - CX) * ZOOM_FACTOR;
        self.xmax = CX + (self.xmax - CX) * ZOOM_FACTOR;
        self.ymin = CY + (self.ymin - CY) * ZOOM_FACTOR;
        self.ymax = CY + (self.ymax - CY) * ZOOM_FACTOR;
    }

    /// The complex coordinate of pixel `(x, y)` in a `dim`×`dim` image.
    #[inline]
    pub fn pixel_to_complex(&self, x: usize, y: usize, dim: usize) -> (f64, f64) {
        let fx = self.xmin + (self.xmax - self.xmin) * (x as f64 + 0.5) / dim as f64;
        let fy = self.ymin + (self.ymax - self.ymin) * (y as f64 + 0.5) / dim as f64;
        (fx, fy)
    }
}

/// Whether `(cx, cy)` lies in the main cardioid or the period-2 bulb —
/// the set's two big interior regions, decidable without iterating.
#[inline]
fn in_cardioid_or_bulb(cx: f64, cy: f64) -> bool {
    let q = (cx - 0.25) * (cx - 0.25) + cy * cy;
    q * (q + (cx - 0.25)) <= 0.25 * cy * cy || (cx + 1.0) * (cx + 1.0) + cy * cy <= 0.0625
}

/// Escape-time iteration count for the complex point `(cx, cy)`.
#[inline]
pub fn escape_iterations(cx: f64, cy: f64, max_iter: u32) -> u32 {
    // cardioid / period-2 bulb shortcut: the expensive interior answered
    // in O(1), like production Mandelbrot renderers
    if in_cardioid_or_bulb(cx, cy) {
        return max_iter;
    }
    let mut zx = 0.0f64;
    let mut zy = 0.0f64;
    let mut it = 0;
    while zx * zx + zy * zy < 4.0 && it < max_iter {
        let t = zx * zx - zy * zy + cx;
        zy = 2.0 * zx * zy + cy;
        zx = t;
        it += 1;
    }
    it
}

/// Pixels advanced together by [`escape_row`]. Picked by measurement on
/// the default (SSE2, two `f64` per register) target: 4 beats 8 on 16-pixel
/// tiles and on whole rows alike (1 thread, 512², 15 iterations, median
/// of 11: `omp_tiled` 99 vs 138 ms, `seq` 93 vs 120), and 16 spills its
/// lanes to the stack and loses to both.
pub const LANES: usize = 4;

/// Escape counts of the `out.len()` consecutive pixels of row `y` that
/// start at column `x0`: `out[i]` is [`escape_iterations`] of pixel
/// `(x0 + i, y)`, value for value.
///
/// *Why lanes.* One orbit is a chain of dependent operations — each
/// `z ← z² + c` needs the previous `z` — so a scalar loop is bound by
/// the latency of a multiply and two adds (≈12 cycles a step) while the
/// FP units sit idle. [`LANES`] neighbouring pixels are independent
/// chains; stepping them together in plain arrays lets LLVM keep them
/// in vector registers and the loop becomes throughput-bound. No
/// `std::arch`, no `unsafe`: the operations per lane, and their order
/// (`x2 - y2 + cx`, `2.0 * zx * zy + cy`), are the scalar loop's, which
/// is what makes the counts identical rather than merely close.
///
/// *Why the live mask is sticky.* A lane's count grows while its orbit
/// has never left `|z| < 2`, which is what the scalar loop counts
/// before it returns. Lanes keep being stepped after they escape, on
/// through overflow to infinity and NaN. In exact arithmetic an orbit
/// started at 0 never comes back once outside the radius (`z₁ = c`, and
/// `|z| > 2`, `|z| ≥ |c|` give `|z² + c| ≥ |z|(|z| − 1) > |z|`), so
/// testing only the current `z` would count the same — 3 million random
/// points, half of them within 0.02 of the `|c| = 2` circle, show no
/// difference — but identity with the scalar loop should not rest on a
/// theorem about rounded arithmetic. Once cleared, a lane's bit stays
/// cleared; that costs one AND a step and makes what an escaped lane
/// does irrelevant by construction.
///
/// *Why leaving only when the whole group is dead wastes little.*
/// Escape time is continuous almost everywhere, so neighbours escape
/// within a few steps of each other; the exception is a group that
/// straddles the set's boundary, where the cheap lanes idle behind the
/// expensive one — part of why 4 lanes beat 8. Interior points covered
/// by the cardioid/bulb test are resolved before the loop and never
/// hold a group back.
///
/// The `out.len() % LANES` pixels at the end go through the scalar
/// routine.
pub fn escape_row(
    view: &Viewport,
    y: usize,
    x0: usize,
    dim: usize,
    max_iter: u32,
    out: &mut [u32],
) {
    let cy = view.pixel_to_complex(x0, y, dim).1;
    let mut x = x0;
    let mut groups = out.chunks_exact_mut(LANES);
    for group in &mut groups {
        let mut cx = [0.0f64; LANES];
        let mut count = [0u32; LANES];
        let mut live = [0u32; LANES];
        for l in 0..LANES {
            cx[l] = view.pixel_to_complex(x + l, y, dim).0;
            if in_cardioid_or_bulb(cx[l], cy) {
                count[l] = max_iter;
            } else {
                live[l] = 1;
            }
        }
        let mut zx = [0.0f64; LANES];
        let mut zy = [0.0f64; LANES];
        for _ in 0..max_iter {
            let mut any = 0;
            for l in 0..LANES {
                let x2 = zx[l] * zx[l];
                let y2 = zy[l] * zy[l];
                live[l] &= (x2 + y2 < 4.0) as u32;
                count[l] += live[l];
                any |= live[l];
                let t = x2 - y2 + cx[l];
                zy[l] = 2.0 * zx[l] * zy[l] + cy;
                zx[l] = t;
            }
            if any == 0 {
                break;
            }
        }
        group.copy_from_slice(&count);
        x += LANES;
    }
    for (i, n) in groups.into_remainder().iter_mut().enumerate() {
        let (cx, cy) = view.pixel_to_complex(x + i, y, dim);
        *n = escape_iterations(cx, cy, max_iter);
    }
}

/// Exact number of escape-time iterations needed by every pixel of
/// `tile` — the deterministic cost model handed to `ezp-simsched` (one
/// virtual ns per inner-loop iteration).
pub fn tile_cost(view: &Viewport, tile: Tile, dim: usize, max_iter: u32) -> u64 {
    let mut counts = vec![0u32; tile.w];
    let mut total = 0u64;
    for y in tile.y..tile.y + tile.h {
        escape_row(view, y, tile.x, dim, max_iter, &mut counts);
        total += counts.iter().map(|&n| n as u64).sum::<u64>();
    }
    total
}

/// Largest `--arg` accepted as the escape-time cap: the value sizes the
/// palette table and bounds the time of every interior pixel, and it
/// comes straight from the command line (EASYPAP itself stops at 4096).
pub const MAX_ITER_LIMIT: u32 = 1 << 20;

/// Pixels painted per [`escape_row`] call: the stack buffers of counts
/// and colours between the escape loop, the palette lookup and the
/// tile's row. A multiple of [`LANES`], so only a row's last segment
/// has a scalar tail.
const ROW_SEG: usize = 64;

/// The palette of cap `max_iter`. The default cap's table is built once
/// per process and shared (a daemon job paid ≈ 8 µs for it); any other
/// cap builds its own, as every run did before.
fn palette(max_iter: u32) -> Arc<[Rgba]> {
    static DEFAULT: OnceLock<Arc<[Rgba]>> = OnceLock::new();
    if max_iter == DEFAULT_MAX_ITER {
        Arc::clone(DEFAULT.get_or_init(|| mandel_palette(DEFAULT_MAX_ITER).into()))
    } else {
        mandel_palette(max_iter).into()
    }
}

/// The Mandelbrot kernel state.
pub struct Mandel {
    /// Current viewport (zooms every iteration).
    pub view: Viewport,
    /// Escape-time cap; set by [`Kernel::init`], together with `palette`.
    max_iter: u32,
    /// `mandel_color(n, max_iter)` for every count `n` in `0..=max_iter`:
    /// the colour is a pure function of the count, so its `sin` and HSV
    /// conversion are paid once per palette, not once per pixel. Empty
    /// until `init`.
    palette: Arc<[Rgba]>,
}

impl Default for Mandel {
    fn default() -> Self {
        Mandel {
            view: Viewport::default(),
            max_iter: DEFAULT_MAX_ITER,
            palette: Arc::from([]),
        }
    }
}

impl Mandel {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Whole, Self::step)),
        ("tiled", Body::Seq(Grid::Tiles, Self::step)),
        ("omp", Body::Par(Grid::Rows, Self::step)),
        ("omp_tiled", Body::Par(Grid::Tiles, Self::step)),
        ("gpu", Body::Seq(Grid::Tiles, Self::gpu)),
    ];

    /// `mandel_compute_seq` (paper Fig. 1) over the whole image as one
    /// tile or tile by tile, and `mandel_compute_omp_tiled` (Fig. 2) on
    /// the pool over tiles or rows: one tile body, then `zoom()` once.
    fn step(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let (this, dim) = (&*self, ctx.dim()); // shared with the workers
        let img = ctx.images.cur_mut();
        parallel_for_tiles_img(pool, grid, ctx.cfg.schedule, &*ctx.probe, img, |w, _| {
            this.paint_tile(w, dim)
        });
        self.view.zoom();
        Ok(false)
    }

    /// Paints `w`'s tile row by row, [`ROW_SEG`] pixels at a time.
    fn paint_tile(&self, w: &TileWriter<'_, '_, Rgba>, dim: usize) {
        let t = w.tile();
        let (mut counts, mut colors) = ([0u32; ROW_SEG], [Rgba::BLACK; ROW_SEG]);
        for y in t.y..t.y + t.h {
            for x in (t.x..t.x + t.w).step_by(ROW_SEG) {
                let n = ROW_SEG.min(t.x + t.w - x);
                escape_row(&self.view, y, x, dim, self.max_iter, &mut counts[..n]);
                for (px, &k) in colors.iter_mut().zip(&counts[..n]) {
                    *px = self.palette[k as usize];
                }
                w.write_row(x, y, &colors[..n]);
            }
        }
    }

    /// OpenCL-style variant: one work-item per pixel, work-groups =
    /// tiles ([`crate::gpu::launch`]).
    fn gpu(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        _: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let dim = ctx.dim();
        crate::gpu::launch(ctx, grid, |x, y, _| {
            let (cx, cy) = self.view.pixel_to_complex(x, y, dim);
            self.palette[escape_iterations(cx, cy, self.max_iter) as usize]
        });
        self.view.zoom();
        Ok(false)
    }
}

impl Kernel for Mandel {
    fn name(&self) -> &'static str {
        "mandel"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        if let Some(arg) = &ctx.cfg.kernel_arg {
            self.max_iter = arg
                .parse()
                .map_err(|_| Error::Config(format!("mandel: bad max_iter `{arg}`")))?;
            if self.max_iter > MAX_ITER_LIMIT {
                return Err(Error::Config(format!(
                    "mandel: max_iter {} exceeds the limit of {MAX_ITER_LIMIT}",
                    self.max_iter
                )));
            }
        }
        self.palette = palette(self.max_iter);
        ctx.images.cur_mut().fill(Rgba::BLACK);
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
    use ezp_core::Schedule;

    fn ctx(dim: usize, tile: usize, threads: usize) -> KernelCtx {
        KernelCtx::new(
            RunConfig::new("mandel")
                .size(dim)
                .tile(tile)
                .threads(threads)
                .schedule(Schedule::Dynamic(1)),
        )
        .unwrap()
    }

    fn render(variant: &str, iters: u32) -> Vec<Rgba> {
        let mut k = Mandel::default();
        let mut c = ctx(64, 16, 3);
        k.init(&mut c).unwrap();
        k.compute(&mut c, variant, iters).unwrap();
        c.images.cur().as_slice().to_vec()
    }

    #[test]
    fn escape_is_bounded_and_interior_maxes() {
        assert_eq!(escape_iterations(0.0, 0.0, 100), 100); // origin is in the set
        assert_eq!(escape_iterations(-1.0, 0.0, 100), 100); // period-2 bulb
        assert!(escape_iterations(2.0, 2.0, 100) < 5); // far outside escapes fast
        for &(cx, cy) in &[(0.3, 0.5), (-0.7, 0.3), (1.5, 0.0)] {
            assert!(escape_iterations(cx, cy, 64) <= 64);
        }
    }

    #[test]
    fn cardioid_shortcut_matches_iteration() {
        // points the shortcut claims are inside must not escape
        for &(cx, cy) in &[(0.1, 0.1), (-0.2, 0.0), (-1.05, 0.05)] {
            if in_cardioid_or_bulb(cx, cy) {
                assert_eq!(escape_iterations(cx, cy, 512), 512);
            }
        }
    }

    #[test]
    fn all_variants_agree_with_seq() {
        let reference = render("seq", 2);
        for variant in ["tiled", "omp", "omp_tiled", "gpu"] {
            assert_eq!(render(variant, 2), reference, "variant {variant} diverged");
        }
    }

    #[test]
    fn zoom_shrinks_viewport() {
        let mut v = Viewport::default();
        let w0 = v.xmax - v.xmin;
        v.zoom();
        let w1 = v.xmax - v.xmin;
        assert!(w1 < w0);
        assert!(w1 > 0.9 * w0);
    }

    #[test]
    fn image_contains_set_and_exterior() {
        let img = render("seq", 1);
        let black = img.iter().filter(|&&p| p == Rgba::BLACK).count();
        assert!(black > 0, "no interior pixels rendered");
        assert!(black < img.len(), "everything is interior?");
    }

    #[test]
    fn tile_cost_is_heavier_on_the_set() {
        let view = Viewport::default();
        let grid = TileGrid::square(64, 16).unwrap();
        // a tile containing part of the interior vs the top-left corner
        // (far exterior): interior must cost much more
        let costs: Vec<u64> = grid.iter().map(|t| tile_cost(&view, t, 64, 256)).collect();
        let max = *costs.iter().max().unwrap();
        let min = *costs.iter().min().unwrap();
        assert!(
            max > 20 * min,
            "expected strong cost imbalance, got {min}..{max}"
        );
        // total cost equals the sum over pixels (spot check one tile)
        let t = grid.tile(0, 0);
        let manual: u64 = (0..16)
            .flat_map(|y| (0..16).map(move |x| (x, y)))
            .map(|(x, y)| {
                let (cx, cy) = view.pixel_to_complex(x, y, 64);
                escape_iterations(cx, cy, 256) as u64
            })
            .sum();
        assert_eq!(tile_cost(&view, t, 64, 256), manual);
    }

    #[test]
    fn kernel_arg_sets_max_iter() {
        let mut k = Mandel::default();
        let mut cfg = RunConfig::new("mandel").size(32).tile(8);
        cfg.kernel_arg = Some("64".into());
        let mut c = KernelCtx::new(cfg).unwrap();
        k.init(&mut c).unwrap();
        assert_eq!(k.max_iter, 64);
        let mut bad = KernelCtx::new({
            let mut cfg = RunConfig::new("mandel").size(32).tile(8);
            cfg.kernel_arg = Some("not-a-number".into());
            cfg
        })
        .unwrap();
        assert!(k.init(&mut bad).is_err());
    }

    #[test]
    fn unknown_variant_is_rejected() {
        let mut k = Mandel::default();
        let mut c = ctx(32, 8, 1);
        k.init(&mut c).unwrap();
        assert!(k.compute(&mut c, "cuda", 1).is_err());
    }
}
