//! Connected-components detection (paper §III-C, Fig. 11/12).
//!
//! "The proposed algorithm first reassigns each pixel a unique color and
//! then propagates the maximum between neighbours until reaching a
//! steady state. The sequential implementation uses a sequence of two
//! phases per iteration: the first phase propagates local maxima to the
//! right and to the bottom, and the second one proceeds to an up-left
//! propagation."
//!
//! The parallel variant tiles the image and turns the scan-order
//! constraints into task dependencies: "during the bottom-right phase a
//! tile cannot be executed until its left and upper neighbours have
//! completed" — exactly [`ezp_sched::TaskGraph::down_right_wavefront`].
//! EASYVIEW shows the resulting diagonal wave of tasks (Fig. 12).

use crate::variant::{self, Body, Grid};
use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, Rgba, Tile, TileGrid};
use ezp_sched::{for_each_tile, parallel_for_tiles, TaskGraph, WorkerPool};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Label buffer: one `u32` label per pixel, 0 = transparent background.
/// Atomic so that wavefront tasks can share it; the task dependencies
/// (plus the scheduler's synchronization) order all conflicting
/// accesses — synchronizing via the spine (via-the-spine), so the
/// cells themselves stay `Relaxed`.
pub struct Labels {
    dim: usize,
    cells: Vec<AtomicU32>,
}

impl Labels {
    /// Initial labels from an image: opaque pixel `(x, y)` gets the
    /// unique label `y*dim + x + 1`, transparent pixels get 0.
    pub fn from_image(img: &ezp_core::Img2D<Rgba>) -> Self {
        let dim = img.width();
        let cells = (0..dim * img.height())
            .map(|i| {
                let (x, y) = (i % dim, i / dim);
                AtomicU32::new(if img.get(x, y).is_transparent() {
                    0
                } else {
                    (i + 1) as u32
                })
            })
            .collect();
        Labels { dim, cells }
    }

    /// Label of `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u32 {
        self.cells[y * self.dim + x].load(Ordering::Relaxed)
    }

    #[inline]
    fn set(&self, x: usize, y: usize, v: u32) {
        self.cells[y * self.dim + x].store(v, Ordering::Relaxed);
    }

    /// The set of distinct non-zero labels — one per component once the
    /// propagation has converged.
    pub fn distinct_labels(&self) -> std::collections::BTreeSet<u32> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .filter(|&v| v != 0)
            .collect()
    }

    /// Down-right propagation over one tile (scan order: y then x
    /// ascending): `label = max(self, left, up)`. Returns true when any
    /// label changed.
    fn down_right_tile(&self, t: Tile) -> bool {
        let mut changed = false;
        for y in t.y..t.y + t.h {
            for x in t.x..t.x + t.w {
                let cur = self.get(x, y);
                if cur == 0 {
                    continue;
                }
                let mut v = cur;
                if x > 0 {
                    let l = self.get(x - 1, y);
                    if l > v {
                        v = l;
                    }
                }
                if y > 0 {
                    let u = self.get(x, y - 1);
                    if u > v {
                        v = u;
                    }
                }
                if v != cur {
                    self.set(x, y, v);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Up-left propagation (scan order: y then x descending):
    /// `label = max(self, right, down)`.
    fn up_left_tile(&self, t: Tile) -> bool {
        let mut changed = false;
        for y in (t.y..t.y + t.h).rev() {
            for x in (t.x..t.x + t.w).rev() {
                let cur = self.get(x, y);
                if cur == 0 {
                    continue;
                }
                let mut v = cur;
                if x + 1 < self.dim {
                    let r = self.get(x + 1, y);
                    if r > v {
                        v = r;
                    }
                }
                if y + 1 < self.cells.len() / self.dim {
                    let d = self.get(x, y + 1);
                    if d > v {
                        v = d;
                    }
                }
                if v != cur {
                    self.set(x, y, v);
                    changed = true;
                }
            }
        }
        changed
    }
}

/// Deterministic color for a component label, bright and saturated so
/// distinct components are visually distinct.
pub fn label_color(label: u32) -> Rgba {
    if label == 0 {
        return Rgba::TRANSPARENT;
    }
    ezp_core::color::hsv_to_rgba((label.wrapping_mul(2654435761) % 360) as f32, 0.8, 0.95)
}

/// The connected-components kernel.
#[derive(Default)]
pub struct CComp {
    labels: Option<Labels>,
    /// The down-right and up-left wavefronts over the run's tiles, built
    /// in `init` and run by every `taskdep` iteration.
    waves: [TaskGraph; 2],
    /// Number of shapes drawn by the generated scene (ground truth).
    pub expected_components: usize,
}

impl CComp {
    const VARIANTS: &'static variant::Table<Self> = &[
        ("seq", Body::Seq(Grid::Whole, Self::seq)),
        ("taskdep", Body::Par(Grid::Tiles, Self::taskdep)),
    ];

    fn labels(&self) -> &Labels {
        self.labels.as_ref().expect("init() must run first")
    }

    /// One full iteration, both phases over each tile of the grid in
    /// turn: the whole image at once for `seq`.
    fn seq(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let (labels, changed) = (self.labels(), AtomicBool::new(false));
        parallel_for_tiles(pool, grid, ctx.cfg.schedule, &*ctx.probe, |t, _| {
            let a = labels.down_right_tile(t);
            if labels.up_left_tile(t) || a {
                changed.store(true, Ordering::Relaxed);
            }
        });
        Ok(!changed.into_inner())
    }

    /// One full iteration as the two wavefronts of tasks on the pool,
    /// each task reporting its tile so traces show the wave (Fig. 12).
    fn taskdep(
        &mut self,
        ctx: &mut KernelCtx,
        grid: &TileGrid,
        pool: Option<&mut WorkerPool>,
    ) -> Result<bool> {
        let (labels, pool, probe) = (self.labels(), pool.expect("a pool row"), &*ctx.probe);
        let changed = AtomicBool::new(false);
        let phases: [fn(&Labels, Tile) -> bool; 2] =
            [Labels::down_right_tile, Labels::up_left_tile];
        for (graph, phase) in self.waves.iter().zip(phases) {
            graph.run_probed(pool, probe, |task, rank| {
                for_each_tile(probe, rank, [grid.tile_at(task)], |t| {
                    if phase(labels, t) {
                        changed.store(true, Ordering::Relaxed);
                    }
                });
            })?;
        }
        Ok(!changed.into_inner())
    }
}

impl Kernel for CComp {
    fn name(&self) -> &'static str {
        "ccomp"
    }

    fn variants(&self) -> Vec<&'static str> {
        variant::names(Self::VARIANTS)
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let img = ctx.images.cur_mut();
        self.expected_components = crate::shapes::ccomp_scene(img, ctx.cfg.seed);
        self.labels = Some(Labels::from_image(img));
        self.waves = [
            TaskGraph::down_right_wavefront(&ctx.grid),
            TaskGraph::up_left_wavefront(&ctx.grid),
        ];
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        variant::run(self, ctx, Self::VARIANTS, variant, nb_iter)
    }

    fn refresh_image(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let labels = self.labels();
        let img = ctx.images.cur_mut();
        for y in 0..img.height() {
            for x in 0..img.width() {
                img.set(x, y, label_color(labels.get(x, y)));
            }
        }
        Ok(())
    }
}

/// Reference component labeling by BFS flood fill (4-connectivity over
/// opaque pixels): returns per-pixel component ids and the component
/// count.
pub fn reference_components(img: &ezp_core::Img2D<Rgba>) -> (Vec<u32>, usize) {
    let (w, h) = (img.width(), img.height());
    let mut comp = vec![0u32; w * h];
    let mut count = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..w * h {
        let (sx, sy) = (start % w, start / w);
        if comp[start] != 0 || img.get(sx, sy).is_transparent() {
            continue;
        }
        count += 1;
        comp[start] = count;
        queue.push_back((sx, sy));
        while let Some((x, y)) = queue.pop_front() {
            for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                if nx < 0 || ny < 0 || nx as usize >= w || ny as usize >= h {
                    continue;
                }
                let (nx, ny) = (nx as usize, ny as usize);
                let i = ny * w + nx;
                if comp[i] == 0 && !img.get(nx, ny).is_transparent() {
                    comp[i] = count;
                    queue.push_back((nx, ny));
                }
            }
        }
    }
    (comp, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::{Img2D, RunConfig};

    fn run(variant: &str, dim: usize, tile: usize, seed: u64) -> (CComp, KernelCtx, Option<u32>) {
        let mut cfg = RunConfig::new("ccomp").size(dim).tile(tile).threads(3);
        cfg.seed = seed;
        let mut ctx = KernelCtx::new(cfg).unwrap();
        let mut k = CComp::default();
        k.init(&mut ctx).unwrap();
        let conv = k.compute(&mut ctx, variant, 500).unwrap();
        (k, ctx, conv)
    }

    /// The correctness oracle: after convergence, (a) every component is
    /// uniformly labeled, (b) distinct components have distinct labels,
    /// (c) the label count matches a reference BFS.
    fn check_labels(k: &CComp, ctx: &KernelCtx) {
        let mut scene = Img2D::square(ctx.dim());
        crate::shapes::ccomp_scene(&mut scene, ctx.cfg.seed);
        let (reference, count) = reference_components(&scene);
        let labels = k.labels();
        assert_eq!(
            labels.distinct_labels().len(),
            count,
            "component count mismatch"
        );
        // uniform labeling within each reference component
        let mut label_of_comp = std::collections::HashMap::new();
        for y in 0..ctx.dim() {
            for x in 0..ctx.dim() {
                let c = reference[y * ctx.dim() + x];
                let l = labels.get(x, y);
                if c == 0 {
                    assert_eq!(l, 0, "background pixel got labeled at ({x},{y})");
                } else {
                    let expected = *label_of_comp.entry(c).or_insert(l);
                    assert_eq!(l, expected, "component {c} not uniform at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn seq_labels_components_correctly() {
        let (k, ctx, conv) = run("seq", 64, 16, 3);
        assert!(conv.is_some(), "must converge");
        check_labels(&k, &ctx);
    }

    #[test]
    fn taskdep_matches_reference_on_multiple_seeds() {
        for seed in [1, 7, 42] {
            let (k, ctx, conv) = run("taskdep", 64, 16, seed);
            assert!(conv.is_some(), "seed {seed} did not converge");
            check_labels(&k, &ctx);
        }
    }

    #[test]
    fn taskdep_converges_in_same_iterations_as_seq() {
        // tiled wavefront with intra-tile scan order is work-equivalent
        // to the sequential pass, so iteration counts match ("without
        // introducing extra iterations", §III-C)
        let (_, _, conv_seq) = run("seq", 64, 16, 9);
        let (_, _, conv_task) = run("taskdep", 64, 16, 9);
        assert_eq!(conv_seq, conv_task);
    }

    #[test]
    fn empty_scene_converges_immediately() {
        let mut cfg = RunConfig::new("ccomp").size(16).tile(8).threads(2);
        cfg.seed = 0;
        let mut ctx = KernelCtx::new(cfg).unwrap();
        // force an empty image regardless of the seed
        ctx.images.cur_mut().fill(Rgba::TRANSPARENT);
        let mut k = CComp {
            labels: Some(Labels::from_image(ctx.images.cur())),
            ..Default::default()
        };
        let conv = k.compute(&mut ctx, "seq", 10).unwrap();
        assert_eq!(conv, Some(1));
        assert!(k.labels().distinct_labels().is_empty());
    }

    #[test]
    fn single_shape_gets_single_label() {
        let mut img = Img2D::square(32);
        crate::shapes::fill_rect(&mut img, 5, 5, 10, 8, Rgba::RED);
        let labels = Labels::from_image(&img);
        let whole = Tile {
            x: 0,
            y: 0,
            w: 32,
            h: 32,
            tx: 0,
            ty: 0,
        };
        for _ in 0..50 {
            let a = labels.down_right_tile(whole);
            let b = labels.up_left_tile(whole);
            if !a && !b {
                break;
            }
        }
        assert_eq!(labels.distinct_labels().len(), 1);
        // the label is the max initial label = bottom-right pixel of the rect
        let expect = (12u32 * 32 + 14) + 1;
        assert_eq!(labels.get(5, 5), expect);
    }

    #[test]
    fn refresh_image_colors_components() {
        let (mut k, mut ctx, _) = run("seq", 64, 16, 3);
        k.refresh_image(&mut ctx).unwrap();
        let img = ctx.images.cur();
        // background stays transparent, shapes get opaque colors
        let opaque = img
            .as_slice()
            .iter()
            .filter(|p| !p.is_transparent())
            .count();
        assert!(opaque > 0);
        assert_eq!(label_color(0), Rgba::TRANSPARENT);
        assert_ne!(label_color(1), label_color(2));
    }

    #[test]
    fn spiral_needs_many_iterations_but_converges() {
        // a C-shaped (concave) component: propagation needs several
        // iterations to travel around the bend
        let mut cfg = RunConfig::new("ccomp").size(32).tile(8).threads(2);
        cfg.seed = 0;
        let mut ctx = KernelCtx::new(cfg).unwrap();
        let mut k = CComp::default();
        k.init(&mut ctx).unwrap();
        // replace the generated scene with the C
        let img = ctx.images.cur_mut();
        img.fill(Rgba::TRANSPARENT);
        crate::shapes::fill_rect(img, 4, 4, 20, 3, Rgba::RED); // top bar
        crate::shapes::fill_rect(img, 4, 7, 3, 14, Rgba::RED); // left leg
        crate::shapes::fill_rect(img, 4, 21, 20, 3, Rgba::RED); // bottom bar
        k.labels = Some(Labels::from_image(ctx.images.cur()));
        let conv = k.compute(&mut ctx, "taskdep", 500).unwrap();
        assert!(conv.is_some());
        assert_eq!(k.labels().distinct_labels().len(), 1);
    }
}
