//! Per-CPU coverage maps (horizontal mouse mode).
//!
//! "The y-axis of the mouse allows to select a particular CPU and
//! highlights the tiles computed during the displayed period. Basically,
//! this allows to observe the 'coverage map' of a given CPU during one
//! or multiple iterations, and to check the locality of computations
//! across iterations" (§II-D). Fig. 10 uses this view to show that
//! `nonmonotonic:dynamic` keeps a CPU's tiles "mostly regrouped in a
//! single area".

use ezp_core::color::{worker_color, Rgba};
use ezp_core::{Img2D, TileGrid};
use ezp_monitor::TileRecord;
use ezp_trace::Trace;

/// Which tiles a given CPU computed over an iteration range, with
/// multiplicity (a tile computed in several iterations counts more).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageMap {
    grid: TileGrid,
    /// The CPU this map describes.
    pub worker: usize,
    /// Hit count per tile (linear order).
    hits: Vec<u32>,
}

impl CoverageMap {
    /// Coverage of `worker` over iterations `[lo, hi]` of `trace`.
    pub fn new(trace: &Trace, worker: usize, lo: u32, hi: u32) -> ezp_core::Result<Self> {
        Ok(Self::from_records(
            trace.meta.grid()?,
            worker,
            trace.tasks_of_worker(worker, lo, hi),
        ))
    }

    /// Builds directly from records (used with a [`crate::GanttModel`]'s
    /// filtered task list).
    pub fn from_records<'a>(
        grid: TileGrid,
        worker: usize,
        records: impl Iterator<Item = &'a TileRecord>,
    ) -> Self {
        let mut hits = vec![0u32; grid.len()];
        for t in records.filter(|t| t.worker == worker) {
            if let Some(i) = grid.index_of_pixel(t.x, t.y) {
                hits[i] += 1;
            }
        }
        CoverageMap { grid, worker, hits }
    }

    /// Hit count of tile `(tx, ty)`.
    pub fn hits(&self, tx: usize, ty: usize) -> u32 {
        self.hits[self.grid.linear_index(tx, ty)]
    }

    /// Number of distinct tiles touched.
    pub fn covered_tiles(&self) -> usize {
        self.hits.iter().filter(|&&h| h > 0).count()
    }

    /// Locality score in `(0, 1]`: mean pairwise closeness of covered
    /// tiles (1 = single compact blob, → 0 = scattered across the grid).
    /// This is the number behind the paper's qualitative "mostly
    /// regrouped in a single area" observation.
    pub fn locality(&self) -> f64 {
        let covered: Vec<(f64, f64)> = self
            .grid
            .iter()
            .filter(|t| self.hits(t.tx, t.ty) > 0)
            .map(|t| (t.tx as f64, t.ty as f64))
            .collect();
        if covered.len() < 2 {
            return 1.0;
        }
        let diag = ((self.grid.tiles_x() as f64 - 1.0).powi(2)
            + (self.grid.tiles_y() as f64 - 1.0).powi(2))
        .sqrt()
        .max(1.0);
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..covered.len() {
            for j in (i + 1)..covered.len() {
                let d = ((covered[i].0 - covered[j].0).powi(2)
                    + (covered[i].1 - covered[j].1).powi(2))
                .sqrt();
                sum += d / diag;
                pairs += 1;
            }
        }
        1.0 - sum / pairs as f64
    }

    /// Renders the map over a dark thumbnail: covered tiles painted with
    /// the worker's color (the "purple squares" of Fig. 10), brightness
    /// by multiplicity.
    pub fn to_image(&self, cell: usize) -> Img2D<Rgba> {
        assert!(cell > 0);
        let max = self.hits.iter().copied().max().unwrap_or(0).max(1);
        let base = worker_color(self.worker);
        let mut img = Img2D::filled(
            self.grid.tiles_x() * cell,
            self.grid.tiles_y() * cell,
            Rgba::new(20, 20, 20, 255),
        );
        for t in self.grid.iter() {
            let h = self.hits(t.tx, t.ty);
            if h == 0 {
                continue;
            }
            let color = base.scaled(0.4 + 0.6 * h as f32 / max as f32);
            for py in 0..cell {
                for px in 0..cell {
                    img.set(t.tx * cell + px, t.ty * cell + py, color);
                }
            }
        }
        img
    }

    /// ASCII rendering: hit count per tile (`.` = untouched, capped at 9).
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        for ty in 0..self.grid.tiles_y() {
            for tx in 0..self.grid.tiles_x() {
                let h = self.hits(tx, ty);
                out.push(if h == 0 {
                    '.'
                } else {
                    char::from_digit(h.min(9), 10).unwrap()
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_monitor::report::IterationSpan;
    use ezp_trace::TraceMeta;

    fn trace_with(tasks: Vec<TileRecord>) -> Trace {
        Trace {
            meta: TraceMeta {
                kernel: "k".into(),
                variant: "v".into(),
                dim: 64,
                tile_size: 16,
                threads: 2,
                schedule: "static".into(),
                label: "t".into(),
            },
            iterations: vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 100,
            }],
            tasks,
            edges: Vec::new(),
            counters: None,
        }
    }

    fn task(it: u32, x: usize, y: usize, worker: usize, s: u64) -> TileRecord {
        TileRecord {
            iteration: it,
            x,
            y,
            w: 16,
            h: 16,
            start_ns: s,
            end_ns: s + 10,
            worker,
        }
    }

    #[test]
    fn counts_hits_per_tile() {
        let t = trace_with(vec![
            task(1, 0, 0, 0, 0),
            task(1, 16, 0, 0, 10),
            task(1, 0, 0, 1, 20), // other worker, ignored
        ]);
        let cov = CoverageMap::new(&t, 0, 1, 1).unwrap();
        assert_eq!(cov.hits(0, 0), 1);
        assert_eq!(cov.hits(1, 0), 1);
        assert_eq!(cov.hits(2, 2), 0);
        assert_eq!(cov.covered_tiles(), 2);
    }

    #[test]
    fn multiplicity_across_iterations() {
        let mut tasks = Vec::new();
        for it in 1..=3 {
            tasks.push(task(it, 0, 0, 0, it as u64 * 100));
        }
        let mut t = trace_with(tasks);
        t.iterations = (1..=3)
            .map(|i| IterationSpan {
                iteration: i,
                start_ns: i as u64 * 100,
                end_ns: i as u64 * 100 + 50,
            })
            .collect();
        let cov = CoverageMap::new(&t, 0, 1, 3).unwrap();
        assert_eq!(cov.hits(0, 0), 3);
        let cov12 = CoverageMap::new(&t, 0, 1, 2).unwrap();
        assert_eq!(cov12.hits(0, 0), 2);
    }

    #[test]
    fn compact_coverage_has_higher_locality_than_scattered() {
        // compact: a 2x2 block of tiles
        let compact = trace_with(vec![
            task(1, 0, 0, 0, 0),
            task(1, 16, 0, 0, 1),
            task(1, 0, 16, 0, 2),
            task(1, 16, 16, 0, 3),
        ]);
        // scattered: the four corners
        let scattered = trace_with(vec![
            task(1, 0, 0, 0, 0),
            task(1, 48, 0, 0, 1),
            task(1, 0, 48, 0, 2),
            task(1, 48, 48, 0, 3),
        ]);
        let lc = CoverageMap::new(&compact, 0, 1, 1).unwrap().locality();
        let ls = CoverageMap::new(&scattered, 0, 1, 1).unwrap().locality();
        assert!(lc > ls, "compact {lc:.3} must beat scattered {ls:.3}");
    }

    #[test]
    fn locality_degenerate_cases() {
        let empty = trace_with(vec![]);
        assert_eq!(CoverageMap::new(&empty, 0, 1, 1).unwrap().locality(), 1.0);
        let single = trace_with(vec![task(1, 16, 16, 0, 0)]);
        assert_eq!(CoverageMap::new(&single, 0, 1, 1).unwrap().locality(), 1.0);
    }

    #[test]
    fn ascii_rendering() {
        let t = trace_with(vec![task(1, 0, 0, 0, 0), task(1, 48, 48, 0, 5)]);
        let cov = CoverageMap::new(&t, 0, 1, 1).unwrap();
        let art = cov.to_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "1...");
        assert_eq!(lines[3], "...1");
    }

    #[test]
    fn image_rendering_uses_worker_color() {
        let t = trace_with(vec![task(1, 0, 0, 1, 0)]);
        let cov = CoverageMap::new(&t, 1, 1, 1).unwrap();
        let img = cov.to_image(2);
        assert_eq!(img.width(), 8);
        assert_eq!(img.get(0, 0), worker_color(1)); // max multiplicity -> full brightness
        assert_eq!(img.get(7, 7), Rgba::new(20, 20, 20, 255));
    }
}
