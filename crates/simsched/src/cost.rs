//! Per-tile virtual cost maps.
//!
//! A [`CostMap`] assigns every tile of a grid a deterministic cost in
//! virtual nanoseconds. Kernels expose *cost models* (e.g. `mandel`'s
//! exact per-pixel iteration counts, `blur`'s border/inner distinction)
//! that the figure-regeneration benches turn into cost maps.

use ezp_core::{Tile, TileGrid};

/// Virtual execution cost of every tile of a grid, in `collapse(2)`
/// linear order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostMap {
    grid: TileGrid,
    costs: Vec<u64>,
}

impl CostMap {
    /// Every tile costs `cost` — the homogeneous-work regime where
    /// "dynamic distribution turns into a regular, cyclic one" (Fig. 8,
    /// pattern 2).
    pub fn uniform(grid: TileGrid, cost: u64) -> Self {
        CostMap {
            grid,
            costs: vec![cost; grid.len()],
        }
    }

    /// Cost of each tile computed by `f` — the general case.
    pub fn from_fn(grid: TileGrid, mut f: impl FnMut(Tile) -> u64) -> Self {
        let costs = grid.iter().map(&mut f).collect();
        CostMap { grid, costs }
    }

    /// Builds from a raw cost vector (must match `grid.len()`).
    pub fn from_vec(grid: TileGrid, costs: Vec<u64>) -> Self {
        assert_eq!(costs.len(), grid.len(), "cost vector length mismatch");
        CostMap { grid, costs }
    }

    /// Builds a cost map from the *measured* task durations of iteration
    /// `iteration` of a recorded trace — the what-if bridge: trace a run
    /// on whatever machine you have (even a 1-CPU laptop), then simulate
    /// "what would 12 cores and a different schedule do with exactly
    /// this workload?". Tiles without a recorded task (lazy kernels)
    /// get cost 0; tiles computed several times accumulate.
    pub fn from_trace(trace: &ezp_trace::Trace, iteration: u32) -> ezp_core::Result<Self> {
        let grid = trace.meta.grid()?;
        let mut costs = vec![0u64; grid.len()];
        for t in trace.tasks_of_iteration(iteration) {
            if let Some(i) = grid.index_of_pixel(t.x, t.y) {
                costs[i] += t.duration_ns();
            }
        }
        Ok(CostMap { grid, costs })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Cost of the tile with linear index `i`.
    #[inline]
    pub fn cost(&self, i: usize) -> u64 {
        self.costs[i]
    }

    /// Cost of tile `(tx, ty)`.
    pub fn cost_at(&self, tx: usize, ty: usize) -> u64 {
        self.costs[self.grid.linear_index(tx, ty)]
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when the map has no tiles.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Total sequential cost — the virtual `refTime` a speedup is
    /// computed against.
    pub fn total(&self) -> u64 {
        self.costs.iter().sum()
    }

    /// Largest single tile cost — a lower bound on any makespan.
    pub fn max(&self) -> u64 {
        self.costs.iter().copied().max().unwrap_or(0)
    }

    /// Coefficient of variation of tile costs (0 = perfectly uniform),
    /// a scalar measure of the load imbalance the Mandelbrot set causes.
    pub fn imbalance_cv(&self) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        let n = self.costs.len() as f64;
        let mean = self.total() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .costs
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        TileGrid::square(64, 16).unwrap() // 4x4
    }

    #[test]
    fn uniform_map() {
        let m = CostMap::uniform(grid(), 10);
        assert_eq!(m.len(), 16);
        assert_eq!(m.total(), 160);
        assert_eq!(m.max(), 10);
        assert_eq!(m.cost(7), 10);
        assert_eq!(m.imbalance_cv(), 0.0);
    }

    #[test]
    fn from_fn_sees_tiles_in_linear_order() {
        let m = CostMap::from_fn(grid(), |t| (t.tx + 4 * t.ty) as u64);
        for i in 0..16 {
            assert_eq!(m.cost(i), i as u64);
        }
        assert_eq!(m.cost_at(2, 1), 6);
        assert_eq!(m.total(), 120);
        assert_eq!(m.max(), 15);
    }

    #[test]
    fn skewed_map_has_positive_cv() {
        let m = CostMap::from_fn(grid(), |t| if t.tx == 0 { 100 } else { 1 });
        assert!(m.imbalance_cv() > 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_checks_length() {
        drop(CostMap::from_vec(grid(), vec![1; 3]));
    }

    #[test]
    fn from_trace_accumulates_measured_durations() {
        use ezp_monitor::report::IterationSpan;
        use ezp_monitor::TileRecord;
        use ezp_trace::{Trace, TraceMeta};
        let mk = |it, x, y, s, e| TileRecord {
            iteration: it,
            x,
            y,
            w: 16,
            h: 16,
            start_ns: s,
            end_ns: e,
            worker: 0,
        };
        let trace = Trace {
            meta: TraceMeta {
                kernel: "mandel".into(),
                variant: "omp_tiled".into(),
                dim: 64,
                tile_size: 16,
                threads: 1,
                schedule: "static".into(),
                label: "measured".into(),
            },
            iterations: vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 1000,
            }],
            tasks: vec![
                mk(1, 0, 0, 0, 100),
                mk(1, 0, 0, 100, 150), // same tile again: accumulates
                mk(1, 48, 48, 200, 900),
            ],
            edges: Vec::new(),
            counters: None,
        };
        let costs = CostMap::from_trace(&trace, 1).unwrap();
        assert_eq!(costs.cost_at(0, 0), 150);
        assert_eq!(costs.cost_at(3, 3), 700);
        assert_eq!(costs.cost_at(1, 1), 0); // never computed (lazy hole)
        assert_eq!(costs.total(), 850);
        // and the what-if: simulating this measured map at 2 CPUs
        let sim = crate::simulate(
            &costs,
            crate::SimConfig::new(2, ezp_core::Schedule::Dynamic(1)).overhead(0),
        );
        assert_eq!(sim.makespan_ns, 700); // bounded by the heavy tile
    }

    #[test]
    fn zero_cost_map() {
        let m = CostMap::uniform(grid(), 0);
        assert_eq!(m.total(), 0);
        assert_eq!(m.imbalance_cv(), 0.0);
    }
}
