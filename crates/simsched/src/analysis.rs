//! Speedup curves over simulated executions — the machinery behind the
//! Fig. 6 reproduction, and the two replays of `easyview explain`: a
//! loop schedule ([`speedup_curve`]) and a task graph
//! ([`taskgraph_speedup_curve`]) over one iteration's recorded costs.

use crate::cost::CostMap;
use crate::sim::{simulate_iterations, SimConfig};
use crate::taskgraph::simulate_taskgraph;
use ezp_core::Schedule;
use ezp_sched::TaskGraph;

/// One point of a speedup curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedupPoint {
    /// Thread count.
    pub threads: usize,
    /// Virtual makespan at that thread count (ns).
    pub makespan_ns: u64,
    /// Speedup against the 1-thread virtual reference time.
    pub speedup: f64,
}

/// Simulates `schedule` over `cost_map` for every thread count in
/// `thread_counts`, `iterations` loops each, and returns the speedup
/// curve relative to the sequential virtual time (like `easyplot
/// --speedup`, which divides `refTime` by each completion time).
pub fn speedup_curve(
    cost_map: &CostMap,
    schedule: Schedule,
    thread_counts: &[usize],
    iterations: u32,
    dispatch_overhead_ns: u64,
) -> Vec<SpeedupPoint> {
    let makespan = |threads, schedule| {
        let config = SimConfig::new(threads, schedule).overhead(dispatch_overhead_ns);
        simulate_iterations(cost_map, config, iterations).makespan_ns
    };
    let ref_ns = makespan(1, Schedule::Static);
    curve(ref_ns, thread_counts, |p| makespan(p, schedule))
}

/// Replays the runtime's scheduler over `graph` ([`simulate_taskgraph`]),
/// task `i` costing `cost_map.cost(i)`, at every thread count in
/// `thread_counts`, and returns the speedup curve relative to the
/// 1-thread replay.
///
/// # Panics
///
/// Panics when `graph` and `cost_map` differ in length or `graph` has a
/// cycle, like [`simulate_taskgraph`].
pub fn taskgraph_speedup_curve(
    graph: &TaskGraph,
    cost_map: &CostMap,
    thread_counts: &[usize],
) -> Vec<SpeedupPoint> {
    let costs: Vec<u64> = (0..cost_map.len()).map(|i| cost_map.cost(i)).collect();
    let makespan = |threads| simulate_taskgraph(graph, &costs, threads).makespan_ns;
    curve(makespan(1).max(1), thread_counts, makespan)
}

/// `makespan` at every thread count, with its speedup over `ref_ns`.
fn curve(ref_ns: u64, counts: &[usize], makespan: impl Fn(usize) -> u64) -> Vec<SpeedupPoint> {
    let point = |threads| {
        let makespan_ns = makespan(threads);
        let speedup = ref_ns as f64 / makespan_ns.max(1) as f64;
        SpeedupPoint {
            threads,
            makespan_ns,
            speedup,
        }
    };
    counts.iter().map(|&threads| point(threads)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;

    fn mandel_like_costs() -> CostMap {
        // heavy band at the bottom, like the Mandelbrot black area
        let grid = TileGrid::square(256, 16).unwrap();
        CostMap::from_fn(grid, |t| if t.ty >= 12 { 2000 } else { 50 })
    }

    #[test]
    fn speedup_at_one_thread_is_one() {
        let m = mandel_like_costs();
        let curve = speedup_curve(&m, Schedule::Static, &[1], 2, 0);
        assert_eq!(curve.len(), 1);
        assert!((curve[0].speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_curve_dominates_static_under_imbalance() {
        let m = mandel_like_costs();
        let threads = [2, 4, 6, 8, 10, 12];
        let stat = speedup_curve(&m, Schedule::Static, &threads, 1, 0);
        let dynamic = speedup_curve(&m, Schedule::Dynamic(2), &threads, 1, 0);
        for (s, d) in stat.iter().zip(&dynamic) {
            assert!(
                d.speedup >= s.speedup,
                "dynamic {:.2} below static {:.2} at {} threads",
                d.speedup,
                s.speedup,
                s.threads
            );
        }
        // and clearly so at high thread counts
        assert!(dynamic[5].speedup > stat[5].speedup * 1.2);
    }

    #[test]
    fn taskgraph_curve_is_bounded_by_the_critical_path() {
        // diamond 0 -> {1, 2} -> 3 on the first four tiles of a 4x4 grid
        let grid = TileGrid::square(64, 16).unwrap();
        let mut graph = TaskGraph::new(grid.len());
        for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            graph.add_dep(from, to);
        }
        let mut costs = vec![0; grid.len()];
        costs[..4].copy_from_slice(&[10, 30, 20, 5]);
        let curve = taskgraph_speedup_curve(&graph, &CostMap::from_vec(grid, costs), &[1, 2, 4]);
        let makespans: Vec<u64> = curve.iter().map(|p| p.makespan_ns).collect();
        assert_eq!(makespans, [65, 45, 45]);
        assert!((curve[0].speedup - 1.0).abs() < 1e-9);
        assert!((curve[1].speedup - 65.0 / 45.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_monotonic_for_dynamic_without_overhead() {
        let m = mandel_like_costs();
        let curve = speedup_curve(&m, Schedule::Dynamic(1), &[1, 2, 4, 8], 1, 0);
        for w in curve.windows(2) {
            assert!(w[1].speedup >= w[0].speedup - 1e-9);
        }
    }
}
