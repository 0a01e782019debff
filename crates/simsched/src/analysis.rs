//! Speedup curves over simulated executions — the machinery behind the
//! Fig. 6 reproduction.

use crate::cost::CostMap;
use crate::sim::{simulate_iterations, SimConfig};
use ezp_core::Schedule;

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
    let ref_time = simulate_iterations(
        cost_map,
        SimConfig::new(1, Schedule::Static).overhead(dispatch_overhead_ns),
        iterations,
    )
    .makespan_ns;
    thread_counts
        .iter()
        .map(|&threads| {
            let r = simulate_iterations(
                cost_map,
                SimConfig::new(threads, schedule).overhead(dispatch_overhead_ns),
                iterations,
            );
            SpeedupPoint {
                threads,
                makespan_ns: r.makespan_ns,
                speedup: ref_time as f64 / r.makespan_ns.max(1) as f64,
            }
        })
        .collect()
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
    fn speedup_is_monotonic_for_dynamic_without_overhead() {
        let m = mandel_like_costs();
        let curve = speedup_curve(&m, Schedule::Dynamic(1), &[1, 2, 4, 8], 1, 0);
        for w in curve.windows(2) {
            assert!(w[1].speedup >= w[0].speedup - 1e-9);
        }
    }
}
