//! The discrete-event scheduling simulator.
//!
//! Virtual CPUs pull chunks from the *real* scheduling dispensers of
//! `ezp-sched` on `ezp_sched::vclock`'s loop: the lowest clock asks next
//! (ties broken by rank, so the whole simulation is deterministic).
//! Executing a chunk advances the worker's clock by the summed tile
//! costs plus a configurable per-chunk dispatch overhead.

use crate::cost::CostMap;
use ezp_core::{Schedule, WorkerId};
use ezp_monitor::report::IterationSpan;
use ezp_monitor::{MonitorReport, TileRecord};
use ezp_sched::vclock::{self, Next};
use ezp_sched::Dispenser;
use ezp_trace::{Trace, TraceMeta};

/// Simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of virtual CPUs.
    pub threads: usize,
    /// Loop scheduling policy.
    pub schedule: Schedule,
    /// Virtual cost of acquiring one chunk from the dispenser (models
    /// the OpenMP runtime's dispatch overhead; makes tiny chunks of
    /// `dynamic,1` measurably more expensive than `guided`'s big ones).
    pub dispatch_overhead_ns: u64,
}

impl SimConfig {
    /// Config with the given thread count and schedule, default overhead
    /// (100 virtual ns per chunk).
    pub fn new(threads: usize, schedule: Schedule) -> Self {
        SimConfig {
            threads,
            schedule,
            dispatch_overhead_ns: 100,
        }
    }

    /// Builder: override the dispatch overhead.
    pub fn overhead(mut self, ns: u64) -> Self {
        self.dispatch_overhead_ns = ns;
        self
    }
}

/// One simulated task: a tile executed by a virtual CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimTask {
    /// Linear tile index in the grid.
    pub tile_index: usize,
    /// Virtual CPU that executed it.
    pub worker: WorkerId,
    /// Virtual start time (ns).
    pub start_ns: u64,
    /// Virtual end time (ns).
    pub end_ns: u64,
    /// Iteration (1-based).
    pub iteration: u32,
}

/// Outcome of a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// The simulated configuration.
    pub config: SimConfig,
    /// Every executed task, in completion order per worker.
    pub tasks: Vec<SimTask>,
    /// Virtual makespan: when the last worker finished.
    pub makespan_ns: u64,
    /// Busy virtual time per worker (excludes dispatch overhead).
    pub busy_ns: Vec<u64>,
    /// Iteration spans (one per simulated iteration).
    pub iterations: Vec<IterationSpan>,
}

impl SimResult {
    /// Virtual speedup against the sequential execution of the same cost
    /// map(s): `sum(costs) / makespan`.
    pub fn speedup(&self) -> f64 {
        speedup(&self.busy_ns, self.makespan_ns)
    }

    /// Parallel efficiency in `[0, 1]`: speedup / threads.
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.config.threads as f64
    }

    /// Converts the simulation into a regular trace over `cost_map`'s
    /// grid, so EASYVIEW and the monitor analyses apply unchanged.
    pub fn to_trace(&self, cost_map: &CostMap, kernel: &str, variant: &str) -> Trace {
        let grid = cost_map.grid();
        let mut tasks: Vec<TileRecord> = self
            .tasks
            .iter()
            .map(|t| {
                let tile = grid.tile_at(t.tile_index);
                TileRecord {
                    iteration: t.iteration,
                    x: tile.x,
                    y: tile.y,
                    w: tile.w,
                    h: tile.h,
                    start_ns: t.start_ns,
                    end_ns: t.end_ns,
                    worker: t.worker,
                }
            })
            .collect();
        tasks.sort_by_key(|t| (t.iteration, t.start_ns));
        Trace {
            meta: TraceMeta {
                kernel: kernel.to_string(),
                variant: variant.to_string(),
                dim: grid.width(),
                tile_size: grid.tile_w(),
                threads: self.config.threads,
                schedule: self.config.schedule.as_omp_str(),
                label: format!("sim {kernel}/{variant} P={}", self.config.threads),
            },
            iterations: self.iterations.clone(),
            tasks,
            edges: Vec::new(),
            counters: None,
        }
    }

    /// Re-materializes a [`MonitorReport`] for tiling/activity analyses.
    pub fn to_report(&self, cost_map: &CostMap, kernel: &str, variant: &str) -> MonitorReport {
        self.to_trace(cost_map, kernel, variant)
            .into_report()
            .expect("simulated trace is always well-formed")
    }
}

/// Total busy time over `makespan_ns`: 1 for an empty run.
pub(crate) fn speedup(busy_ns: &[u64], makespan_ns: u64) -> f64 {
    match makespan_ns {
        0 => 1.0,
        m => busy_ns.iter().sum::<u64>() as f64 / m as f64,
    }
}

/// Simulates one iteration (one scheduled loop over all tiles).
pub fn simulate(cost_map: &CostMap, config: SimConfig) -> SimResult {
    simulate_iterations(cost_map, config, 1)
}

/// Simulates `iterations` successive scheduled loops over the same cost
/// map (a fresh dispenser per iteration, workers re-synchronized at the
/// implicit barrier between loops, like `#pragma omp for` in Fig. 2).
pub fn simulate_iterations(cost_map: &CostMap, config: SimConfig, iterations: u32) -> SimResult {
    assert!(config.threads > 0, "simulation needs at least one CPU");
    let n = cost_map.len();
    let mut tasks = Vec::with_capacity(n * iterations as usize);
    let mut busy_ns = vec![0u64; config.threads];
    let mut spans = Vec::with_capacity(iterations as usize);
    let mut now = 0u64; // barrier time at the start of each iteration

    for it in 1..=iterations {
        let disp = Dispenser::new(config.schedule, n, config.threads);
        let start_ns = now;
        now = vclock::run(config.threads, start_ns, |rank, t| {
            let Some((start, len)) = disp.next(rank) else {
                return Next::Leave; // barrier at loop end
            };
            let chunk_start = t + config.dispatch_overhead_ns;
            let mut clock = chunk_start;
            tasks.extend((start..start + len).map(|i| {
                let start_ns = clock;
                clock += cost_map.cost(i);
                SimTask {
                    tile_index: i,
                    worker: rank,
                    start_ns,
                    end_ns: clock,
                    iteration: it,
                }
            }));
            busy_ns[rank] += clock - chunk_start;
            Next::BusyUntil(clock)
        });
        spans.push(IterationSpan {
            iteration: it,
            start_ns,
            end_ns: now,
        });
    }

    SimResult {
        config,
        tasks,
        makespan_ns: now,
        busy_ns,
        iterations: spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::any_u64;

    fn grid4() -> TileGrid {
        TileGrid::square(64, 16).unwrap() // 4x4 = 16 tiles
    }

    fn no_overhead(threads: usize, s: Schedule) -> SimConfig {
        SimConfig::new(threads, s).overhead(0)
    }

    #[test]
    fn single_cpu_makespan_is_total_cost() {
        let m = CostMap::uniform(grid4(), 10);
        let r = simulate(&m, no_overhead(1, Schedule::Static));
        assert_eq!(r.makespan_ns, 160);
        assert_eq!(r.busy_ns, vec![160]);
        assert!((r.speedup() - 1.0).abs() < 1e-9);
        assert_eq!(r.tasks.len(), 16);
    }

    #[test]
    fn uniform_work_scales_almost_linearly() {
        let m = CostMap::uniform(grid4(), 100);
        for sched in [
            Schedule::Static,
            Schedule::Dynamic(1),
            Schedule::Guided(1),
            Schedule::NonmonotonicDynamic(1),
        ] {
            let r = simulate(&m, no_overhead(4, sched));
            assert_eq!(r.makespan_ns, 400, "{sched:?}");
            assert!((r.speedup() - 4.0).abs() < 1e-9, "{sched:?}");
            assert!((r.efficiency() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn every_tile_executed_exactly_once_per_iteration() {
        let m = CostMap::from_fn(grid4(), |t| 1 + (t.tx * 7 + t.ty * 13) as u64);
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(2),
            Schedule::Guided(2),
            Schedule::NonmonotonicDynamic(1),
        ] {
            let r = simulate_iterations(&m, no_overhead(3, sched), 4);
            assert_eq!(r.tasks.len(), 16 * 4);
            for it in 1..=4 {
                let mut count = [0usize; 16];
                for t in r.tasks.iter().filter(|t| t.iteration == it) {
                    count[t.tile_index] += 1;
                }
                assert!(count.iter().all(|&c| c == 1), "{sched:?} iteration {it}");
            }
        }
    }

    #[test]
    fn makespan_bounds_hold() {
        let m = CostMap::from_fn(grid4(), |t| if t.tx == 0 && t.ty == 0 { 1000 } else { 10 });
        for threads in [1, 2, 4, 8] {
            let r = simulate(&m, no_overhead(threads, Schedule::Dynamic(1)));
            let total = m.total();
            assert!(r.makespan_ns >= total / threads as u64, "work bound");
            assert!(r.makespan_ns >= m.max(), "critical-path bound");
            assert!(r.makespan_ns <= total, "never slower than sequential");
        }
    }

    #[test]
    fn dynamic_beats_static_under_imbalance() {
        // the Fig. 3 situation: one heavy region, static suffers
        let grid = TileGrid::square(256, 16).unwrap(); // 16x16 tiles
        let m = CostMap::from_fn(grid, |t| if t.ty >= 12 { 1000 } else { 10 });
        let stat = simulate(&m, no_overhead(4, Schedule::Static));
        let dyn1 = simulate(&m, no_overhead(4, Schedule::Dynamic(1)));
        let steal = simulate(&m, no_overhead(4, Schedule::NonmonotonicDynamic(1)));
        let guided = simulate(&m, no_overhead(4, Schedule::Guided(1)));
        assert!(
            dyn1.speedup() > stat.speedup() * 1.3,
            "dynamic {:.2} should beat static {:.2} clearly",
            dyn1.speedup(),
            stat.speedup()
        );
        assert!(steal.speedup() > stat.speedup() * 1.3);
        assert!(guided.speedup() > stat.speedup());
    }

    #[test]
    fn static_assignment_is_contiguous_blocks() {
        let m = CostMap::uniform(grid4(), 5);
        let r = simulate(&m, no_overhead(4, Schedule::Static));
        assert_eq!(r.tasks.len(), 16);
        // 16 tiles / 4 threads: tiles 0..4 -> worker 0, 4..8 -> 1, ...
        for t in &r.tasks {
            assert_eq!(t.worker, t.tile_index / 4);
        }
    }

    #[test]
    fn overhead_penalizes_small_chunks() {
        let m = CostMap::uniform(grid4(), 100);
        let cfg_small = SimConfig::new(4, Schedule::Dynamic(1)).overhead(50);
        let cfg_big = SimConfig::new(4, Schedule::Dynamic(4)).overhead(50);
        let small = simulate(&m, cfg_small);
        let big = simulate(&m, cfg_big);
        assert!(
            small.makespan_ns > big.makespan_ns,
            "per-chunk overhead should hurt dynamic,1 ({} vs {})",
            small.makespan_ns,
            big.makespan_ns
        );
    }

    #[test]
    fn iterations_are_barrier_separated() {
        let m = CostMap::uniform(grid4(), 10);
        let r = simulate_iterations(&m, no_overhead(2, Schedule::Static), 3);
        assert_eq!(r.iterations.len(), 3);
        for w in r.iterations.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "barrier between iterations");
        }
        // no task of iteration k+1 starts before iteration k ended
        for t in &r.tasks {
            let span = r.iterations[(t.iteration - 1) as usize];
            assert!(t.start_ns >= span.start_ns && t.end_ns <= span.end_ns);
        }
    }

    #[test]
    fn trace_conversion_is_valid_and_analyzable() {
        let m = CostMap::from_fn(grid4(), |t| 10 + t.tx as u64);
        let r = simulate_iterations(&m, no_overhead(2, Schedule::Dynamic(2)), 2);
        let trace = r.to_trace(&m, "mandel", "omp_tiled");
        assert!(trace.validate().is_ok());
        assert_eq!(trace.meta.threads, 2);
        assert_eq!(trace.tasks.len(), 32);
        let report = r.to_report(&m, "mandel", "omp_tiled");
        let snap = report.tiling_snapshot(1);
        assert_eq!(snap.computed_tiles(), 16);
    }

    #[test]
    fn determinism() {
        let m = CostMap::from_fn(grid4(), |t| 1 + (t.tx ^ t.ty) as u64 * 17);
        for sched in [
            Schedule::Dynamic(1),
            Schedule::Guided(1),
            Schedule::NonmonotonicDynamic(2),
        ] {
            let a = simulate_iterations(&m, no_overhead(3, sched), 2);
            let b = simulate_iterations(&m, no_overhead(3, sched), 2);
            assert_eq!(a, b, "{sched:?} must be deterministic");
        }
    }

    #[test]
    fn more_threads_never_slow_down_uniform_work() {
        let m = CostMap::uniform(TileGrid::square(128, 16).unwrap(), 50);
        let mut prev = u64::MAX;
        for threads in [1, 2, 4, 8] {
            let r = simulate(&m, no_overhead(threads, Schedule::Dynamic(1)));
            assert!(r.makespan_ns <= prev);
            prev = r.makespan_ns;
        }
    }

    ezp_proptest! {
        #![cases(48)]

        fn prop_sim_invariants(
            dim_tiles in 1usize..8,
            threads in 1usize..7,
            which in 0usize..5,
            k in 1usize..4,
            seed in any_u64(),
        ) {
            let grid = TileGrid::square(dim_tiles * 8, 8).unwrap();
            let mut state = seed;
            let m = CostMap::from_fn(grid, |_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                1 + (state >> 33) % 100
            });
            let sched = match which {
                0 => Schedule::Static,
                1 => Schedule::StaticChunk(k),
                2 => Schedule::Dynamic(k),
                3 => Schedule::Guided(k),
                _ => Schedule::NonmonotonicDynamic(k),
            };
            let r = simulate(&m, no_overhead(threads, sched));
            // exact coverage
            assert_eq!(r.tasks.len(), m.len());
            // work and critical-path lower bounds, sequential upper bound
            let total = m.total();
            assert!(r.makespan_ns >= total.div_ceil(threads as u64));
            assert!(r.makespan_ns >= m.max());
            assert!(r.makespan_ns <= total);
            // per-worker tasks never overlap in time
            let mut per_worker: Vec<Vec<&SimTask>> = vec![Vec::new(); threads];
            for t in &r.tasks {
                per_worker[t.worker].push(t);
            }
            for tasks in &mut per_worker {
                tasks.sort_by_key(|t| t.start_ns);
                for w in tasks.windows(2) {
                    assert!(w[0].end_ns <= w[1].start_ns);
                }
            }
            // busy accounting matches task durations
            for (w, &busy) in r.busy_ns.iter().enumerate() {
                let sum: u64 = r.tasks.iter().filter(|t| t.worker == w)
                    .map(|t| t.end_ns - t.start_ns).sum();
                assert_eq!(busy, sum);
            }
        }
    }
}
