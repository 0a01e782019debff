//! Virtual-time execution of dependency task graphs (Fig. 11/12).
//!
//! [`simulate_taskgraph`] is accounting over [`TaskGraph::replay`]: the
//! runtime's own scheduler — tasks seeded round-robin into per-worker
//! deques, a worker popping its newest task and stealing the oldest
//! round the ring — run on virtual CPUs, a task releasing its
//! dependents at its virtual end. The timeline thus has the dependency
//! structure and the scheduling policy of a real run, without the host
//! CPU count that caps the diagonal parallelism a wall clock can show.

use crate::sim::SimTask;
use ezp_sched::TaskGraph;

/// Result of a simulated task-graph execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskGraphSim {
    /// One entry per task (same `tile_index` = task id convention as
    /// loop simulations; `iteration` is always 1).
    pub tasks: Vec<SimTask>,
    /// Virtual completion time.
    pub makespan_ns: u64,
    /// Busy time per virtual CPU.
    pub busy_ns: Vec<u64>,
    /// The critical-path length (longest cost-weighted dependency
    /// chain) — the theoretical lower bound on any schedule.
    pub critical_path_ns: u64,
}

impl TaskGraphSim {
    /// Parallel speedup over sequential execution of all tasks.
    pub fn speedup(&self) -> f64 {
        crate::sim::speedup(&self.busy_ns, self.makespan_ns)
    }

    /// Maximum number of tasks executing simultaneously in virtual time.
    pub fn max_parallelism(&self) -> usize {
        let mut events: Vec<(u64, i32)> = Vec::with_capacity(self.tasks.len() * 2);
        for t in &self.tasks {
            events.push((t.start_ns, 1));
            events.push((t.end_ns, -1));
        }
        events.sort_by_key(|&(t, d)| (t, d)); // ends (-1) before starts at ties
        let mut cur = 0i32;
        let mut max = 0i32;
        for (_, d) in events {
            cur += d;
            max = max.max(cur);
        }
        max.max(0) as usize
    }
}

/// Simulates `graph` on `threads` virtual CPUs, task `i` costing
/// `costs[i]` virtual ns.
///
/// # Panics
///
/// Panics when `costs.len() != graph.len()` or when the graph has a
/// cycle (use [`TaskGraph::run_seq`] first to validate untrusted graphs).
pub fn simulate_taskgraph(graph: &TaskGraph, costs: &[u64], threads: usize) -> TaskGraphSim {
    let started = graph.replay(threads, costs);
    let mut busy_ns = vec![0u64; threads];
    // longest chain ending at each task; start order is topological
    let mut chain = vec![0u64; graph.len()];
    let mut tasks = Vec::with_capacity(graph.len());
    for (task, worker, start_ns) in started.unwrap_or_else(|e| panic!("{e}")) {
        busy_ns[worker] += costs[task];
        chain[task] += costs[task];
        for &d in graph.dependents(task) {
            chain[d] = chain[d].max(chain[task]);
        }
        tasks.push(SimTask {
            tile_index: task,
            worker,
            start_ns,
            end_ns: start_ns + costs[task],
            iteration: 1,
        });
    }
    TaskGraphSim {
        makespan_ns: tasks.iter().map(|t| t.end_ns).max().unwrap_or(0),
        critical_path_ns: chain.into_iter().max().unwrap_or(0),
        tasks,
        busy_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;

    #[test]
    fn independent_tasks_fill_all_cpus() {
        let graph = TaskGraph::new(8);
        let sim = simulate_taskgraph(&graph, &[10; 8], 4);
        assert_eq!(sim.makespan_ns, 20);
        assert_eq!(sim.max_parallelism(), 4);
        assert!((sim.speedup() - 4.0).abs() < 1e-9);
        assert_eq!(sim.critical_path_ns, 10);
    }

    #[test]
    fn chain_is_fully_sequential() {
        let mut graph = TaskGraph::new(5);
        for i in 0..4 {
            graph.add_dep(i, i + 1);
        }
        let sim = simulate_taskgraph(&graph, &[7; 5], 4);
        assert_eq!(sim.makespan_ns, 35);
        assert_eq!(sim.max_parallelism(), 1);
        assert_eq!(sim.critical_path_ns, 35);
    }

    #[test]
    fn dependencies_are_never_violated() {
        let grid = TileGrid::square(80, 10).unwrap(); // 8x8 wavefront
        let graph = TaskGraph::down_right_wavefront(&grid);
        let costs: Vec<u64> = (0..64).map(|i| 5 + (i % 7) as u64).collect();
        let sim = simulate_taskgraph(&graph, &costs, 4);
        let end_of: std::collections::HashMap<usize, u64> =
            sim.tasks.iter().map(|t| (t.tile_index, t.end_ns)).collect();
        for t in &sim.tasks {
            for pred in 0..64 {
                if graph.dependents(pred).contains(&t.tile_index) {
                    assert!(
                        end_of[&pred] <= t.start_ns,
                        "task {} started before predecessor {} finished",
                        t.tile_index,
                        pred
                    );
                }
            }
        }
        // makespan bounds
        let total: u64 = costs.iter().sum();
        assert!(sim.makespan_ns >= sim.critical_path_ns);
        assert!(sim.makespan_ns >= total / 4);
        assert!(sim.makespan_ns <= total);
    }

    #[test]
    fn wavefront_exposes_diagonal_parallelism() {
        // the Fig. 12 property: an 8x8 wavefront on 4 CPUs overlaps
        // tasks (up to min(diagonal, CPUs))
        let grid = TileGrid::square(64, 8).unwrap();
        let graph = TaskGraph::down_right_wavefront(&grid);
        let sim = simulate_taskgraph(&graph, &[10; 64], 4);
        assert!(sim.max_parallelism() >= 3, "got {}", sim.max_parallelism());
        assert!(sim.speedup() > 2.0);
        // and with one CPU it degenerates to sequential
        let seq = simulate_taskgraph(&graph, &[10; 64], 1);
        assert_eq!(seq.max_parallelism(), 1);
        assert_eq!(seq.makespan_ns, 640);
    }

    #[test]
    fn one_cpu_runs_the_runtime_order() {
        let grid = TileGrid::square(80, 10).unwrap(); // 8x8 wavefront
        let graph = TaskGraph::down_right_wavefront(&grid);
        let costs: Vec<u64> = (0..64).map(|i| 5 + (i % 7) as u64).collect();
        let sim = simulate_taskgraph(&graph, &costs, 1);
        let order = std::sync::Mutex::new(Vec::new());
        let mut pool = ezp_sched::WorkerPool::new(1);
        graph
            .run_probed(&mut pool, &ezp_core::kernel::NullProbe, |t, _| {
                order.lock().unwrap().push(t)
            })
            .unwrap();
        let simulated: Vec<usize> = sim.tasks.iter().map(|t| t.tile_index).collect();
        assert_eq!(simulated, order.into_inner().unwrap());
    }

    #[test]
    fn heterogeneous_costs_respect_critical_path() {
        // diamond with one heavy branch
        let mut graph = TaskGraph::new(4);
        graph.add_dep(0, 1);
        graph.add_dep(0, 2);
        graph.add_dep(1, 3);
        graph.add_dep(2, 3);
        let sim = simulate_taskgraph(&graph, &[5, 100, 10, 5], 2);
        assert_eq!(sim.critical_path_ns, 110);
        assert_eq!(sim.makespan_ns, 110); // 2 CPUs hide the cheap branch
    }
}
