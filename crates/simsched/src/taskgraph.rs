//! Virtual-time execution of dependency task graphs (Fig. 11/12).
//!
//! List scheduling in a discrete-event loop: a task becomes *ready* when
//! its last predecessor completes; whenever a virtual CPU is free, it
//! takes the oldest ready task. This is the same greedy policy the real
//! [`ezp_sched::TaskGraph::run`] implements with worker threads, so the
//! virtual timeline has the exact dependency structure of a real run —
//! minus the single-host-CPU serialization that would otherwise mask
//! the diagonal parallelism of the ccomp wavefront.

use crate::sim::SimTask;
use ezp_sched::TaskGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

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
        let total: u64 = self.busy_ns.iter().sum();
        if self.makespan_ns == 0 {
            1.0
        } else {
            total as f64 / self.makespan_ns as f64
        }
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
    assert_eq!(costs.len(), graph.len(), "one cost per task");
    assert!(threads > 0, "need at least one CPU");
    let n = graph.len();
    let mut indegree: Vec<usize> = (0..n).map(|t| graph.indegree(t)).collect();
    // ready tasks, FIFO within equal release times
    let mut ready: VecDeque<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
    // free CPUs as (free_at, cpu) min-heap
    let mut cpus: BinaryHeap<Reverse<(u64, usize)>> =
        (0..threads).map(|c| Reverse((0u64, c))).collect();
    // tasks completing, as (end, task) min-heap
    let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut tasks: Vec<SimTask> = Vec::with_capacity(n);
    let mut busy_ns = vec![0u64; threads];
    let mut done = 0usize;
    let mut makespan = 0u64;

    while done < n {
        if let Some(&Reverse((cpu_free, _))) = cpus.peek() {
            if let Some(task) = ready.pop_front() {
                let Reverse((_, cpu)) = cpus.pop().unwrap();
                // a CPU may be free before the task was released; start
                // no earlier than the release (dependency) time, which is
                // encoded by when the task entered `ready` — we track it
                // through the completion events below, so `cpu_free` is
                // already >= release when the task is popped here.
                let start = cpu_free;
                let end = start + costs[task];
                tasks.push(SimTask {
                    tile_index: task,
                    worker: cpu,
                    start_ns: start,
                    end_ns: end,
                    iteration: 1,
                });
                busy_ns[cpu] += costs[task];
                makespan = makespan.max(end);
                running.push(Reverse((end, task)));
                cpus.push(Reverse((end, cpu)));
                continue;
            }
        }
        // no ready task (or no CPU): advance time to the next completion
        let Reverse((end, finished)) = running
            .pop()
            .expect("cycle: nothing running, nothing ready");
        // fast-forward idle CPUs to the completion time so their next
        // task cannot start before its dependencies resolved
        let mut parked = Vec::new();
        while let Some(&Reverse((free, cpu))) = cpus.peek() {
            if free < end {
                cpus.pop();
                parked.push(cpu);
            } else {
                break;
            }
        }
        for cpu in parked {
            cpus.push(Reverse((end, cpu)));
        }
        for &d in graph.dependents(finished) {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push_back(d);
            }
        }
        done += 1;
    }

    // critical path by longest-path DP over a topological order
    let mut dist = vec![0u64; n];
    let mut order = Vec::with_capacity(n);
    graph.run_seq(|t, _| order.push(t)).expect("acyclic");
    let mut critical = 0u64;
    for &t in &order {
        dist[t] += costs[t];
        critical = critical.max(dist[t]);
        for &d in graph.dependents(t) {
            dist[d] = dist[d].max(dist[t]);
        }
    }

    TaskGraphSim {
        tasks,
        makespan_ns: makespan,
        busy_ns,
        critical_path_ns: critical,
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
