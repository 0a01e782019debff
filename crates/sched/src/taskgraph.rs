//! OpenMP-style tasks with dependencies.
//!
//! The connected-components assignment (paper §III-C) parallelizes a 2D
//! propagation with `#pragma omp task depend(in: left, up) depend(inout:
//! self)` (Fig. 11), producing the diagonal "wave of tasks" EASYVIEW
//! visualizes in Fig. 12. [`TaskGraph`] is that runtime: a DAG of task
//! ids executed by a [`WorkerPool`] such that a task never starts before
//! all of its predecessors completed.

// No lock type, hash-seeded collection or wall clock outside tests:
// the list is `clippy.toml` (docs/static-analysis.md).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::deque::{Steal, TaskDeque};
use crate::park::ParkLot;
use crate::pool::WorkerPool;
use crate::vclock::Next;
use ezp_core::error::{Error, Result};
use ezp_core::kernel::{EdgeKind, IdleCause, NullProbe, Probe, RuntimeEvent};
use ezp_core::time::now_ns;
use ezp_core::{TileGrid, WorkerId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// A directed acyclic graph of `n` tasks (ids `0..n`).
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// `dependents[t]` = tasks that must wait for `t`.
    dependents: Vec<Vec<usize>>,
    /// `kinds[t][i]` = edge family of the edge `t → dependents[t][i]`
    /// (kept parallel to `dependents` so the hot release loop, which
    /// only walks `dependents`, stays untouched).
    kinds: Vec<Vec<EdgeKind>>,
    /// Number of predecessors per task.
    indegree: Vec<usize>,
}

impl TaskGraph {
    /// Creates a graph of `n` independent tasks.
    pub fn new(n: usize) -> Self {
        TaskGraph {
            dependents: vec![Vec::new(); n],
            kinds: vec![Vec::new(); n],
            indegree: vec![0; n],
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.indegree.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.indegree.is_empty()
    }

    /// Declares that `after` cannot start before `before` completed
    /// (`depend(in: before) depend(inout: after)`). The edge is a
    /// [`EdgeKind::Data`] dependency; streaming skeletons use
    /// [`TaskGraph::add_dep_kind`] for their width/capacity families.
    pub fn add_dep(&mut self, before: usize, after: usize) {
        self.add_dep_kind(before, after, EdgeKind::Data);
    }

    /// [`TaskGraph::add_dep`] with an explicit edge family, so traces
    /// can distinguish true data flow from structural backpressure.
    pub fn add_dep_kind(&mut self, before: usize, after: usize, kind: EdgeKind) {
        assert!(
            before < self.len() && after < self.len(),
            "task id out of range"
        );
        assert_ne!(before, after, "a task cannot depend on itself");
        self.dependents[before].push(after);
        self.kinds[before].push(kind);
        self.indegree[after] += 1;
    }

    /// Predecessor count of `task`.
    pub fn indegree(&self, task: usize) -> usize {
        self.indegree[task]
    }

    /// Tasks that directly depend on `task` (its successors).
    pub fn dependents(&self, task: usize) -> &[usize] {
        &self.dependents[task]
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.dependents.iter().map(Vec::len).sum()
    }

    /// Visits every edge as `(before, after, kind)`, in task order.
    pub fn for_each_edge(&self, mut f: impl FnMut(usize, usize, EdgeKind)) {
        for t in 0..self.len() {
            for (i, &d) in self.dependents[t].iter().enumerate() {
                f(t, d, self.kinds[t][i]);
            }
        }
    }

    /// The down-right wavefront over a tile grid: tile `(tx, ty)` depends
    /// on its left and upper neighbours — the exact dependence pattern of
    /// Fig. 11. Task ids are the grid's linear indices.
    pub fn down_right_wavefront(grid: &TileGrid) -> Self {
        let mut g = TaskGraph::new(grid.len());
        for t in grid.iter() {
            let id = grid.linear_index(t.tx, t.ty);
            if t.tx > 0 {
                g.add_dep(grid.linear_index(t.tx - 1, t.ty), id);
            }
            if t.ty > 0 {
                g.add_dep(grid.linear_index(t.tx, t.ty - 1), id);
            }
        }
        g
    }

    /// The symmetric up-left wavefront: tile `(tx, ty)` depends on its
    /// right and lower neighbours (the second phase of `ccomp`).
    pub fn up_left_wavefront(grid: &TileGrid) -> Self {
        let mut g = TaskGraph::new(grid.len());
        for t in grid.iter() {
            let id = grid.linear_index(t.tx, t.ty);
            if t.tx + 1 < grid.tiles_x() {
                g.add_dep(grid.linear_index(t.tx + 1, t.ty), id);
            }
            if t.ty + 1 < grid.tiles_y() {
                g.add_dep(grid.linear_index(t.tx, t.ty + 1), id);
            }
        }
        g
    }

    /// Executes every task sequentially on the calling thread, passing
    /// rank 0 — the same `f(task, rank)` shape as [`TaskGraph::run`], so
    /// one closure serves both the `seq` and `taskdep` variants of a
    /// kernel.
    ///
    /// **Execution-order guarantee**: `run_seq` is fully deterministic —
    /// a Kahn traversal whose ready queue is FIFO and is seeded with the
    /// initially-ready tasks in ascending id order, so the same graph
    /// always replays the same order. This is a *stronger* contract than
    /// [`TaskGraph::run`], which only promises a valid topological order
    /// (a task never starts before its predecessors complete) and
    /// deliberately guarantees nothing else: which worker runs a task and
    /// how concurrent ready tasks interleave is up to the OS scheduler.
    /// Tests that need to explore those interleavings deterministically
    /// drive the executor's own step under an explicit strategy with
    /// `vexec::virtual_deque_taskgraph` (feature `ezp-check`).
    ///
    /// Returns [`Error::Config`] when the graph has a cycle.
    pub fn run_seq(&self, mut f: impl FnMut(usize, WorkerId)) -> Result<()> {
        let mut indegree = self.indegree.clone();
        let mut ready: VecDeque<usize> = (0..self.len()).filter(|&t| indegree[t] == 0).collect();
        let mut done = 0;
        while let Some(t) = ready.pop_front() {
            f(t, 0);
            done += 1;
            for &d in &self.dependents[t] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    ready.push_back(d);
                }
            }
        }
        if done != self.len() {
            return Err(Error::Config(format!(
                "task graph has a cycle: only {done}/{} tasks runnable",
                self.len()
            )));
        }
        Ok(())
    }

    /// Executes the graph on the pool: workers pick ready tasks, run
    /// `f(task, rank)`, and release dependents. Returns when all tasks
    /// completed, or with an error when the graph has a cycle.
    pub fn run(&self, pool: &mut WorkerPool, f: impl Fn(usize, WorkerId) + Sync) -> Result<()> {
        self.run_probed(pool, &NullProbe, f)
    }

    /// [`TaskGraph::run`] with a probe receiving [`RuntimeEvent`]s:
    /// one `ChunkDispensed` per task picked, a `DequeSteal` per task
    /// obtained from another worker's deque, and a `TaskWait` plus the
    /// waited `IdleNs` each time a worker parks with no ready task in
    /// sight. Timing only happens when the probe wants events.
    ///
    /// ## Execution model (lock-free)
    ///
    /// Each worker owns a [`TaskDeque`] of ready task ids: it pushes
    /// dependents it releases and pops them back LIFO; when its own
    /// deque is dry it steals FIFO from the others. No mutex guards the
    /// ready state — an earlier version serialized every pick on a
    /// global `Mutex<VecDeque>`, which is exactly the contention a
    /// task-per-tile wavefront (Fig. 11/12) exposes.
    ///
    /// Termination and cycle detection ride three SeqCst counters:
    /// `pending` (tasks not yet completed), `active` (workers inside a
    /// busy streak — raised before the first pick attempt, lowered only
    /// after a pick found nothing anywhere) and `events` (completion
    /// epochs). A worker that finds no task anywhere decrements
    /// `active` and then checks, in order: `events` snapshot → all
    /// deques empty → `active == 0` → `events` unchanged → `pending >
    /// 0`. In the SeqCst total order any in-flight completion either
    /// bumps `events` inside the window (check fails, retry), leaves a
    /// pushed dependent visible to the scan, or leaves its claimant
    /// visible in `active` — so a clean pass proves no task is running
    /// or ready, and remaining `pending` tasks form a cycle. Workers
    /// with nothing to do park on a [`ParkLot`] whose wake condition
    /// (completion count moved, or a deque became non-empty) every
    /// completer makes true before notifying.
    ///
    /// # Panics
    ///
    /// Panics if a task panics, once every worker has left the region
    /// (tasks not yet started are skipped).
    pub fn run_probed(
        &self,
        pool: &mut WorkerPool,
        probe: &dyn Probe,
        f: impl Fn(usize, WorkerId) + Sync,
    ) -> Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        // Edge provenance for tracers: enumerate the DAG once, before
        // any task runs, so the recorded trace is a timed graph rather
        // than a bag of intervals. Gated separately — O(edges) work only
        // a tracer should pay.
        if probe.wants_dep_edges() {
            self.for_each_edge(|from, to, kind| probe.dep_edge(from, to, kind));
        }
        let run = GraphRun::new(self, pool.width(), probe);
        crate::parallel::run_region_probed(pool, probe, run.timed, |rank| {
            let mut busy = false;
            loop {
                match run.step(rank, &mut busy, &f) {
                    GraphStep::Task(_) => {}
                    GraphStep::Idle(seen) => run.park(rank, seen),
                    GraphStep::Done | GraphStep::Cyclic => return,
                }
            }
        });
        run.outcome()
    }

    /// [`TaskGraph::run`] on `workers` virtual workers of
    /// [`vclock`](crate::vclock), task `t` costing `cost[t]` virtual ns:
    /// a task completes, releasing its dependents, at its virtual end.
    /// Returns `(task, worker, start_ns)` in start order, or the cycle
    /// error of `run`.
    pub fn replay(&self, workers: usize, cost: &[u64]) -> Result<Vec<(usize, WorkerId, u64)>> {
        assert_eq!(cost.len(), self.len(), "one cost per task");
        assert!(workers > 0, "a replay needs at least one worker");
        let run = GraphRun::new(self, workers, &NullProbe);
        let mut busy = vec![false; workers];
        let mut running = vec![None; workers];
        let mut started = Vec::with_capacity(self.len());
        crate::vclock::run(workers, 0, |rank, now| {
            if let Some(task) = running[rank].take() {
                run.complete(rank, task);
            }
            match run.take(rank, &mut busy[rank]) {
                GraphStep::Task(task) => {
                    running[rank] = Some(task);
                    started.push((task, rank, now));
                    Next::BusyUntil(now + cost[task])
                }
                GraphStep::Idle(_) => Next::Park,
                GraphStep::Done | GraphStep::Cyclic => Next::Leave,
            }
        });
        run.outcome()?;
        Ok(started)
    }
}

/// What one [`GraphRun::take`] or [`GraphRun::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GraphStep {
    /// Picked this task (`step`: and ran it).
    Task(usize),
    /// Found no task anywhere, and cannot tell yet whether the rest is
    /// cyclic: the worker should wait for [`GraphRun::should_wake`]
    /// with this `events` snapshot.
    Idle(u64),
    /// Every task completed, or a peer halted the run: leave.
    Done,
    /// This worker proved the remainder cyclic and halted the run.
    Cyclic,
}

/// The shared state of one [`TaskGraph::run_probed`] execution and its
/// per-worker body as a non-blocking [`step`](GraphRun::step). The
/// pool's workers call `step` in a loop, parking between idle steps;
/// `vexec::virtual_deque_taskgraph` (`ezp-check`) calls it under an
/// explicit interleaving, [`TaskGraph::replay`] its halves in virtual time.
pub(crate) struct GraphRun<'a> {
    graph: &'a TaskGraph,
    probe: &'a dyn Probe,
    /// Whether `probe` wants runtime events (and so clock reads).
    pub(crate) timed: bool,
    /// One deque per worker, each sized for the whole graph: a worker
    /// can release at most n-1 dependents into its own deque.
    deques: Vec<TaskDeque>,
    indegree: Vec<AtomicUsize>,
    /// Tasks not yet completed.
    pending: AtomicUsize,
    /// Workers inside a busy streak.
    active: AtomicUsize,
    /// Completion epochs.
    events: AtomicU64,
    /// Raised when the run cannot finish — the remainder is cyclic, or
    /// a task panicked — so every worker leaves the region.
    halt: AtomicBool,
    idle: ParkLot,
}

/// A task that unwinds never reports completion; without this its
/// peers would park forever on `pending`. Releasing them closes the
/// region, and the pool re-raises the panic.
struct ReleasePeersOnUnwind<'a>(&'a AtomicBool, &'a ParkLot);

impl Drop for ReleasePeersOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
            self.1.notify();
        }
    }
}

impl<'a> GraphRun<'a> {
    pub(crate) fn new(graph: &'a TaskGraph, workers: usize, probe: &'a dyn Probe) -> Self {
        let n = graph.len();
        let deques: Vec<TaskDeque> = (0..workers).map(|_| TaskDeque::with_capacity(n)).collect();
        // Seed initially-ready tasks round-robin so every worker starts
        // with local work when the frontier is wide.
        for (i, t) in (0..n).filter(|&t| graph.indegree[t] == 0).enumerate() {
            deques[i % workers].push(t);
        }
        GraphRun {
            graph,
            probe,
            timed: probe.wants_runtime_events(),
            deques,
            indegree: graph
                .indegree
                .iter()
                .map(|&d| AtomicUsize::new(d))
                .collect(),
            pending: AtomicUsize::new(n),
            active: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            halt: AtomicBool::new(false),
            idle: ParkLot::new(),
        }
    }

    /// One scheduling action of worker `rank`: [`take`](Self::take), `f`
    /// and [`complete`](Self::complete). `busy` is the worker's own flag
    /// (initially false) saying it is counted in `active`.
    #[inline]
    pub(crate) fn step(
        &self,
        rank: WorkerId,
        busy: &mut bool,
        f: impl FnOnce(usize, WorkerId),
    ) -> GraphStep {
        let step = self.take(rank, busy);
        if let GraphStep::Task(task) = step {
            let release = ReleasePeersOnUnwind(&self.halt, &self.idle);
            f(task, rank);
            drop(release);
            self.complete(rank, task);
        }
        step
    }

    /// A step up to the task: the `active` claim, the pop or steal, and
    /// with no task in sight the termination / cycle check.
    #[inline]
    pub(crate) fn take(&self, rank: WorkerId, busy: &mut bool) -> GraphStep {
        let threads = self.deques.len();
        let my = &self.deques[rank];
        if !*busy {
            if self.pending.load(Ordering::SeqCst) == 0 || self.halt.load(Ordering::SeqCst) {
                return GraphStep::Done;
            }
            // Claim before looking: `active` makes this worker's
            // pick attempts visible to concurrent cycle checks. It
            // is raised once per busy *streak*, not per task, so
            // consecutive local pops pay no extra RMW traffic.
            self.active.fetch_add(1, Ordering::SeqCst);
            *busy = true;
        }
        let mut task = my.pop();
        if task.is_none() {
            'victims: for i in 1..threads {
                let victim = &self.deques[(rank + i) % threads];
                loop {
                    match victim.steal() {
                        Steal::Success(t) => {
                            if self.timed {
                                self.probe.runtime_event(rank, RuntimeEvent::DequeSteal);
                            }
                            task = Some(t);
                            break 'victims;
                        }
                        // A failed CAS means another thief won;
                        // re-read rather than move on, the victim
                        // may hold more.
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => continue 'victims,
                    }
                }
            }
        }
        let Some(task) = task else {
            *busy = false;
            self.active.fetch_sub(1, Ordering::SeqCst);
            // Termination / cycle check (see `run_probed`'s docs).
            let e0 = self.events.load(Ordering::SeqCst);
            let all_empty = self.deques.iter().all(|d| d.len_hint() == 0);
            let quiet = self.active.load(Ordering::SeqCst) == 0;
            let stable = self.events.load(Ordering::SeqCst) == e0;
            if self.pending.load(Ordering::SeqCst) == 0 {
                return GraphStep::Done;
            }
            if all_empty && quiet && stable {
                // No task running, none ready, some pending:
                // the remainder is cyclic.
                self.halt.store(true, Ordering::SeqCst);
                self.idle.notify();
                return GraphStep::Cyclic;
            }
            return GraphStep::Idle(e0);
        };
        if self.timed {
            self.probe
                .runtime_event(rank, RuntimeEvent::ChunkDispensed { len: 1 });
        }
        GraphStep::Task(task)
    }

    /// A step after `task` ran: release its dependents into `rank`'s
    /// deque, publish the completion, wake parked peers.
    #[inline]
    pub(crate) fn complete(&self, rank: WorkerId, task: usize) {
        let my = &self.deques[rank];
        let mut released = false;
        // ORDERING: synchronizing. Each predecessor's Release
        // half orders its task's effects before the decrement;
        // the Acquire half of the *final* decrement (the one
        // seeing 1) makes every predecessor's effects visible
        // to whoever runs the released dependent.
        for &d in &self.graph.dependents[task] {
            if self.indegree[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                my.push(d);
                released = true;
            }
        }
        // Publish completion: the pushes above happen-before
        // the `events` bump, which happens-before the
        // `pending` decrement — the order the cycle check
        // relies on. Notify last, once the wake conditions
        // are true — and only when a sleeper could actually
        // have something to do: a dependent became ready, or
        // this was the final task. A completion that releases
        // nothing mid-graph leaves parked workers parked
        // instead of waking the whole lot per task.
        self.events.fetch_add(1, Ordering::SeqCst);
        let left = self.pending.fetch_sub(1, Ordering::SeqCst);
        if released || left == 1 {
            self.idle.notify();
        }
    }

    /// The wake condition of a worker whose step was `Idle(seen)`:
    /// every completer makes it true before notifying.
    #[inline]
    pub(crate) fn should_wake(&self, seen: u64) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
            || self.halt.load(Ordering::SeqCst)
            || self.events.load(Ordering::SeqCst) != seen
            || self.deques.iter().any(|d| d.len_hint() > 0)
    }

    /// Parks `rank` until [`GraphRun::should_wake`], reporting the wait.
    fn park(&self, rank: WorkerId, seen: u64) {
        let t0 = if self.timed {
            self.probe.runtime_event(rank, RuntimeEvent::TaskWait);
            now_ns()
        } else {
            0
        };
        self.idle.wait_until(|| self.should_wake(seen));
        if self.timed {
            self.probe.runtime_event(
                rank,
                RuntimeEvent::IdleNs {
                    ns: now_ns().saturating_sub(t0),
                    cause: IdleCause::DepStall,
                },
            );
        }
    }

    /// The conservation laws that hold whenever no step is in flight:
    /// `events` counts exactly the completed tasks, and `active` exactly
    /// the workers whose `busy` flag is up (`busy` of them).
    #[cfg(any(test, feature = "ezp-check"))]
    pub(crate) fn assert_consistent(&self, busy: usize) {
        let n = self.graph.len();
        let pending = self.pending.load(Ordering::SeqCst);
        assert_eq!(
            self.events.load(Ordering::SeqCst) as usize,
            n - pending,
            "`events` lost a completion ({pending} of {n} tasks pending)"
        );
        assert_eq!(
            self.active.load(Ordering::SeqCst),
            busy,
            "`active` does not count the workers in a busy streak"
        );
    }

    /// After every worker left: `Ok`, or the cycle error.
    pub(crate) fn outcome(&self) -> Result<()> {
        if self.halt.load(Ordering::SeqCst) {
            let n = self.graph.len();
            let done = n - self.pending.load(Ordering::SeqCst);
            return Err(Error::Config(format!(
                "task graph has a cycle: only {done}/{n} tasks runnable"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::vec_of;
    use std::sync::Mutex;

    fn record_parallel(graph: &TaskGraph, threads: usize) -> Vec<usize> {
        let mut pool = WorkerPool::new(threads);
        let order = Mutex::new(Vec::new());
        graph
            .run(&mut pool, |t, _| order.lock().unwrap().push(t))
            .unwrap();
        order.into_inner().unwrap()
    }

    fn assert_topological(graph: &TaskGraph, order: &[usize]) {
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        assert_eq!(order.len(), graph.len(), "not all tasks ran");
        for t in 0..graph.len() {
            for &d in &graph.dependents[t] {
                assert!(
                    pos[&t] < pos[&d],
                    "dependency violated: {t} must precede {d} in {order:?}"
                );
            }
        }
    }

    #[test]
    fn chain_runs_in_order() {
        let mut g = TaskGraph::new(5);
        for i in 0..4 {
            g.add_dep(i, i + 1);
        }
        let order = record_parallel(&g, 4);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn diamond_respects_deps() {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1);
        g.add_dep(0, 2);
        g.add_dep(1, 3);
        g.add_dep(2, 3);
        for _ in 0..10 {
            let order = record_parallel(&g, 3);
            assert_topological(&g, &order);
            assert_eq!(order[0], 0);
            assert_eq!(order[3], 3);
        }
    }

    #[test]
    fn wavefront_order_is_diagonal() {
        let grid = TileGrid::square(40, 10).unwrap(); // 4x4 tiles
        let g = TaskGraph::down_right_wavefront(&grid);
        let order = record_parallel(&g, 4);
        assert_topological(&g, &order);
        // the first task must be the top-left corner, the last the
        // bottom-right corner — the wave of Fig. 12
        assert_eq!(order[0], 0);
        assert_eq!(*order.last().unwrap(), grid.len() - 1);
    }

    #[test]
    fn up_left_wavefront_is_reversed() {
        let grid = TileGrid::square(30, 10).unwrap(); // 3x3
        let g = TaskGraph::up_left_wavefront(&grid);
        let order = record_parallel(&g, 2);
        assert_topological(&g, &order);
        assert_eq!(order[0], grid.len() - 1); // bottom-right first
        assert_eq!(*order.last().unwrap(), 0); // top-left last
    }

    #[test]
    fn cycle_is_detected_parallel_and_seq() {
        let mut g = TaskGraph::new(3);
        g.add_dep(0, 1);
        g.add_dep(1, 2);
        g.add_dep(2, 0);
        let mut pool = WorkerPool::new(2);
        assert!(g.run(&mut pool, |_, _| {}).is_err());
        assert!(g.run_seq(|_, _| {}).is_err());
        // pool survives a cycle error
        let done = AtomicUsize::new(0);
        TaskGraph::new(2)
            .run(&mut pool, |_, _| {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn step_reports_a_cycle_only_once_no_worker_is_active() {
        // 0 is free; 1 <-> 2 can never run
        let mut g = TaskGraph::new(3);
        g.add_dep(1, 2);
        g.add_dep(2, 1);
        let run = GraphRun::new(&g, 2, &NullProbe);
        let mut busy = [false; 2];
        let ran = std::cell::Cell::new(None);
        let body = |t: usize, rank: WorkerId| ran.set(Some((t, rank)));

        assert_eq!(run.step(0, &mut busy[0], body), GraphStep::Task(0));
        assert_eq!(ran.take(), Some((0, 0)));
        // worker 0 is still in its busy streak: for all worker 1 knows
        // it holds a task whose completion releases the rest
        assert!(busy[0]);
        run.assert_consistent(1);
        let GraphStep::Idle(seen) = run.step(1, &mut busy[1], body) else {
            panic!("worker 1 called the cycle while worker 0 was active");
        };
        assert!(
            !run.should_wake(seen),
            "nothing happened worker 1 should wake for"
        );
        run.assert_consistent(1);

        // worker 0 finds nothing, leaves its streak, and is the last one
        // active: only now is the remainder provably cyclic
        assert_eq!(run.step(0, &mut busy[0], body), GraphStep::Cyclic);
        run.assert_consistent(0);
        assert!(run.should_wake(seen), "the halt must wake parked peers");
        assert_eq!(run.step(1, &mut busy[1], body), GraphStep::Done);
        assert_eq!(ran.take(), None, "a cyclic task ran");
        let err = run.outcome().unwrap_err();
        assert!(err.to_string().contains("only 1/3 tasks runnable"), "{err}");
    }

    #[test]
    fn step_runs_one_task_and_ends_with_done() {
        let mut g = TaskGraph::new(2);
        g.add_dep(0, 1);
        let run = GraphRun::new(&g, 1, &NullProbe);
        let mut busy = false;
        let order = std::cell::RefCell::new(Vec::new());
        let body = |t: usize, _: WorkerId| order.borrow_mut().push(t);
        assert_eq!(run.step(0, &mut busy, body), GraphStep::Task(0));
        assert_eq!(run.step(0, &mut busy, body), GraphStep::Task(1));
        run.assert_consistent(1);
        // the streak ends on the step that finds nothing
        assert_eq!(run.step(0, &mut busy, body), GraphStep::Done);
        run.assert_consistent(0);
        assert_eq!(*order.borrow(), [0, 1]);
        run.outcome().unwrap();
    }

    #[test]
    fn panicking_task_is_propagated_not_hung() {
        // a chain keeps the other workers waiting on the task that dies
        let mut g = TaskGraph::new(8);
        for i in 0..7 {
            g.add_dep(i, i + 1);
        }
        let mut pool = WorkerPool::new(3);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.run(&mut pool, |t, _| assert_ne!(t, 3, "student bug"))
        }));
        assert!(res.is_err(), "the task panic must propagate");
        // the pool survives and the next graph runs to completion
        let ran = AtomicUsize::new(0);
        g.run(&mut pool, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ran.into_inner(), 8);
    }

    #[test]
    fn partial_cycle_still_runs_prefix_tasks() {
        // 0 -> 1, plus a 2<->3 cycle: 0 and 1 can run, then error
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1);
        g.add_dep(2, 3);
        g.add_dep(3, 2);
        let ran = Mutex::new(Vec::new());
        let mut pool = WorkerPool::new(2);
        let err = g
            .run(&mut pool, |t, _| ran.lock().unwrap().push(t))
            .unwrap_err();
        assert!(err.to_string().contains("cycle"));
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1]);
    }

    #[test]
    fn empty_graph_is_trivially_done() {
        let g = TaskGraph::new(0);
        let mut pool = WorkerPool::new(2);
        assert!(g.run(&mut pool, |_, _| {}).is_ok());
        assert!(g.run_seq(|_, _| {}).is_ok());
    }

    #[test]
    fn seq_matches_parallel_coverage() {
        let grid = TileGrid::square(50, 10).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let mut seq_order = Vec::new();
        g.run_seq(|t, rank| {
            assert_eq!(rank, 0, "run_seq always reports rank 0");
            seq_order.push(t);
        })
        .unwrap();
        assert_topological(&g, &seq_order);
    }

    #[test]
    fn run_seq_order_is_deterministic_fifo_kahn() {
        let grid = TileGrid::square(40, 10).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let order = |g: &TaskGraph| {
            let mut o = Vec::new();
            g.run_seq(|t, _| o.push(t)).unwrap();
            o
        };
        // the documented guarantee: same graph, same order, every time
        assert_eq!(order(&g), order(&g));
        // and independent tasks come out in ascending-id (FIFO) order
        let free = TaskGraph::new(5);
        assert_eq!(order(&free), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "depend on itself")]
    fn self_dependency_rejected() {
        let mut g = TaskGraph::new(2);
        g.add_dep(1, 1);
    }

    #[test]
    fn edges_carry_their_kind() {
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1); // defaults to Data
        g.add_dep_kind(0, 2, EdgeKind::Width);
        g.add_dep_kind(2, 3, EdgeKind::Capacity);
        assert_eq!(g.edge_count(), 3);
        let mut edges = Vec::new();
        g.for_each_edge(|f, t, k| edges.push((f, t, k)));
        assert_eq!(
            edges,
            vec![
                (0, 1, EdgeKind::Data),
                (0, 2, EdgeKind::Width),
                (2, 3, EdgeKind::Capacity),
            ]
        );
    }

    #[test]
    fn run_probed_reports_edges_to_tracers() {
        use std::sync::Mutex as StdMutex;
        #[derive(Default)]
        struct EdgeTracer(StdMutex<Vec<(usize, usize, EdgeKind)>>);
        impl Probe for EdgeTracer {
            fn dep_edge(&self, from: usize, to: usize, kind: EdgeKind) {
                self.0.lock().unwrap().push((from, to, kind));
            }
            fn wants_dep_edges(&self) -> bool {
                true
            }
        }
        let grid = TileGrid::square(30, 10).unwrap(); // 3x3 tiles
        let g = TaskGraph::down_right_wavefront(&grid);
        let tracer = EdgeTracer::default();
        let mut pool = WorkerPool::new(2);
        g.run_probed(&mut pool, &tracer, |_, _| {}).unwrap();
        let edges = tracer.0.into_inner().unwrap();
        // 3x3 wavefront: 2 edges per inner tile boundary = 12 edges
        assert_eq!(edges.len(), 12);
        assert!(edges.iter().all(|&(_, _, k)| k == EdgeKind::Data));
        assert!(edges.contains(&(0, 1, EdgeKind::Data)));
        assert!(edges.contains(&(0, 3, EdgeKind::Data)));
    }

    /// A DAG on `n` tasks keeping the forward edges (`a < b`, after
    /// reducing both ends mod `n`) of `edges`: acyclic by construction.
    fn random_dag(n: usize, edges: Vec<(usize, usize)>) -> TaskGraph {
        let mut g = TaskGraph::new(n);
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if a < b {
                g.add_dep(a, b);
            }
        }
        g
    }

    #[test]
    fn replay_of_a_cycle_is_the_run_error() {
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1);
        g.add_dep(2, 3);
        g.add_dep(3, 2);
        for workers in [1, 3] {
            let err = g.replay(workers, &[10; 4]).unwrap_err();
            assert!(err.to_string().contains("only 2/4 tasks runnable"), "{err}");
        }
    }

    #[test]
    fn replay_on_one_worker_runs_run_probed_order() {
        let grid = TileGrid::square(80, 10).unwrap(); // 8x8 wavefront
        let g = TaskGraph::down_right_wavefront(&grid);
        let replayed: Vec<usize> = g.replay(1, &[1; 64]).unwrap().iter().map(|r| r.0).collect();
        assert_eq!(replayed, record_parallel(&g, 1));
    }

    ezp_proptest! {
        #![cases(32)]

        fn prop_random_dag_runs_topologically(
            n in 1usize..40,
            edges in vec_of((0usize..40, 0usize..40), 0..80),
            threads in 1usize..5,
        ) {
            let g = random_dag(n, edges);
            let order = record_parallel(&g, threads);
            assert_topological(&g, &order);
        }

        fn prop_replay_is_a_valid_schedule(
            n in 1usize..40,
            edges in vec_of((0usize..40, 0usize..40), 0..80),
            costs in vec_of(0u64..50, 40..41),
            workers in 1usize..6,
        ) {
            let g = random_dag(n, edges);
            let cost = &costs[..n];
            let started = g.replay(workers, cost).unwrap();
            let order: Vec<usize> = started.iter().map(|r| r.0).collect();
            assert_topological(&g, &order); // also: each task runs once
            let mut start = vec![0; n];
            let mut end = vec![0; n];
            for &(t, w, s) in &started {
                assert!(w < workers);
                start[t] = s;
                end[t] = s + cost[t];
            }
            let mut chain = vec![0u64; n]; // longest path ending at t
            for &t in &order {
                chain[t] += cost[t];
                for &d in &g.dependents[t] {
                    assert!(end[t] <= start[d], "{d} started before {t} ended");
                    chain[d] = chain[d].max(chain[t]);
                }
            }
            let makespan = end.iter().copied().max().unwrap();
            let total: u64 = cost.iter().sum();
            let critical = chain.iter().copied().max().unwrap();
            assert!(critical <= makespan && makespan <= total);
            assert!(total.div_ceil(workers as u64) <= makespan);
            let one = g.replay(1, cost).unwrap();
            assert_eq!(one.iter().map(|&(t, _, s)| s + cost[t]).max(), Some(total));
        }
    }
}
