//! `easyview explain`: causal profiling over a recorded trace.
//!
//! Where the Gantt view shows *what happened*, `explain` answers *why
//! the run took as long as it did*: it computes the work/span bound
//! (T₁, T∞) over the recorded dependency DAG, extracts the critical
//! path and per-task slack, breaks recorded idle time down by cause,
//! replays the DAG across virtual worker counts with `ezp-simsched`,
//! and turns all of it into ranked, rule-based recommendations.

use crate::stats::{trace_stats, DurationStats};
use ezp_core::error::Result;
use ezp_core::kernel::IdleCause;
use ezp_core::Schedule;
use ezp_perf::names::idle_cause_counter;
use ezp_sched::TaskGraph;
use ezp_simsched::{speedup_curve, taskgraph_speedup_curve, CostMap, SpeedupPoint};
use ezp_trace::Trace;
use std::fmt::Write as _;

/// Thread counts the virtual replay sweeps.
const REPLAY_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Median tile duration (ns) up to which the `grain-too-fine` rule
/// looks at a trace.
const GRAIN_FLOOR_NS: u64 = 1_000;

/// How many bottleneck tasks the report keeps.
const BOTTLENECK_LIMIT: usize = 5;

/// One task on the critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CriticalStep {
    /// Linear tile index in the grid.
    pub tile_index: usize,
    /// Tile origin x (pixels).
    pub x: usize,
    /// Tile origin y (pixels).
    pub y: usize,
    /// Task duration (ns).
    pub duration_ns: u64,
}

/// A ranked bottleneck: a task whose duration bounds the makespan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bottleneck {
    /// Linear tile index in the grid.
    pub tile_index: usize,
    /// Tile origin x (pixels).
    pub x: usize,
    /// Tile origin y (pixels).
    pub y: usize,
    /// Task duration (ns).
    pub duration_ns: u64,
    /// Slack: how much this task could grow without lengthening the
    /// iteration span. Zero = on the critical path.
    pub slack_ns: u64,
}

/// Recorded idle time split by cause.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdleBreakdown {
    /// Total `idle_ns` over all causes and workers.
    pub total_ns: u64,
    /// Per-cause totals, in [`IdleCause::ALL`] order.
    pub by_cause: [u64; 5],
}

impl IdleBreakdown {
    /// The dominant `(label, ns)` cause, when any idle time exists.
    pub fn dominant(&self) -> Option<(&'static str, u64)> {
        let (i, &ns) = self
            .by_cause
            .iter()
            .enumerate()
            .max_by_key(|&(_, &ns)| ns)?;
        if ns == 0 {
            return None;
        }
        Some((IdleCause::ALL[i].label(), ns))
    }
}

/// One advisor recommendation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Advice {
    /// Short rule identifier (stable, greppable).
    pub rule: &'static str,
    /// Human-readable recommendation.
    pub text: String,
}

/// The full causal-profiling report.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// Run label from the trace metadata.
    pub label: String,
    /// Recorded worker count.
    pub threads: usize,
    /// Number of recorded iterations.
    pub iterations: usize,
    /// Wall-clock span of the recording (ns).
    pub wall_ns: u64,
    /// Total work T₁: the sum of all task durations (ns).
    pub work_ns: u64,
    /// Span T∞: the sum over iterations of the longest cost-weighted
    /// dependency chain (ns). Without edges an iteration's span is its
    /// longest single task.
    pub span_ns: u64,
    /// Achieved speedup: T₁ / wall.
    pub achieved_speedup: f64,
    /// Average parallelism T₁ / T∞ — the most workers the DAG can use.
    pub avg_parallelism: f64,
    /// Iteration holding the longest critical path.
    pub critical_iteration: u32,
    /// The critical path of that iteration, in execution order.
    pub critical_path: Vec<CriticalStep>,
    /// Lowest-slack, longest tasks of the critical iteration.
    pub bottlenecks: Vec<Bottleneck>,
    /// Idle-cause breakdown (when the trace embeds counters).
    pub idle: Option<IdleBreakdown>,
    /// Task-duration statistics (exact nearest-rank percentiles).
    pub percentiles: DurationStats,
    /// Virtual replay at [`REPLAY_THREADS`] worker counts, speedups
    /// against the 1-worker replay.
    pub scaling: Vec<SpeedupPoint>,
    /// Advisor output, most important first. Never empty.
    pub advice: Vec<Advice>,
}

/// Per-iteration DAG data: node costs and the critical-path DP.
struct IterDag {
    /// Recorded cost per tile node (0 = not executed this iteration).
    dur: CostMap,
    /// Longest path *ending at* each node, including the node itself.
    head: Vec<u64>,
    /// Longest path *starting at* each node, including the node itself.
    tail: Vec<u64>,
    /// The iteration's span: `max(head)` (= `max(tail)`).
    span: u64,
}

impl IterDag {
    /// Slack of node `i`: span minus the longest chain through it.
    fn slack(&self, i: usize) -> u64 {
        // head + tail both include dur(i), so subtract one copy
        let through = self.head[i] + self.tail[i] - self.dur.cost(i);
        self.span.saturating_sub(through)
    }
}

/// Builds the longest-path DP for one iteration. `order` is a
/// topological order of `graph` and `preds` its predecessor lists, so
/// each relaxation sees final values.
fn iter_dag(dur: CostMap, order: &[usize], graph: &TaskGraph, preds: &[Vec<usize>]) -> IterDag {
    let mut head = vec![0; dur.len()];
    for &i in order {
        let best = preds[i].iter().map(|&p| head[p]).max().unwrap_or(0);
        head[i] = dur.cost(i) + best;
    }
    let mut tail = vec![0; dur.len()];
    for &i in order.iter().rev() {
        let best = graph.dependents(i).iter().map(|&s| tail[s]).max().unwrap_or(0);
        tail[i] = dur.cost(i) + best;
    }
    let span = head.iter().copied().max().unwrap_or(0);
    IterDag {
        dur,
        head,
        tail,
        span,
    }
}

/// Analyses `trace` into a full causal-profiling report.
pub fn explain(trace: &Trace) -> Result<ExplainReport> {
    let grid = trace.meta.grid()?;
    let n = grid.len();

    // one task graph over grid tile ids (edges out of range are dropped —
    // they cannot correspond to a tile of this run's geometry)
    let mut graph = TaskGraph::new(n);
    for e in trace.edges.iter().filter(|e| e.from < n && e.to < n && e.from != e.to) {
        graph.add_dep(e.from, e.to);
    }
    // A cyclic edge set cannot be one execution DAG. It is legitimate
    // data: a kernel that runs several graphs per iteration (e.g. a
    // down-right and an up-left wavefront) unions both graphs'
    // structural edges in the monitor, and opposite wavefronts close
    // cycles. No single-DAG span/slack/replay is meaningful over the
    // union, so fall back to the edgeless analysis instead of
    // reporting a bogus critical path or deadlocking the replay.
    let mut order = Vec::with_capacity(n);
    if graph.run_seq(|i, _| order.push(i)).is_err() {
        graph = TaskGraph::new(n);
        order = (0..n).collect();
    }
    let mut preds = vec![Vec::new(); n];
    graph.for_each_edge(|from, to, _| preds[to].push(from));
    let has_dag = graph.edge_count() > 0;

    let percentiles = trace_stats(trace);
    let work_ns = percentiles.total_ns;
    let wall_ns = trace.time_bounds().map(|(a, b)| b - a).unwrap_or(0);

    // per-iteration spans; remember the iteration with the longest one
    let mut span_ns = 0u64;
    let mut best: Option<(u32, IterDag)> = None;
    for s in &trace.iterations {
        let dag = iter_dag(CostMap::from_trace(trace, s.iteration)?, &order, &graph, &preds);
        span_ns += dag.span;
        if best.as_ref().is_none_or(|(_, b)| dag.span > b.span) {
            best = Some((s.iteration, dag));
        }
    }

    let (critical_iteration, critical_path, bottlenecks) = match &best {
        None => (0, Vec::new(), Vec::new()),
        Some((it, dag)) => {
            // walk the path backwards from the node with the longest head
            let mut path = Vec::new();
            let mut cur = (0..n).max_by_key(|&i| dag.head[i]).unwrap_or(0);
            if dag.head[cur] > 0 {
                loop {
                    path.push(cur);
                    let Some(&p) = preds[cur]
                        .iter()
                        .filter(|&&p| dag.head[p] + dag.dur.cost(cur) == dag.head[cur])
                        .max_by_key(|&&p| dag.head[p])
                    else {
                        break;
                    };
                    cur = p;
                }
            }
            path.reverse();
            let steps = path
                .iter()
                .map(|&i| {
                    let tile = grid.tile_at(i);
                    CriticalStep {
                        tile_index: i,
                        x: tile.x,
                        y: tile.y,
                        duration_ns: dag.dur.cost(i),
                    }
                })
                .collect();
            let mut ranked: Vec<Bottleneck> = (0..n)
                .filter(|&i| dag.dur.cost(i) > 0)
                .map(|i| {
                    let tile = grid.tile_at(i);
                    Bottleneck {
                        tile_index: i,
                        x: tile.x,
                        y: tile.y,
                        duration_ns: dag.dur.cost(i),
                        slack_ns: dag.slack(i),
                    }
                })
                .collect();
            ranked.sort_by_key(|b| (b.slack_ns, std::cmp::Reverse(b.duration_ns)));
            ranked.truncate(BOTTLENECK_LIMIT);
            (*it, steps, ranked)
        }
    };

    let idle = trace.counters.as_ref().map(|c| {
        IdleBreakdown {
            total_ns: c.total(ezp_perf::names::IDLE_NS),
            by_cause: IdleCause::ALL.map(|cause| c.total(idle_cause_counter(cause))),
        }
    });

    let scaling = virtual_scaling(trace, has_dag.then_some(&graph))?;

    let achieved_speedup = if wall_ns == 0 {
        1.0
    } else {
        work_ns as f64 / wall_ns as f64
    };
    let avg_parallelism = if span_ns == 0 {
        1.0
    } else {
        work_ns as f64 / span_ns as f64
    };

    let mut report = ExplainReport {
        label: trace.meta.label.clone(),
        threads: trace.meta.threads,
        iterations: trace.iteration_count(),
        wall_ns,
        work_ns,
        span_ns,
        achieved_speedup,
        avg_parallelism,
        critical_iteration,
        critical_path,
        bottlenecks,
        idle,
        percentiles,
        scaling,
        advice: Vec::new(),
    };
    report.advice = advise(&report, has_dag);
    Ok(report)
}

/// Replays the first iteration's recorded costs across virtual worker
/// counts. Given a task graph the replay honours it (list scheduling);
/// without one — a loop-scheduled run, or a cyclic edge union dropped
/// above — it re-runs the recorded loop schedule through the
/// discrete-event simulator.
fn virtual_scaling(trace: &Trace, dag: Option<&TaskGraph>) -> Result<Vec<SpeedupPoint>> {
    if trace.tasks.is_empty() {
        return Ok(Vec::new());
    }
    let cost_map = CostMap::from_trace(trace, trace.iterations.first().map_or(1, |s| s.iteration))?;
    Ok(match dag {
        Some(graph) => taskgraph_speedup_curve(graph, &cost_map, &REPLAY_THREADS),
        None => {
            let schedule = Schedule::parse(&trace.meta.schedule).unwrap_or(Schedule::Dynamic(1));
            speedup_curve(&cost_map, schedule, &REPLAY_THREADS, 1, 0)
        }
    })
}

/// The rule-based advisor. Always returns at least one recommendation.
fn advise(r: &ExplainReport, has_edges: bool) -> Vec<Advice> {
    // No rule below can speak about a run it did not see, `healthy`
    // least of all.
    if r.percentiles.count == 0 {
        return vec![Advice {
            rule: "no-tasks",
            text: "no tile was recorded, so there is nothing to analyse: record with \
                   --monitoring or --trace on a variant that brackets its tiles \
                   (start_tile/end_tile around each one)."
                .into(),
        }];
    }
    let mut out = Vec::new();

    if has_edges && r.avg_parallelism < r.threads as f64 * 0.8 {
        out.push(Advice {
            rule: "dependency-limited",
            text: format!(
                "average parallelism T1/Tinf = {:.1} is below the {} recorded workers: \
                 the dependency structure, not core count, bounds this run. Restructure \
                 the graph (smaller tiles widen the wavefront) before adding threads.",
                r.avg_parallelism, r.threads
            ),
        });
    }

    // Per-tile cost outside the tile (dispatch, waiting)
    // against the work inside it. Only short tiles qualify: on long ones
    // the same ratio is imbalance, which the rules below name.
    let tiles = r.percentiles.count as u64;
    if !has_edges && tiles > 0 && r.percentiles.p50_ns <= GRAIN_FLOOR_NS {
        let in_tile = r.work_ns / tiles;
        let out_of_tile =
            (r.threads as u64).saturating_mul(r.wall_ns).saturating_sub(r.work_ns) / tiles;
        if out_of_tile >= in_tile {
            out.push(Advice {
                rule: "grain-too-fine",
                text: format!(
                    "a tile holds {in_tile} ns of work and costs {out_of_tile} ns outside it \
                     (dispatch, waiting): the runtime, not the kernel, \
                     sets this run's time, and more threads will not change that. Use a \
                     larger --tile-size, or a larger chunk in --schedule, so each dispatch \
                     carries more work."
                ),
            });
        }
    }

    if let Some(idle) = &r.idle {
        if let Some((label, ns)) = idle.dominant() {
            if idle.total_ns > 0 && ns * 100 >= idle.total_ns * 40 {
                let pct = ns * 100 / idle.total_ns;
                let hint = match label {
                    "dep_stall" => {
                        "workers block on unfinished predecessors; break large tiles up \
                         or reorder submission so the graph stays wide"
                    }
                    "steal" => {
                        "workers spend their idle time hunting other queues; work is \
                         unevenly sized — try guided or a larger chunk so queues drain evenly"
                    }
                    "barrier" => {
                        "time is lost at end-of-loop barriers; the last chunks straggle — \
                         try dynamic scheduling or smaller tiles to even the finish line"
                    }
                    "pool_park" => {
                        "workers sleep because too little work is released at once; fuse \
                         iterations or enlarge the parallel region"
                    }
                    _ => {
                        "the stream back-pressures on a full capacity edge; raise the \
                         in-flight window or speed up the slowest stage"
                    }
                };
                out.push(Advice {
                    rule: "idle-dominant-cause",
                    text: format!("{pct}% of idle time is `{label}`: {hint}."),
                });
            }
        }
    }

    if r.percentiles.count > 0 && r.percentiles.p50_ns > 0 {
        let ratio = r.percentiles.p99_ns as f64 / r.percentiles.p50_ns as f64;
        if ratio >= 8.0 {
            out.push(Advice {
                rule: "heterogeneous-tasks",
                text: format!(
                    "task durations are heavy-tailed (p99/p50 = {ratio:.0}x): static \
                     partitioning will straggle — prefer dynamic or nonmonotonic:dynamic \
                     with a small chunk."
                ),
            });
        }
    }

    // saturation knee in the virtual sweep: the first count where
    // doubling workers gains less than 20%
    if let Some(w) = r.scaling.windows(2).find(|w| w[1].speedup < w[0].speedup * 1.2) {
        let knee = w[0].threads;
        if knee <= r.threads {
            out.push(Advice {
                rule: "scaling-saturates",
                text: format!(
                    "virtual replay saturates at ~{knee} workers (doubling past that \
                     gains under 20%); the recorded run used {} — reduce per-chunk \
                     overhead or expose more parallelism before scaling further.",
                    r.threads
                ),
            });
        }
    }

    if out.is_empty() {
        out.push(Advice {
            rule: "healthy",
            text: format!(
                "no dominant bottleneck: achieved speedup {:.1}x on {} workers with \
                 average parallelism {:.1}. Headroom, if any, is in per-task cost, \
                 not scheduling.",
                r.achieved_speedup, r.threads, r.avg_parallelism
            ),
        });
    }
    out
}

impl ExplainReport {
    /// Renders the report as the `easyview explain` text output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# explain: {} ({} workers, {} iterations)",
            self.label, self.threads, self.iterations
        );
        let _ = writeln!(
            out,
            "# wall {} | work T1 {} | span Tinf {}",
            fmt_ns(self.wall_ns),
            fmt_ns(self.work_ns),
            fmt_ns(self.span_ns)
        );
        let _ = writeln!(
            out,
            "# achieved speedup {:.2}x | average parallelism {:.1}",
            self.achieved_speedup, self.avg_parallelism
        );
        let p = &self.percentiles;
        let _ = writeln!(
            out,
            "# task latency: n={} p50={} p95={} p99={} max={}",
            p.count,
            fmt_ns(p.p50_ns),
            fmt_ns(p.p95_ns),
            fmt_ns(p.p99_ns),
            fmt_ns(p.max_ns)
        );
        if let Some(idle) = &self.idle {
            let _ = writeln!(out, "# idle breakdown: total {}", fmt_ns(idle.total_ns));
            for (cause, ns) in IdleCause::ALL.into_iter().zip(idle.by_cause) {
                if ns == 0 {
                    continue;
                }
                let label = cause.label();
                let pct = if idle.total_ns > 0 {
                    ns * 100 / idle.total_ns
                } else {
                    0
                };
                let _ = writeln!(out, "#   {label:<13} {:>10} ({pct:>3}%)", fmt_ns(ns));
            }
        }
        if !self.critical_path.is_empty() {
            let total: u64 = self.critical_path.iter().map(|s| s.duration_ns).sum();
            let _ = writeln!(
                out,
                "# critical path (iteration {}, {} tasks, {}):",
                self.critical_iteration,
                self.critical_path.len(),
                fmt_ns(total)
            );
            for s in &self.critical_path {
                let _ = writeln!(
                    out,
                    "#   tile #{:<4} ({:>4},{:>4})  {}",
                    s.tile_index,
                    s.x,
                    s.y,
                    fmt_ns(s.duration_ns)
                );
            }
        }
        if !self.bottlenecks.is_empty() {
            let _ = writeln!(out, "# bottlenecks (lowest slack first):");
            for b in &self.bottlenecks {
                let _ = writeln!(
                    out,
                    "#   tile #{:<4} ({:>4},{:>4})  {:>10}  slack {}",
                    b.tile_index,
                    b.x,
                    b.y,
                    fmt_ns(b.duration_ns),
                    fmt_ns(b.slack_ns)
                );
            }
        }
        if !self.scaling.is_empty() {
            let _ = writeln!(out, "# virtual scaling (replay of recorded costs):");
            for s in &self.scaling {
                let _ = writeln!(
                    out,
                    "#   P={:<3} makespan {:>10}  speedup {:.2}x",
                    s.threads,
                    fmt_ns(s.makespan_ns),
                    s.speedup
                );
            }
        }
        let _ = writeln!(out, "# advice:");
        for a in &self.advice {
            let _ = writeln!(out, "#   [{}] {}", a.rule, a.text);
        }
        out
    }
}

/// Formats nanoseconds with a readable unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_monitor::report::IterationSpan;
    use ezp_monitor::{DepEdge, TileRecord};
    use ezp_trace::TraceMeta;

    /// A diamond DAG over a 4x4 grid: 0 -> {1, 2} -> 3 with durations
    /// 10, 30, 20, 5. T1 = 65, Tinf = 10 + 30 + 5 = 45, critical path
    /// 0 -> 1 -> 3.
    fn diamond_trace() -> Trace {
        let meta = TraceMeta {
            kernel: "ccomp".into(),
            variant: "task".into(),
            dim: 64,
            tile_size: 16,
            threads: 2,
            schedule: "dynamic".into(),
            label: "ccomp/task".into(),
        };
        let mk = |i: usize, s: u64, e: u64, w: usize| TileRecord {
            iteration: 1,
            x: (i % 4) * 16,
            y: (i / 4) * 16,
            w: 16,
            h: 16,
            start_ns: s,
            end_ns: e,
            worker: w,
        };
        let edge = |from, to| DepEdge { from, to, kind: 0 };
        Trace {
            meta,
            iterations: vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 50,
            }],
            // realistic timeline: 0 first, then 1 and 2 in parallel,
            // then 3 after both
            tasks: vec![
                mk(0, 0, 10, 0),
                mk(1, 10, 40, 0),
                mk(2, 10, 30, 1),
                mk(3, 40, 45, 1),
            ],
            edges: vec![edge(0, 1), edge(0, 2), edge(1, 3), edge(2, 3)],
            counters: None,
        }
    }

    #[test]
    fn cyclic_edge_union_falls_back_to_edgeless_analysis() {
        // two opposite wavefronts recorded in one run union to a
        // cyclic edge set (ccomp taskdep does exactly this); explain
        // must drop the edges, not loop or panic in the DAG replay
        let mut t = diamond_trace();
        t.edges = vec![
            DepEdge { from: 0, to: 1, kind: 0 },
            DepEdge { from: 1, to: 0, kind: 0 },
            DepEdge { from: 1, to: 3, kind: 0 },
        ];
        let r = explain(&t).unwrap();
        // edgeless span: the longest single task, not a chain
        assert_eq!(r.span_ns, 30);
        assert_eq!(r.critical_path.len(), 1);
        // the replay takes the loop-schedule path and still scales
        assert_eq!(r.scaling.len(), REPLAY_THREADS.len());
        assert!(!r.advice.is_empty());
        assert!(r.advice.iter().all(|a| a.rule != "dependency-limited"));
    }

    #[test]
    fn work_and_span_are_pinned_on_the_diamond() {
        let r = explain(&diamond_trace()).unwrap();
        assert_eq!(r.work_ns, 65);
        assert_eq!(r.span_ns, 45);
        assert_eq!(r.wall_ns, 50);
        assert!((r.avg_parallelism - 65.0 / 45.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_is_the_heavy_chain() {
        let r = explain(&diamond_trace()).unwrap();
        assert_eq!(r.critical_iteration, 1);
        let tiles: Vec<usize> = r.critical_path.iter().map(|s| s.tile_index).collect();
        assert_eq!(tiles, vec![0, 1, 3]);
        let durs: Vec<u64> = r.critical_path.iter().map(|s| s.duration_ns).collect();
        assert_eq!(durs, vec![10, 30, 5]);
    }

    #[test]
    fn slack_separates_on_and_off_path_tasks() {
        let r = explain(&diamond_trace()).unwrap();
        // critical tasks have zero slack; tile 2 (20 ns on a 45 ns span
        // through 10 + 20 + 5 = 35) has 10 ns of slack
        let by_tile = |i: usize| r.bottlenecks.iter().find(|b| b.tile_index == i).unwrap();
        assert_eq!(by_tile(0).slack_ns, 0);
        assert_eq!(by_tile(1).slack_ns, 0);
        assert_eq!(by_tile(3).slack_ns, 0);
        assert_eq!(by_tile(2).slack_ns, 10);
        // ranked by slack, then longest first: tile 1 leads
        assert_eq!(r.bottlenecks[0].tile_index, 1);
    }

    #[test]
    fn edgeless_traces_fall_back_to_longest_task_spans() {
        let mut t = diamond_trace();
        t.edges.clear();
        let r = explain(&t).unwrap();
        assert_eq!(r.work_ns, 65);
        assert_eq!(r.span_ns, 30); // longest single task
        assert!(r.critical_path.len() == 1);
        assert_eq!(r.critical_path[0].tile_index, 1);
    }

    #[test]
    fn idle_breakdown_reads_cause_counters() {
        let mut set = ezp_perf::CounterSet::new(2);
        let total = set.register("idle_ns");
        let steal = set.register("idle_ns{cause=\"steal\"}");
        let barrier = set.register("idle_ns{cause=\"barrier\"}");
        set.add(total, 0, 70);
        set.add(steal, 0, 50);
        set.add(barrier, 0, 20);
        let t = diamond_trace().with_counters(set.snapshot());
        let r = explain(&t).unwrap();
        let idle = r.idle.unwrap();
        assert_eq!(idle.total_ns, 70);
        assert_eq!(idle.by_cause[1], 50); // steal
        assert_eq!(idle.by_cause[2], 20); // barrier
        assert_eq!(idle.by_cause.iter().sum::<u64>(), idle.total_ns);
        assert_eq!(idle.dominant(), Some(("steal", 50)));
    }

    #[test]
    fn advisor_flags_a_dominant_idle_cause() {
        let mut set = ezp_perf::CounterSet::new(2);
        let total = set.register("idle_ns");
        let steal = set.register("idle_ns{cause=\"steal\"}");
        set.add(total, 0, 100);
        set.add(steal, 0, 90);
        let t = diamond_trace().with_counters(set.snapshot());
        let r = explain(&t).unwrap();
        assert!(
            r.advice.iter().any(|a| a.rule == "idle-dominant-cause"),
            "{:?}",
            r.advice
        );
    }

    /// An edge-free trace of `per_worker` back-to-back tiles on each of
    /// `workers` workers: `dur(worker)` ns of work, then `gap` ns until
    /// the worker's next tile starts.
    fn loop_trace(workers: usize, per_worker: usize, gap: u64, dur: impl Fn(usize) -> u64) -> Trace {
        let mut t = diamond_trace();
        t.meta.threads = workers;
        t.edges.clear();
        t.tasks.clear();
        let mut end = 0;
        for worker in 0..workers {
            let mut now = 0;
            for i in 0..per_worker {
                let tile = worker * per_worker + i;
                t.tasks.push(TileRecord {
                    iteration: 1,
                    x: (tile % 4) * 16,
                    y: (tile / 4 % 4) * 16,
                    w: 16,
                    h: 16,
                    start_ns: now,
                    end_ns: now + dur(worker),
                    worker,
                });
                now += dur(worker) + gap;
            }
            end = end.max(now - gap);
        }
        t.tasks.sort_by_key(|r| r.start_ns);
        t.iterations[0].end_ns = end;
        t
    }

    #[test]
    fn advisor_flags_tiles_cheaper_than_their_dispatch() {
        // 50 ns tiles, 150 ns between them: the loop is all overhead
        let r = explain(&loop_trace(2, 8, 150, |_| 50)).unwrap();
        let a = r.advice.iter().find(|a| a.rule == "grain-too-fine").expect("rule fires");
        assert!(a.text.contains("50 ns of work"), "{}", a.text);
        // 2 workers x 1450 ns wall - 800 ns work, over 16 tiles
        assert!(a.text.contains("costs 131 ns outside"), "{}", a.text);
        assert!(a.text.contains("--tile-size"), "{}", a.text);
    }

    #[test]
    fn advisor_leaves_imbalanced_long_tiles_to_the_other_rules() {
        // mandel-like: worker 0 draws the 40 us tiles, the other three
        // the 2 us ones and then idle at the barrier. Most of the four
        // workers' time is outside any tile, but the tiles are not short
        let t = loop_trace(4, 4, 100, |worker| if worker == 0 { 40_000 } else { 2_000 });
        let r = explain(&t).unwrap();
        assert!(r.percentiles.p50_ns > GRAIN_FLOOR_NS);
        assert!(r.threads as u64 * r.wall_ns > 2 * r.work_ns);
        assert!(r.advice.iter().all(|a| a.rule != "grain-too-fine"), "{:?}", r.advice);
        // short tiles that fill the wall are fine-grained but not wasteful
        let dense = explain(&loop_trace(2, 8, 10, |_| 50)).unwrap();
        assert!(dense.advice.iter().all(|a| a.rule != "grain-too-fine"), "{:?}", dense.advice);
    }

    #[test]
    fn advisor_never_returns_empty() {
        // a perfectly balanced, edge-free run with nothing to complain
        // about still gets the fallback recommendation
        let mut t = diamond_trace();
        t.edges.clear();
        t.tasks = vec![
            TileRecord {
                iteration: 1,
                x: 0,
                y: 0,
                w: 16,
                h: 16,
                start_ns: 0,
                end_ns: 25,
                worker: 0,
            },
            TileRecord {
                iteration: 1,
                x: 16,
                y: 0,
                w: 16,
                h: 16,
                start_ns: 0,
                end_ns: 25,
                worker: 1,
            },
        ];
        t.iterations[0].end_ns = 25;
        let r = explain(&t).unwrap();
        assert!(!r.advice.is_empty());
        // and a trace with no task is told exactly that, not `[healthy]`
        t.tasks.clear();
        let r = explain(&t).unwrap();
        assert_eq!(r.advice.len(), 1, "{:?}", r.advice);
        assert_eq!(r.advice[0].rule, "no-tasks");
    }

    #[test]
    fn scaling_replays_the_dag_and_saturates_at_its_parallelism() {
        let r = explain(&diamond_trace()).unwrap();
        assert_eq!(r.scaling.len(), REPLAY_THREADS.len());
        assert_eq!(r.scaling[0].threads, 1);
        // sequential replay executes all 65 ns of work
        assert_eq!(r.scaling[0].makespan_ns, 65);
        // the diamond never runs faster than its 45 ns critical path
        for p in &r.scaling {
            assert!(p.makespan_ns >= 45, "P={} broke Tinf", p.threads);
        }
        // two workers already reach the bound; more cannot help
        assert_eq!(r.scaling[1].makespan_ns, 45);
        assert_eq!(r.scaling.last().unwrap().makespan_ns, 45);
    }

    #[test]
    fn percentiles_are_exact_over_task_durations() {
        let r = explain(&diamond_trace()).unwrap();
        // durations sorted: 5, 10, 20, 30. An even count is where a
        // rounded index and a nearest rank part ways (3rd vs 2nd
        // shortest); `easyview`'s stats block reads the same struct
        assert_eq!(r.percentiles.count, 4);
        assert_eq!(r.percentiles.p50_ns, 10);
        assert_eq!(r.percentiles.p99_ns, 30);
        assert_eq!(r.percentiles.max_ns, 30);
        assert_eq!(r.work_ns, r.percentiles.total_ns);
    }

    #[test]
    fn render_mentions_every_section() {
        let mut set = ezp_perf::CounterSet::new(2);
        let total = set.register("idle_ns");
        let steal = set.register("idle_ns{cause=\"steal\"}");
        set.add(total, 0, 100);
        set.add(steal, 0, 90);
        let t = diamond_trace().with_counters(set.snapshot());
        let text = explain(&t).unwrap().render();
        for needle in [
            "# explain: ccomp/task",
            "work T1",
            "span Tinf",
            "# idle breakdown",
            "steal",
            "# critical path",
            "# bottlenecks",
            "# virtual scaling",
            "# advice:",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn multi_iteration_spans_accumulate() {
        let mut t = diamond_trace();
        // clone iteration 1 as iteration 2, shifted in time
        t.iterations.push(IterationSpan {
            iteration: 2,
            start_ns: 50,
            end_ns: 100,
        });
        let shifted: Vec<TileRecord> = t
            .tasks
            .iter()
            .map(|r| {
                let mut r = *r;
                r.iteration = 2;
                r.start_ns += 50;
                r.end_ns += 50;
                r
            })
            .collect();
        t.tasks.extend(shifted);
        let r = explain(&t).unwrap();
        assert_eq!(r.work_ns, 130);
        assert_eq!(r.span_ns, 90); // 45 per iteration
    }
}
