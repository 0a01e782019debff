//! The in-memory trace model.

use ezp_core::error::{Error, Result};
use ezp_core::json::{FromJson, Json, ToJson};
use ezp_core::{RunConfig, TileGrid};
use ezp_monitor::record::iteration_run;
use ezp_monitor::report::IterationSpan;
use ezp_monitor::{DepEdge, MonitorReport, TileRecord};
use ezp_perf::CounterSnapshot;

/// Run metadata carried in the trace header, so that EASYVIEW can label
/// windows and rebuild the tile grid without the original command line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Kernel name (`--kernel`).
    pub kernel: String,
    /// Variant name (`--variant`).
    pub variant: String,
    /// Image dimension (`--size`).
    pub dim: usize,
    /// Tile edge (`--tile-size`).
    pub tile_size: usize,
    /// Worker count.
    pub threads: usize,
    /// Scheduling policy, canonical `OMP_SCHEDULE` spelling.
    pub schedule: String,
    /// Free-form label (used by trace comparison to name the two runs).
    pub label: String,
}

impl TraceMeta {
    /// Extracts the metadata from a run configuration.
    pub fn from_config(cfg: &RunConfig) -> Self {
        TraceMeta {
            kernel: cfg.kernel.clone(),
            variant: cfg.variant.clone(),
            dim: cfg.dim,
            tile_size: cfg.tile_size,
            threads: cfg.threads,
            schedule: cfg.schedule.as_omp_str(),
            label: format!("{}/{}", cfg.kernel, cfg.variant),
        }
    }

    /// The tile grid of the traced run.
    pub fn grid(&self) -> Result<TileGrid> {
        TileGrid::square(self.dim, self.tile_size)
    }
}

impl ToJson for TraceMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.to_json()),
            ("variant", self.variant.to_json()),
            ("dim", self.dim.to_json()),
            ("tile_size", self.tile_size.to_json()),
            ("threads", self.threads.to_json()),
            ("schedule", self.schedule.to_json()),
            ("label", self.label.to_json()),
        ])
    }
}

impl FromJson for TraceMeta {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(TraceMeta {
            kernel: v.field("kernel")?,
            variant: v.field("variant")?,
            dim: v.field("dim")?,
            tile_size: v.field("tile_size")?,
            threads: v.field("threads")?,
            schedule: v.field("schedule")?,
            label: v.field("label")?,
        })
    }
}

/// The largest sum of task durations a valid trace holds, in ns.
/// Anything an analysis adds up from a trace — a duration total, a
/// replay's virtual clock, the head + tail chains of a critical-path
/// DP — then fits in `u64`.
pub const MAX_WORK_NS: u64 = u64::MAX / 4;

/// A complete recorded execution: metadata, iteration spans and task
/// events — everything EASYVIEW needs (§II-D).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Header metadata.
    pub meta: TraceMeta,
    /// Iteration spans, chronological.
    pub iterations: Vec<IterationSpan>,
    /// Task (tile) events sorted by `(iteration, start_ns)`.
    pub tasks: Vec<TileRecord>,
    /// Dependency edges between task ids (format v2; empty for v1
    /// traces and loop-scheduled runs, which have no explicit graph).
    pub edges: Vec<DepEdge>,
    /// Runtime counters recorded alongside the run (format v2; `None`
    /// for v1 traces and merged multi-rank traces).
    pub counters: Option<CounterSnapshot>,
}

impl Trace {
    /// Builds a trace from a live monitoring report, copying it.
    pub fn from_report(meta: TraceMeta, report: &MonitorReport) -> Self {
        Self::from_owned_report(meta, report.clone())
    }

    /// [`Trace::from_report`] for a caller that is done with the report
    /// (or takes it back through [`Trace::into_report`]): the records
    /// move instead of being copied.
    pub fn from_owned_report(meta: TraceMeta, report: MonitorReport) -> Self {
        Trace {
            meta,
            iterations: report.iterations,
            tasks: report.records,
            edges: report.edges,
            counters: None,
        }
    }

    /// The same trace carrying a runtime-counter snapshot (builder
    /// style, so `from_report` keeps its signature).
    pub fn with_counters(mut self, counters: CounterSnapshot) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Re-materializes a [`MonitorReport`] (the analysis entry point) so
    /// that every monitor-side analysis also works post mortem.
    pub fn to_report(&self) -> Result<MonitorReport> {
        self.clone().into_report()
    }

    /// [`Trace::to_report`] consuming the trace: the tasks move into the
    /// report instead of being copied.
    pub fn into_report(self) -> Result<MonitorReport> {
        let grid = self.meta.grid()?;
        let report = MonitorReport::new(self.meta.threads, grid, self.iterations, self.tasks);
        Ok(report.with_edges(self.edges))
    }

    /// Number of recorded iterations.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Total wall-clock span `(first start, last end)` over all events.
    pub fn time_bounds(&self) -> Option<(u64, u64)> {
        let start = self
            .iterations
            .iter()
            .map(|s| s.start_ns)
            .chain(self.tasks.iter().map(|t| t.start_ns))
            .min()?;
        let end = self
            .iterations
            .iter()
            .map(|s| s.end_ns)
            .filter(|&e| e != u64::MAX)
            .chain(self.tasks.iter().map(|t| t.end_ns))
            .max()?;
        Some((start, end))
    }

    /// Tasks of iteration `it`: a binary search over `tasks`, which are
    /// sorted by iteration (see [`Trace::validate`]).
    pub fn tasks_of_iteration(&self, it: u32) -> impl Iterator<Item = &TileRecord> {
        iteration_run(&self.tasks, it).iter()
    }

    /// Tasks executed by `worker` in iteration range `[lo, hi]`
    /// (inclusive) — the data behind EASYVIEW's per-CPU timeline.
    pub fn tasks_of_worker(
        &self,
        worker: usize,
        lo: u32,
        hi: u32,
    ) -> impl Iterator<Item = &TileRecord> {
        self.tasks
            .iter()
            .filter(move |t| t.worker == worker && (lo..=hi).contains(&t.iteration))
    }

    /// Validates internal consistency: iteration numbers exist, tasks
    /// are sorted, timestamps ordered, workers in range, and the summed
    /// task durations at most [`MAX_WORK_NS`]. `io::read` calls this so
    /// corrupt files fail loudly.
    pub fn validate(&self) -> Result<()> {
        let mut work = 0u64;
        for t in &self.tasks {
            if t.end_ns < t.start_ns {
                return Err(Error::TraceFormat(format!(
                    "task at ({},{}) ends before it starts",
                    t.x, t.y
                )));
            }
            work = work
                .checked_add(t.duration_ns())
                .filter(|&w| w <= MAX_WORK_NS)
                .ok_or_else(|| {
                    Error::TraceFormat(format!(
                        "summed task durations overflow {MAX_WORK_NS} ns (u64::MAX / 4)"
                    ))
                })?;
            if t.worker >= self.meta.threads {
                return Err(Error::TraceFormat(format!(
                    "task worker {} out of range (threads={})",
                    t.worker, self.meta.threads
                )));
            }
        }
        for w in self.tasks.windows(2) {
            if (w[1].iteration, w[1].start_ns) < (w[0].iteration, w[0].start_ns) {
                return Err(Error::TraceFormat("tasks are not sorted".into()));
            }
        }
        for s in self.iterations.windows(2) {
            if s[1].iteration <= s[0].iteration {
                return Err(Error::TraceFormat("iteration spans are not sorted".into()));
            }
        }
        for e in &self.edges {
            if e.edge_kind().is_none() {
                return Err(Error::TraceFormat(format!(
                    "edge {} -> {} has unknown kind {}",
                    e.from, e.to, e.kind
                )));
            }
            if e.from == e.to {
                return Err(Error::TraceFormat(format!(
                    "edge {} -> {} is a self-loop",
                    e.from, e.to
                )));
            }
        }
        Ok(())
    }
}

impl ToJson for Trace {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("meta", self.meta.to_json()),
            ("iterations", self.iterations.to_json()),
            ("tasks", self.tasks.to_json()),
        ];
        // v2 sections stay out of the JSON when absent, so v1 JSON
        // dumps keep byte-for-byte compatibility.
        if !self.edges.is_empty() {
            pairs.push(("edges", self.edges.to_json()));
        }
        if let Some(c) = &self.counters {
            pairs.push(("counters", c.to_json()));
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl FromJson for Trace {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(Trace {
            meta: v.field("meta")?,
            iterations: v.field("iterations")?,
            tasks: v.field("tasks")?,
            edges: match v.get("edges") {
                Some(e) => FromJson::from_json(e)?,
                None => Vec::new(),
            },
            counters: match v.get("counters") {
                Some(c) => Some(FromJson::from_json(c)?),
                None => None,
            },
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ezp_core::kernel::EdgeKind;

    pub(crate) fn sample_trace() -> Trace {
        let meta = TraceMeta {
            kernel: "mandel".into(),
            variant: "omp_tiled".into(),
            dim: 64,
            tile_size: 16,
            threads: 2,
            schedule: "dynamic".into(),
            label: "mandel/omp_tiled".into(),
        };
        let mk = |it, x, y, s, e, w| TileRecord {
            iteration: it,
            x,
            y,
            w: 16,
            h: 16,
            start_ns: s,
            end_ns: e,
            worker: w,
        };
        Trace {
            meta,
            iterations: vec![
                IterationSpan {
                    iteration: 1,
                    start_ns: 0,
                    end_ns: 100,
                },
                IterationSpan {
                    iteration: 2,
                    start_ns: 100,
                    end_ns: 220,
                },
            ],
            tasks: vec![
                mk(1, 0, 0, 5, 50, 0),
                mk(1, 16, 0, 6, 40, 1),
                mk(2, 0, 16, 105, 190, 0),
                mk(2, 16, 16, 110, 215, 1),
            ],
            edges: vec![
                DepEdge {
                    from: 0,
                    to: 4,
                    kind: EdgeKind::Data.as_u8(),
                },
                DepEdge {
                    from: 1,
                    to: 5,
                    kind: EdgeKind::Width.as_u8(),
                },
            ],
            counters: None,
        }
    }

    #[test]
    fn meta_from_config() {
        let cfg = RunConfig::new("mandel")
            .variant("omp")
            .size(256)
            .tile(32)
            .threads(4);
        let meta = TraceMeta::from_config(&cfg);
        assert_eq!(meta.kernel, "mandel");
        assert_eq!(meta.dim, 256);
        assert_eq!(meta.grid().unwrap().len(), 64);
        assert_eq!(meta.label, "mandel/omp");
    }

    #[test]
    fn trace_queries() {
        let t = sample_trace();
        assert_eq!(t.iteration_count(), 2);
        assert_eq!(t.tasks_of_iteration(1).count(), 2);
        assert_eq!(t.tasks_of_worker(0, 1, 2).count(), 2);
        assert_eq!(t.tasks_of_worker(1, 2, 2).count(), 1);
        assert_eq!(t.time_bounds(), Some((0, 220)));
    }

    #[test]
    fn report_round_trip() {
        let t = sample_trace();
        let report = t.to_report().unwrap();
        assert_eq!(report.records.len(), 4);
        let stats = report.iteration_stats(1).unwrap();
        assert_eq!(stats.busy_ns, vec![45, 34]);
    }

    #[test]
    fn validate_catches_corruption() {
        let good = sample_trace();
        assert!(good.validate().is_ok());

        let mut bad = sample_trace();
        bad.tasks[0].end_ns = 0;
        bad.tasks[0].start_ns = 10;
        assert!(bad.validate().is_err());

        let mut bad = sample_trace();
        bad.tasks[0].worker = 9;
        assert!(bad.validate().is_err());

        let mut bad = sample_trace();
        bad.tasks.swap(0, 3);
        assert!(bad.validate().is_err());

        let mut bad = sample_trace();
        bad.iterations.swap(0, 1);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_edges() {
        let mut bad = sample_trace();
        bad.edges[0].kind = 7;
        assert!(bad.validate().is_err());

        let mut bad = sample_trace();
        bad.edges[0].to = bad.edges[0].from;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn edges_survive_the_report_round_trip() {
        let t = sample_trace();
        let report = t.to_report().unwrap();
        assert_eq!(report.edges, t.edges);
        let back = Trace::from_report(t.meta.clone(), &report);
        assert_eq!(back.edges, t.edges);
    }

    #[test]
    fn v1_json_without_edges_or_counters_still_parses() {
        // a v1 producer never wrote "edges"/"counters"; reading its JSON
        // must yield an empty edge list and no counters
        let mut t = sample_trace();
        t.edges.clear();
        let dump = t.to_json().dump();
        assert!(!dump.contains("\"edges\""));
        assert!(!dump.contains("\"counters\""));
        let back = Trace::from_json(&Json::parse(&dump).unwrap()).unwrap();
        assert!(back.edges.is_empty());
        assert!(back.counters.is_none());
    }

    #[test]
    fn counters_ride_along_in_json() {
        let mut set = ezp_perf::CounterSet::new(1);
        let id = set.register("tasks_executed");
        set.add(id, 0, 7);
        let t = sample_trace().with_counters(set.snapshot());
        let dump = t.to_json().dump();
        let back = Trace::from_json(&Json::parse(&dump).unwrap()).unwrap();
        assert_eq!(back.counters.unwrap().total("tasks_executed"), 7);
        assert_eq!(back.edges, t.edges);
    }

    #[test]
    fn empty_trace_has_no_bounds() {
        let mut t = sample_trace();
        t.tasks.clear();
        t.iterations.clear();
        assert!(t.time_bounds().is_none());
        assert!(t.validate().is_ok());
    }
}
