//! The unified observability report: monitor tile accounting merged
//! with `ezp-perf` runtime counters and spans into one document.
//!
//! The Activity Monitor knows *where time went per tile*; the perf
//! counters know *what the runtime did* (chunks, steals, idle waits);
//! spans know *how phases nest*. `--stats` reports all three together,
//! so this type is the single thing the CLI serializes.

use crate::report::MonitorReport;
use ezp_core::json::{Json, ToJson};
use ezp_perf::export::{to_csv, to_prometheus};
use ezp_perf::{CounterSnapshot, SpanRecord};
use std::fmt::Write as _;

/// Everything one run produced, observability-wise.
#[derive(Clone, Debug, Default)]
pub struct UnifiedReport {
    /// Tile-level monitoring data, when a [`crate::Monitor`] ran.
    pub monitor: Option<MonitorReport>,
    /// Runtime counters (scheduler events, MPI traffic, cache totals —
    /// anything pushed into the snapshot).
    pub counters: CounterSnapshot,
    /// Recorded spans, merged across workers and sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// The tenant this report belongs to, when the run was executed by
    /// `ezp-serve` on behalf of a client (None for standalone CLI runs).
    pub tenant: Option<String>,
}

impl UnifiedReport {
    /// Bundles the three data sources into one report.
    pub fn new(
        monitor: Option<MonitorReport>,
        counters: CounterSnapshot,
        spans: Vec<SpanRecord>,
    ) -> Self {
        UnifiedReport {
            monitor,
            counters,
            spans,
            tenant: None,
        }
    }

    /// The same report tagged with the owning tenant (builder style,
    /// used by `ezp-serve` for per-job reports).
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.tenant = Some(tenant.to_string());
        self
    }

    /// Spans aggregated by name: `(name, count, total_ns)`, in first-seen
    /// order.
    pub fn span_summary(&self) -> Vec<(&str, u64, u64)> {
        let mut out: Vec<(&str, u64, u64)> = Vec::new();
        for s in &self.spans {
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total = total.saturating_add(s.duration_ns());
                }
                None => out.push((s.name, 1, s.duration_ns())),
            }
        }
        out
    }

    /// Per-iteration summary rows derived from the monitor data (empty
    /// without a monitor).
    fn iteration_rows(&self) -> Vec<Json> {
        let Some(mon) = &self.monitor else {
            return Vec::new();
        };
        mon.all_stats()
            .iter()
            .map(|s| {
                Json::obj([
                    ("iteration", s.span.iteration.to_json()),
                    ("duration_ns", s.span.duration_ns().to_json()),
                    ("total_idle_ns", s.total_idle_ns().to_json()),
                    ("imbalance", s.imbalance().to_json()),
                    // INFINITY (a fully idle worker) serializes as null
                    ("busy_ratio", s.busy_ratio().to_json()),
                ])
            })
            .collect()
    }

    /// The whole report as one JSON object — what `--stats=json` prints.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        if let Some(tenant) = &self.tenant {
            pairs.push(("tenant", tenant.to_json()));
        }
        pairs.push(("counters", self.counters.to_json()));
        pairs.push(("spans", self.spans.to_json()));
        if let Some(mon) = &self.monitor {
            pairs.push(("workers", mon.workers.to_json()));
            pairs.push(("tiles_recorded", mon.records.len().to_json()));
            pairs.push(("total_busy_ns", mon.total_busy_ns().to_json()));
            pairs.push(("iterations", Json::Arr(self.iteration_rows())));
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Human-readable text report — what plain `--stats` prints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if let Some(mon) = &self.monitor {
            let _ = writeln!(out, "# run: {} workers, {} tiles recorded", mon.workers, mon.records.len());
            for s in mon.all_stats() {
                let _ = writeln!(
                    out,
                    "# iter {}: {} ns, idle {} ns, imbalance {:.2}, busy ratio {:.2}",
                    s.span.iteration,
                    s.span.duration_ns(),
                    s.total_idle_ns(),
                    s.imbalance(),
                    s.busy_ratio(),
                );
            }
        }
        for (name, count, total_ns) in self.span_summary() {
            let _ = writeln!(out, "# span {name}: {count} x, {total_ns} ns total");
        }
        out.push_str(&to_prometheus(&self.counters));
        out
    }

    /// Counters as CSV (monitor/span data has no tabular counter shape,
    /// so `--stats=csv` exports the counters only).
    pub fn to_csv(&self) -> String {
        to_csv(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TileRecord;
    use crate::report::IterationSpan;
    use ezp_core::json::FromJson;
    use ezp_core::TileGrid;
    use ezp_perf::CounterSet;

    fn sample() -> UnifiedReport {
        let grid = TileGrid::square(32, 16).unwrap();
        let records = vec![
            TileRecord {
                iteration: 1,
                x: 0,
                y: 0,
                w: 16,
                h: 16,
                start_ns: 0,
                end_ns: 60,
                worker: 0,
            },
            TileRecord {
                iteration: 1,
                x: 16,
                y: 0,
                w: 16,
                h: 16,
                start_ns: 0,
                end_ns: 40,
                worker: 1,
            },
        ];
        let mon = MonitorReport::new(
            2,
            grid,
            vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 100,
            }],
            records,
        );
        let mut set = CounterSet::new(2);
        let c = set.register("tasks_executed");
        set.add(c, 0, 1);
        set.add(c, 1, 1);
        let spans = vec![
            SpanRecord {
                name: "iteration",
                worker: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanRecord {
                name: "iteration",
                worker: 0,
                start_ns: 100,
                end_ns: 180,
            },
        ];
        UnifiedReport::new(Some(mon), set.snapshot(), spans)
    }

    #[test]
    fn json_carries_all_three_sources() {
        let rep = sample();
        let j = Json::parse(&rep.to_json().dump()).unwrap();
        assert_eq!(j.field::<u64>("workers").unwrap(), 2);
        assert_eq!(j.field::<u64>("tiles_recorded").unwrap(), 2);
        assert_eq!(j.field::<u64>("total_busy_ns").unwrap(), 100);
        let counters = CounterSnapshot::from_json(j.get("counters").unwrap()).unwrap();
        assert_eq!(counters.total("tasks_executed"), 2);
        let iters = j.get("iterations").unwrap().as_arr().unwrap();
        assert_eq!(iters.len(), 1);
        assert_eq!(iters[0].field::<u64>("total_idle_ns").unwrap(), 100);
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn json_without_monitor_still_has_counters_and_spans() {
        let mut rep = sample();
        rep.monitor = None;
        let j = Json::parse(&rep.to_json().dump()).unwrap();
        assert!(j.get("workers").is_none());
        assert!(j.get("counters").is_some());
        assert!(j.get("spans").is_some());
    }

    #[test]
    fn text_report_mentions_iterations_spans_and_counters() {
        let text = sample().to_text();
        assert!(text.contains("# iter 1:"), "{text}");
        assert!(text.contains("# span iteration: 2 x, 180 ns total"), "{text}");
        assert!(text.contains("ezp_tasks_executed 2"), "{text}");
    }

    #[test]
    fn tenant_tag_appears_in_json_when_set() {
        let rep = sample().with_tenant("acme");
        let j = Json::parse(&rep.to_json().dump()).unwrap();
        assert_eq!(j.field::<String>("tenant").unwrap(), "acme");
        assert!(sample().to_json().get("tenant").is_none());
    }

    #[test]
    fn span_summary_aggregates_by_name() {
        let rep = sample();
        assert_eq!(rep.span_summary(), vec![("iteration", 2, 180)]);
    }

    #[test]
    fn csv_export_is_counters_only() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("counter,worker,value"));
        assert!(csv.contains("tasks_executed"));
    }

    #[test]
    fn fully_idle_worker_yields_valid_json_with_null_busy_ratio() {
        // regression: worker 1 records nothing, so busy_ratio() is
        // INFINITY — --stats=json must stay parseable with a null there
        let grid = TileGrid::square(32, 16).unwrap();
        let mon = MonitorReport::new(
            2,
            grid,
            vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 100,
            }],
            vec![TileRecord {
                iteration: 1,
                x: 0,
                y: 0,
                w: 16,
                h: 16,
                start_ns: 0,
                end_ns: 60,
                worker: 0,
            }],
        );
        let rep = UnifiedReport::new(Some(mon), CounterSnapshot::default(), Vec::new());
        let text = rep.to_json().dump();
        assert!(!text.contains("inf"), "non-finite leaked into: {text}");
        let j = Json::parse(&text).expect("stats JSON must stay valid");
        let iters = j.get("iterations").unwrap().as_arr().unwrap();
        assert_eq!(iters[0].get("busy_ratio"), Some(&Json::Null));
    }
}
