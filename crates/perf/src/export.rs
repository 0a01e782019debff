//! Snapshot exporters: Prometheus-style text and CSV.
//!
//! JSON export for counters is the `ToJson` impl on
//! [`CounterSnapshot`](crate::CounterSnapshot); Chrome traces live in
//! [`trace_event`](crate::trace_event). This module holds the remaining
//! text formats.

use crate::counters::CounterSnapshot;
use std::fmt::Write as _;

/// Metric-name prefix for every exported counter.
pub const PROM_PREFIX: &str = "ezp_";

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# TYPE` line per counter, one `worker="N"`-labeled sample per
/// worker slot, and a per-worker-label-free total.
///
/// A counter name may carry its own label set (`idle_ns{cause="..."}`);
/// the worker label is then *merged* into it rather than appended as a
/// second brace group, so the output stays well-formed.
pub fn to_prometheus(snap: &CounterSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let (base, labels) = match c.name.split_once('{') {
            Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
            None => (c.name.as_str(), ""),
        };
        let _ = writeln!(out, "# TYPE {PROM_PREFIX}{base} counter");
        for (w, v) in c.per_worker.iter().enumerate() {
            if labels.is_empty() {
                let _ = writeln!(out, "{PROM_PREFIX}{base}{{worker=\"{w}\"}} {v}");
            } else {
                let _ = writeln!(out, "{PROM_PREFIX}{base}{{{labels},worker=\"{w}\"}} {v}");
            }
        }
        let _ = writeln!(out, "{PROM_PREFIX}{} {}", c.name, c.total());
    }
    out
}

/// Renders a snapshot as `counter,worker,value` CSV (plus a `total`
/// pseudo-worker row per counter) for spreadsheet-side analysis.
pub fn to_csv(snap: &CounterSnapshot) -> String {
    let mut out = String::from("counter,worker,value\n");
    for c in &snap.counters {
        for (w, v) in c.per_worker.iter().enumerate() {
            let _ = writeln!(out, "{},{w},{v}", c.name);
        }
        let _ = writeln!(out, "{},total,{}", c.name, c.total());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSet;
    use ezp_testkit::ezp_proptest;

    fn sample() -> CounterSnapshot {
        let mut set = CounterSet::new(2);
        let a = set.register("tasks_executed");
        let b = set.register("idle_ns");
        set.add(a, 0, 7);
        set.add(a, 1, 5);
        set.add(b, 1, 123_456);
        set.snapshot()
    }

    #[test]
    fn prometheus_text_shape() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE ezp_tasks_executed counter"));
        assert!(text.contains("ezp_tasks_executed{worker=\"0\"} 7"));
        assert!(text.contains("ezp_tasks_executed{worker=\"1\"} 5"));
        assert!(text.contains("\nezp_tasks_executed 12\n"));
        assert!(text.contains("ezp_idle_ns 123456"));
    }

    #[test]
    fn labeled_counter_names_merge_the_worker_label() {
        let mut set = CounterSet::new(2);
        let id = set.register("idle_ns{cause=\"steal\"}");
        set.add(id, 0, 40);
        set.add(id, 1, 2);
        let snap = set.snapshot();
        let text = to_prometheus(&snap);
        // one brace group per sample, worker merged after the cause
        assert!(text.contains("ezp_idle_ns{cause=\"steal\",worker=\"0\"} 40"));
        assert!(text.contains("ezp_idle_ns{cause=\"steal\",worker=\"1\"} 2"));
        assert!(text.contains("ezp_idle_ns{cause=\"steal\"} 42"));
        assert!(!text.contains("}{"), "nested brace groups in:\n{text}");
    }

    #[test]
    fn csv_has_header_and_totals() {
        let text = to_csv(&sample());
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("counter,worker,value"));
        assert!(text.contains("tasks_executed,1,5"));
        assert!(text.contains("tasks_executed,total,12"));
    }

    ezp_proptest! {
        // The JSON export reconstructs arbitrary snapshots exactly
        // (values include u64::MAX-scale extremes).
        fn snapshot_json_round_trips(seed in 0u64..u64::MAX) {
            use ezp_core::json::{FromJson, Json, ToJson};
            use ezp_testkit::Rng;
            let mut rng = Rng::seed(seed);
            let workers = rng.gen_range(1usize..=4);
            let n_counters = rng.gen_range(1usize..=4);
            let mut set = CounterSet::new(workers);
            for i in 0..n_counters {
                let id = set.register(&format!("c{i}"));
                for w in 0..workers {
                    // bias toward edge values: 0, tiny, huge
                    let v = match rng.gen_range(0u8..4) {
                        0 => 0,
                        1 => rng.gen_range(0u64..100),
                        2 => u64::MAX - rng.gen_range(0u64..3),
                        _ => rng.next_u64(),
                    };
                    set.add(id, w, v);
                }
            }
            let snap = set.snapshot();
            let json =
                CounterSnapshot::from_json(&Json::parse(&snap.to_json().dump()).unwrap())
                    .unwrap();
            assert_eq!(json, snap, "json round-trip");
        }
    }
}
