//! Chrome Trace Event export: any recorded [`Trace`] (plus optional
//! perf spans) becomes a JSON file that `chrome://tracing` and Perfetto
//! load directly — EASYVIEW's timeline without writing a viewer.
//!
//! Mapping: one Chrome *thread* per worker, tile tasks become complete
//! (`"ph": "X"`) events on their worker's lane with the tile rectangle
//! in `args`, iterations become complete events on a synthetic lane one
//! past the last worker, and extra [`SpanRecord`]s land on their
//! worker's lane under the `span` category (`idle` for the idle-cause
//! intervals).

use crate::model::Trace;
use ezp_core::json::{Json, ToJson};
use ezp_perf::SpanRecord;

/// The `tid` of the synthetic iterations lane.
fn iterations_lane(trace: &Trace) -> usize {
    trace.meta.threads
}

/// A complete (`"ph": "X"`) slice on lane `tid`. The format counts in
/// microseconds; ours are nanoseconds, so they become fractional µs
/// here (and only here), which keeps sub-microsecond tiles visible.
fn slice(
    name: &str,
    cat: &str,
    start_ns: u64,
    dur_ns: u64,
    tid: usize,
    args: Option<Json>,
) -> Json {
    let mut fields: Vec<(String, Json)> = [
        ("name", name.to_json()),
        ("cat", cat.to_json()),
        ("ph", "X".to_json()),
        ("ts", Json::Float(start_ns as f64 / 1000.0)),
        ("dur", Json::Float(dur_ns as f64 / 1000.0)),
        ("pid", Json::UInt(0)),
        ("tid", tid.to_json()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    fields.extend(args.map(|a| ("args".to_string(), a)));
    Json::Obj(fields)
}

/// A `"ph": "M"` metadata event naming lane `tid` in the viewer.
fn thread_name(tid: usize, name: &str) -> Json {
    Json::obj([
        ("name", "thread_name".to_json()),
        ("ph", "M".to_json()),
        ("pid", Json::UInt(0)),
        ("tid", tid.to_json()),
        ("args", Json::obj([("name", name.to_json())])),
    ])
}

/// Converts `trace` (and optional perf `spans`) to a Chrome Trace Event
/// JSON document: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn to_chrome(trace: &Trace, spans: &[SpanRecord]) -> Json {
    // An iteration still open at export time carries the u64::MAX
    // sentinel; clamp it to the last observed timestamp so the viewer
    // does not draw a 584-year bar.
    let clamp_end = trace.time_bounds().map(|(_, end)| end).unwrap_or(0);
    let iter_tid = iterations_lane(trace);
    let mut items: Vec<Json> = (0..trace.meta.threads)
        .map(|w| thread_name(w, &format!("worker {w}")))
        .collect();
    items.push(thread_name(iter_tid, "iterations"));
    items.reserve(trace.tasks.len() + trace.iterations.len() + spans.len());
    for t in &trace.tasks {
        let args = Json::obj([
            ("iteration", Json::UInt(t.iteration as u64)),
            ("x", Json::UInt(t.x as u64)),
            ("y", Json::UInt(t.y as u64)),
            ("w", Json::UInt(t.w as u64)),
            ("h", Json::UInt(t.h as u64)),
        ]);
        items.push(slice(
            "tile",
            "tile",
            t.start_ns,
            t.duration_ns(),
            t.worker,
            Some(args),
        ));
    }
    for s in &trace.iterations {
        let end = if s.end_ns == u64::MAX {
            clamp_end
        } else {
            s.end_ns
        };
        let name = format!("iteration {}", s.iteration);
        let dur_ns = end.saturating_sub(s.start_ns);
        items.push(slice(
            &name,
            "iteration",
            s.start_ns,
            dur_ns,
            iter_tid,
            None,
        ));
    }
    // Idle-cause intervals ("idle:steal", "idle:backpressure", ...) get
    // their own category so Perfetto can filter the *why a lane is
    // dark* slices separately from compute spans.
    for s in spans {
        let cat = if s.name.starts_with("idle:") {
            "idle"
        } else {
            "span"
        };
        items.push(slice(
            s.name,
            cat,
            s.start_ns,
            s.duration_ns(),
            s.worker,
            None,
        ));
    }
    Json::obj([
        ("traceEvents", Json::Arr(items)),
        ("displayTimeUnit", "ms".to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::sample_trace;

    fn events(j: &Json) -> Vec<&Json> {
        j.get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .collect()
    }

    fn of_phase<'a>(evs: &[&'a Json], ph: &str) -> Vec<&'a Json> {
        evs.iter()
            .filter(|e| e.field::<String>("ph").unwrap() == ph)
            .copied()
            .collect()
    }

    #[test]
    fn trace_converts_to_chrome_events() {
        let t = sample_trace();
        let j = to_chrome(&t, &[]);
        // must be valid JSON end to end
        let j = Json::parse(&j.dump()).unwrap();
        assert_eq!(j.field::<String>("displayTimeUnit").unwrap(), "ms");
        let evs = events(&j);
        // 2 workers + iterations lane named, 4 tiles + 2 iterations
        assert_eq!(of_phase(&evs, "M").len(), 3);
        let complete = of_phase(&evs, "X");
        assert_eq!(complete.len(), 6);
        let tiles: Vec<_> = complete
            .iter()
            .filter(|e| e.field::<String>("cat").unwrap() == "tile")
            .collect();
        assert_eq!(tiles.len(), 4);
        assert_eq!(tiles[0].get("args").unwrap().field::<u64>("x").unwrap(), 0);
        // iterations sit on the synthetic lane past the last worker
        for e in complete
            .iter()
            .filter(|e| e.field::<String>("cat").unwrap() == "iteration")
        {
            assert_eq!(e.field::<u64>("tid").unwrap(), 2);
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        let t = sample_trace();
        let j = to_chrome(&t, &[]);
        let evs = events(&j);
        let tile = of_phase(&evs, "X")[0];
        // first tile: start 5 ns, duration 45 ns
        assert!((tile.field::<f64>("ts").unwrap() - 0.005).abs() < 1e-12);
        assert!((tile.field::<f64>("dur").unwrap() - 0.045).abs() < 1e-12);
    }

    #[test]
    fn open_iteration_sentinel_is_clamped() {
        let mut t = sample_trace();
        t.iterations[1].end_ns = u64::MAX; // still open
        let j = to_chrome(&t, &[]);
        let evs = events(&j);
        let iter2 = of_phase(&evs, "X")
            .into_iter()
            .find(|e| e.field::<String>("name").unwrap() == "iteration 2")
            .unwrap();
        // clamped to the last task end (215 ns), not 584 years
        let dur_us = iter2.field::<f64>("dur").unwrap();
        assert!((dur_us - 0.115).abs() < 1e-12, "dur {dur_us}");
    }

    #[test]
    fn perf_spans_ride_along() {
        let t = sample_trace();
        let spans = vec![
            SpanRecord {
                name: "compute",
                worker: 1,
                start_ns: 10,
                end_ns: 30,
            },
            SpanRecord {
                name: "idle:backpressure",
                worker: 0,
                start_ns: 100,
                end_ns: 400,
            },
        ];
        let j = to_chrome(&t, &spans);
        let evs = events(&j);
        let of_cat = |cat: &str| {
            of_phase(&evs, "X")
                .into_iter()
                .find(|e| e.field::<String>("cat").unwrap() == cat)
                .unwrap()
        };
        let span = of_cat("span");
        assert_eq!(span.field::<String>("name").unwrap(), "compute");
        assert_eq!(span.field::<u64>("tid").unwrap(), 1);
        // idle-cause intervals are filterable on their own
        let idle = of_cat("idle");
        assert_eq!(idle.field::<String>("name").unwrap(), "idle:backpressure");
        assert!((idle.field::<f64>("dur").unwrap() - 0.3).abs() < 1e-12);
    }
}
