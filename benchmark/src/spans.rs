//! In-memory spans around the calls the benchmark makes into each
//! crate, the self-time arithmetic over them, and the ledger that
//! attributes a traced operation's wall time to named parts.

use ezp_core::json::{Json, ToJson};
use std::time::Instant;

/// The ledger parts, in report order. A workload only has the parts its
/// operation exercises; the rest read 0.
pub const PARTS: [&str; 8] = [
    "startup",
    "dispatch_idle",
    "compute",
    "probe",
    "output",
    "analyze",
    "daemon_overhead",
    "unattributed",
];

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (`parse_args`, `run_kernel`, ...).
    pub name: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Ledger part the span's self time is booked to.
    pub part: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The traced operation this span belongs to.
    pub op_id: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. A disabled recorder runs the same closures
/// without reading the clock, which is the untraced side of the
/// `trace_overhead` comparison.
pub struct Recorder {
    /// The instant span timestamps count from.
    pub t0: Instant,
    enabled: bool,
    op_id: u32,
    stack: Vec<usize>,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            t0: Instant::now(),
            enabled,
            op_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span booked to `part`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        part: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            part,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Runs `f` as traced operation number `op_id`: a root span whose
    /// self time is the ledger's `unattributed` part.
    pub fn operation<R>(&mut self, op_id: u32, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.op_id = op_id;
        self.span("operation", "benchmark", "unattributed", f)
    }

    /// Records an interval measured elsewhere (a duration the callee
    /// reported, a probe's tally) as a child of span `parent` — the
    /// innermost open span when `None` — clipped to it. Returns the new
    /// span's index so further intervals can nest inside it.
    pub fn child(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        layer: &'static str,
        part: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = parent.or(self.stack.last().copied())?;
        let open = self.stack.contains(&parent);
        let outer_end = if open {
            self.now_ns()
        } else {
            self.spans[parent].end_ns
        };
        let lo = start_ns.clamp(self.spans[parent].start_ns, outer_end);
        let hi = (lo + dur_ns).min(outer_end);
        self.spans.push(Span {
            name,
            layer,
            part,
            start_ns: lo,
            end_ns: hi,
            parent: Some(parent),
            op_id: self.op_id,
        });
        Some(self.spans.len() - 1)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Overlapping children (two workers inside one
/// region) are merged first, so covered time is never counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                kids[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, iv)| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in iv.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Wall-time shares of one workload's traced operations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// `(part, share of the traced wall)` for every entry of [`PARTS`].
    pub shares: Vec<(&'static str, f64)>,
    /// Summed wall of the root spans, ns.
    pub wall_ns: u64,
}

impl Ledger {
    /// Share of `part` (0 when the workload has no such part).
    pub fn share(&self, part: &str) -> f64 {
        self.shares
            .iter()
            .find(|(p, _)| *p == part)
            .map_or(0.0, |(_, s)| *s)
    }
}

/// Books every span's self time to its part and divides by the summed
/// wall of the root spans. The shares sum to 1 by construction: self
/// times partition each root exactly.
pub fn ledger(spans: &[Span]) -> Ledger {
    let own = self_times(spans);
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum();
    let shares = PARTS
        .iter()
        .map(|&part| {
            let ns: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.part == part)
                .map(|(_, &t)| t)
                .sum();
            (part, ns as f64 / wall_ns.max(1) as f64)
        })
        .collect();
    Ledger { shares, wall_ns }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, `pid` = operation, `tid` = nesting
/// depth, the layer as category and the ledger part in `args`.
pub fn to_chrome(spans: &[Span], meta: Json) -> Json {
    let depth = |mut i: usize| {
        let mut d = 0u64;
        while let Some(p) = spans[i].parent {
            d += 1;
            i = p;
        }
        d
    };
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", s.name.to_json()),
                ("cat", s.layer.to_json()),
                ("ph", "X".to_json()),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float(s.dur() as f64 / 1e3)),
                ("pid", (s.op_id as u64).to_json()),
                ("tid", depth(i).to_json()),
                (
                    "args",
                    Json::obj([
                        ("part", s.part.to_json()),
                        ("parent", s.parent.map(|p| p as u64).to_json()),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events)), ("metadata", meta)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(part: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "l",
            part,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_cover() {
        let spans = vec![
            span("unattributed", 0, 100, None),
            // two overlapping children cover [10, 60) once, not twice
            span("compute", 10, 50, Some(0)),
            span("compute", 30, 60, Some(0)),
            // a disjoint child
            span("output", 70, 80, Some(0)),
            // a grandchild only reduces its own parent
            span("probe", 12, 20, Some(1)),
            // a child poking out of its parent is clipped to it
            span("output", 90, 130, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 50 - 10 - 10);
        assert_eq!(own[1], 40 - 8);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn ledger_shares_sum_to_one() {
        let spans = vec![
            span("unattributed", 0, 1000, None),
            span("startup", 0, 100, Some(0)),
            span("dispatch_idle", 100, 900, Some(0)),
            span("compute", 200, 700, Some(2)),
            span("output", 900, 950, Some(0)),
            // a second operation's root
            span("unattributed", 2000, 2500, None),
            span("compute", 2000, 2400, Some(5)),
        ];
        let l = ledger(&spans);
        assert_eq!(l.wall_ns, 1500);
        let sum: f64 = l.shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
        assert!((l.share("compute") - 900.0 / 1500.0).abs() < 1e-12);
        assert!((l.share("dispatch_idle") - 300.0 / 1500.0).abs() < 1e-12);
        assert!((l.share("unattributed") - 150.0 / 1500.0).abs() < 1e-12);
        assert_eq!(l.share("analyze"), 0.0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let v = rec.operation(3, |r| {
            r.span("a", "core", "startup", |r| {
                r.span("b", "sched", "compute", |_| 7)
            })
        });
        assert_eq!(v, 7);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[2].parent, Some(1));
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec
            .spans
            .iter()
            .all(|s| s.op_id == 3 && s.end_ns >= s.start_ns));
        let chrome = to_chrome(&rec.spans, Json::Null);
        assert_eq!(
            chrome.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );

        let mut off = Recorder::new(false);
        assert_eq!(
            off.operation(0, |r| r.span("a", "core", "startup", |_| 1)),
            1
        );
        assert!(off.spans.is_empty());
    }
}
