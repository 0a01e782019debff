//! The `.ezv` binary trace format, plus JSON export.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic   b"EZV\x02"                       (4 raw bytes)
//! meta    varint length + JSON bytes        (TraceMeta)
//! iters   varint count, then per span:      iteration, start, end-start
//! tasks   varint count, then per task:
//!           iteration, x, y, w, h, worker,
//!           start delta (vs previous task start), duration
//! edges   varint count, then per edge:      from, to, kind
//! ctrs    presence flag (0/1), then varint
//!           length + CounterSnapshot JSON
//! ```
//!
//! Task starts are sorted, so delta-encoding keeps them tiny; `end` is
//! stored as a duration for the same reason. A still-open iteration span
//! (`end == u64::MAX`) is preserved via a 0/1 flag.
//!
//! Version 2 appended dependency edges and a runtime-counter snapshot to
//! version 1's layout. Reader and writer speak version 2 only: any other
//! version, 1 included, is rejected loudly rather than misparsed.

use crate::model::{Trace, TraceMeta};
use crate::varint::{read_u64, read_usize, write_u64, write_usize};
use ezp_core::error::{Error, Result};
use ezp_core::json::{FromJson, Json, ToJson};
use ezp_monitor::report::IterationSpan;
use ezp_monitor::{DepEdge, TileRecord};
use ezp_perf::CounterSnapshot;
use std::io::Write;
use std::path::Path;

const MAGIC_V2: &[u8; 4] = b"EZV\x02";

/// Bytes a task record takes at most when its coordinates are below
/// 2¹⁴, tile sides, worker and iteration below 2⁷, and its start delta
/// and duration below 2²¹ ns (≈ 2 ms): 15, rounded up. A 1024² run of
/// 16² tiles averages ≈ 12.5.
const TASK_BYTES: usize = 16;

/// A validated trace with its JSON sections dumped: what both
/// [`to_bytes`] and [`save`] encode.
struct Encoding<'a> {
    trace: &'a Trace,
    meta: String,
    counters: Option<String>,
}

impl<'a> Encoding<'a> {
    fn new(trace: &'a Trace) -> Result<Self> {
        trace.validate()?;
        Ok(Encoding {
            trace,
            meta: trace.meta.to_json().dump(),
            counters: trace.counters.as_ref().map(|c| c.to_json().dump()),
        })
    }

    /// An encoded length that a trace whose tasks fit [`TASK_BYTES`]
    /// does not exceed, so [`to_bytes`] allocates once.
    fn len_bound(&self) -> usize {
        let trace = self.trace;
        // magic, four counts or flags and a JSON length: 64 bytes;
        // a closed span is at most 5 + 10 + 1 + 10 bytes, an edge
        // between tasks below 2²¹ 3 + 3 + 1
        64 + self.meta.len()
            + self.counters.as_ref().map_or(0, String::len)
            + trace.iterations.len() * 26
            + trace.tasks.len() * TASK_BYTES
            + trace.edges.len() * 8
    }

    fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        let trace = self.trace;
        out.write_all(MAGIC_V2)?;
        write_usize(out, self.meta.len())?;
        out.write_all(self.meta.as_bytes())?;

        write_usize(out, trace.iterations.len())?;
        for s in &trace.iterations {
            write_u64(out, s.iteration as u64)?;
            write_u64(out, s.start_ns)?;
            if s.end_ns == u64::MAX {
                write_u64(out, 0)?; // open
            } else {
                write_u64(out, 1)?; // closed
                write_u64(out, s.end_ns - s.start_ns)?;
            }
        }

        write_usize(out, trace.tasks.len())?;
        let mut prev_start = 0u64;
        for t in &trace.tasks {
            write_u64(out, t.iteration as u64)?;
            write_usize(out, t.x)?;
            write_usize(out, t.y)?;
            write_usize(out, t.w)?;
            write_usize(out, t.h)?;
            write_usize(out, t.worker)?;
            // starts are non-decreasing within an iteration but may step back
            // across iterations; encode a sign flag + magnitude
            let (sign, delta) = if t.start_ns >= prev_start {
                (0u64, t.start_ns - prev_start)
            } else {
                (1u64, prev_start - t.start_ns)
            };
            write_u64(out, sign)?;
            write_u64(out, delta)?;
            write_u64(out, t.end_ns - t.start_ns)?;
            prev_start = t.start_ns;
        }

        write_usize(out, trace.edges.len())?;
        for e in &trace.edges {
            write_usize(out, e.from)?;
            write_usize(out, e.to)?;
            write_u64(out, e.kind as u64)?;
        }

        match &self.counters {
            None => write_u64(out, 0),
            Some(json) => {
                write_u64(out, 1)?;
                write_usize(out, json.len())?;
                out.write_all(json.as_bytes())
            }
        }
    }
}

/// Serializes a trace to `.ezv` bytes.
pub fn to_bytes(trace: &Trace) -> Result<Vec<u8>> {
    let encoding = Encoding::new(trace)?;
    let mut out = Vec::with_capacity(encoding.len_bound());
    encoding.write(&mut out)?;
    Ok(out)
}

/// Parses `.ezv` bytes back into a trace (validated).
pub fn from_bytes(bytes: &[u8]) -> Result<Trace> {
    let mut buf = bytes;
    if buf.len() < 4 || &buf[..3] != b"EZV" {
        return Err(Error::TraceFormat("bad magic (not an .ezv trace)".into()));
    }
    let version = buf[3];
    if &buf[..4] != MAGIC_V2 {
        return Err(Error::TraceFormat(format!(
            "unsupported .ezv version {version} (this build reads v2)"
        )));
    }
    buf = &buf[4..];

    let meta_len = read_usize(&mut buf)?;
    if buf.len() < meta_len {
        return Err(Error::TraceFormat("truncated metadata".into()));
    }
    let meta_text = std::str::from_utf8(&buf[..meta_len])
        .map_err(|e| Error::TraceFormat(format!("metadata is not UTF-8: {e}")))?;
    let meta = Json::parse(meta_text)
        .and_then(|v| TraceMeta::from_json(&v))
        .map_err(|e| Error::TraceFormat(format!("bad metadata JSON: {e}")))?;
    buf = &buf[meta_len..];

    let iter_count = read_usize(&mut buf)?;
    let mut iterations = Vec::with_capacity(iter_count.min(1 << 20));
    for _ in 0..iter_count {
        let iteration = read_iteration(&mut buf)?;
        let start_ns = read_u64(&mut buf)?;
        let end_ns = match read_u64(&mut buf)? {
            0 => u64::MAX,
            1 => add_ns(start_ns, read_u64(&mut buf)?, "iteration span end")?,
            other => {
                return Err(Error::TraceFormat(format!("bad span flag {other}")));
            }
        };
        iterations.push(IterationSpan {
            iteration,
            start_ns,
            end_ns,
        });
    }

    let task_count = read_usize(&mut buf)?;
    let mut tasks = Vec::with_capacity(task_count.min(1 << 20));
    let mut prev_start = 0u64;
    for _ in 0..task_count {
        let iteration = read_iteration(&mut buf)?;
        let x = read_usize(&mut buf)?;
        let y = read_usize(&mut buf)?;
        let w = read_usize(&mut buf)?;
        let h = read_usize(&mut buf)?;
        let worker = read_usize(&mut buf)?;
        let sign = read_u64(&mut buf)?;
        let delta = read_u64(&mut buf)?;
        let start_ns = match sign {
            0 => add_ns(prev_start, delta, "task start")?,
            1 => prev_start.checked_sub(delta).ok_or_else(|| {
                Error::TraceFormat("negative timestamp after delta decoding".into())
            })?,
            other => return Err(Error::TraceFormat(format!("bad delta sign {other}"))),
        };
        let end_ns = add_ns(start_ns, read_u64(&mut buf)?, "task end")?;
        prev_start = start_ns;
        tasks.push(TileRecord {
            iteration,
            x,
            y,
            w,
            h,
            start_ns,
            end_ns,
            worker,
        });
    }
    let mut edges = Vec::new();
    let mut counters = None;
    let edge_count = read_usize(&mut buf)?;
    edges.reserve(edge_count.min(1 << 20));
    for _ in 0..edge_count {
        let from = read_usize(&mut buf)?;
        let to = read_usize(&mut buf)?;
        let kind = read_u64(&mut buf)?;
        if kind > u8::MAX as u64 {
            return Err(Error::TraceFormat(format!("bad edge kind {kind}")));
        }
        edges.push(DepEdge {
            from,
            to,
            kind: kind as u8,
        });
    }
    match read_u64(&mut buf)? {
        0 => {}
        1 => {
            let len = read_usize(&mut buf)?;
            if buf.len() < len {
                return Err(Error::TraceFormat("truncated counter snapshot".into()));
            }
            let text = std::str::from_utf8(&buf[..len])
                .map_err(|e| Error::TraceFormat(format!("counter snapshot is not UTF-8: {e}")))?;
            let snap = Json::parse(text)
                .and_then(|v| CounterSnapshot::from_json(&v))
                .map_err(|e| Error::TraceFormat(format!("bad counter JSON: {e}")))?;
            buf = &buf[len..];
            counters = Some(snap);
        }
        other => {
            return Err(Error::TraceFormat(format!("bad counter flag {other}")));
        }
    }
    if !buf.is_empty() {
        return Err(Error::TraceFormat(format!(
            "{} trailing bytes after trace",
            buf.len()
        )));
    }
    let trace = Trace {
        meta,
        iterations,
        tasks,
        edges,
        counters,
    };
    trace.validate()?;
    Ok(trace)
}

/// Reads an iteration number, which must fit the `u32` it is stored in.
fn read_iteration(buf: &mut &[u8]) -> Result<u32> {
    let v = read_u64(buf)?;
    u32::try_from(v).map_err(|_| Error::TraceFormat(format!("iteration {v} exceeds u32")))
}

/// `base + delta` for a decoded timestamp, which must not leave `u64`.
fn add_ns(base: u64, delta: u64, what: &str) -> Result<u64> {
    base.checked_add(delta)
        .ok_or_else(|| Error::TraceFormat(format!("{what} overflows u64 ({base} + {delta} ns)")))
}

/// Writes a trace to `path` in binary `.ezv` form, encoding straight
/// into the file (see [`ezp_core::file::rewrite`]). An invalid trace is
/// refused before the file is opened.
pub fn save(trace: &Trace, path: impl AsRef<Path>) -> Result<()> {
    let encoding = Encoding::new(trace)?;
    ezp_core::file::rewrite(path, |out| Ok(encoding.write(out)?))
}

/// Loads a binary `.ezv` trace from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<Trace> {
    from_bytes(&std::fs::read(path)?)
}

/// Exports a trace as pretty JSON (for external tooling / debugging).
pub fn to_json(trace: &Trace) -> Result<String> {
    Ok(trace.to_json().pretty())
}

/// Imports a trace from its JSON export.
pub fn from_json(json: &str) -> Result<Trace> {
    let value = Json::parse(json).map_err(|e| Error::TraceFormat(format!("bad JSON: {e}")))?;
    let trace =
        Trace::from_json(&value).map_err(|e| Error::TraceFormat(format!("bad trace JSON: {e}")))?;
    trace.validate()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::any_u64;

    fn sample() -> Trace {
        let meta = TraceMeta {
            kernel: "mandel".into(),
            variant: "omp_tiled".into(),
            dim: 64,
            tile_size: 16,
            threads: 3,
            schedule: "dynamic,2".into(),
            label: "run A".into(),
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
                    start_ns: 10,
                    end_ns: 500,
                },
                IterationSpan {
                    iteration: 2,
                    start_ns: 500,
                    end_ns: u64::MAX, // still open
                },
            ],
            tasks: vec![
                mk(1, 0, 0, 12, 120, 0),
                mk(1, 16, 0, 15, 100, 1),
                mk(1, 32, 0, 18, 300, 2),
                mk(2, 0, 16, 505, 800, 1),
                mk(2, 16, 16, 510, 620, 0),
            ],
            edges: vec![
                DepEdge {
                    from: 0,
                    to: 1,
                    kind: 0,
                },
                DepEdge {
                    from: 1,
                    to: 2,
                    kind: 1,
                },
                DepEdge {
                    from: 0,
                    to: 4,
                    kind: 2,
                },
            ],
            counters: Some({
                let mut set = ezp_perf::CounterSet::new(3);
                let c = set.register("tasks_executed");
                for w in 0..3 {
                    set.add(c, w, 1 + w as u64);
                }
                set.snapshot()
            }),
        }
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let bytes = to_bytes(&t).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let json = to_json(&t).unwrap();
        assert!(json.contains("mandel"));
        let back = from_json(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn file_round_trip() {
        let t = sample();
        let path = std::env::temp_dir().join(format!("ezp_trace_test_{}.ezv", std::process::id()));
        // over a longer file: the saved bytes are `to_bytes`, no old tail
        std::fs::write(&path, vec![0xAA; 4096]).unwrap();
        save(&t, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), to_bytes(&t).unwrap());
        let back = load(&path).unwrap();
        assert_eq!(back, t);
        // an invalid trace is refused before the file is touched
        let mut bad = t.clone();
        bad.tasks[0].worker = 99;
        assert!(matches!(save(&bad, &path), Err(Error::TraceFormat(_))));
        assert_eq!(load(&path).unwrap(), t);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn to_bytes_allocates_once_for_a_recorded_run() {
        // 15 iterations of 4096 16² tiles on 2 workers, a task every 700 ns
        let mut t = sample();
        t.meta.dim = 1024;
        t.tasks = (0..15 * 4096u64)
            .map(|i| {
                let tile = (i % 4096) as usize;
                TileRecord {
                    iteration: 1 + (i / 4096) as u32,
                    x: tile % 64 * 16,
                    y: tile / 64 * 16,
                    w: 16,
                    h: 16,
                    start_ns: i * 700,
                    end_ns: i * 700 + 500 + i % 3000,
                    worker: (i % 2) as usize,
                }
            })
            .collect();
        let bound = Encoding::new(&t).unwrap().len_bound();
        let bytes = to_bytes(&t).unwrap();
        assert!(bytes.len() <= bound, "{} > {bound}", bytes.len());
        assert_eq!(bytes.capacity(), bound, "the buffer grew");
        assert_eq!(from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(Error::TraceFormat(_))));
    }

    #[test]
    fn unknown_version_rejected_with_a_clear_error() {
        let mut bytes = to_bytes(&sample()).unwrap();
        bytes[3] = 3; // a future EZV\x03
        let err = from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unsupported .ezv version 3"),
            "unexpected error: {err}"
        );
        bytes[3] = 0;
        assert!(from_bytes(&bytes).is_err());
    }

    /// `.ezv` bytes for the sample's metadata, written field by field
    /// as a hostile file could: each span is `[iteration, start, 1,
    /// duration]`, each task `[iteration, x, y, w, h, worker, sign,
    /// delta, duration]`; no edges, no counters.
    fn crafted(spans: &[[u64; 4]], tasks: &[[u64; 9]]) -> Vec<u8> {
        let mut out = MAGIC_V2.to_vec();
        let meta = sample().meta.to_json().dump();
        write_usize(&mut out, meta.len()).unwrap();
        out.extend_from_slice(meta.as_bytes());
        let sections = [
            &[spans.len() as u64][..],
            spans.as_flattened(),
            &[tasks.len() as u64],
            tasks.as_flattened(),
            &[0, 0],
        ];
        for &v in sections.concat().iter() {
            write_u64(&mut out, v).unwrap();
        }
        out
    }

    fn format_error(bytes: &[u8]) -> String {
        match from_bytes(bytes) {
            Err(Error::TraceFormat(msg)) => msg,
            other => panic!("expected a trace format error, got {other:?}"),
        }
    }

    #[test]
    fn a_span_end_past_u64_is_rejected() {
        let msg = format_error(&crafted(&[[1, u64::MAX - 1, 1, 2]], &[]));
        assert!(msg.contains("iteration span end overflows"), "{msg}");
    }

    #[test]
    fn a_task_start_past_u64_is_rejected() {
        let tasks = [
            [1, 0, 0, 16, 16, 0, 0, u64::MAX, 0],
            [1, 0, 0, 16, 16, 0, 0, 1, 0],
        ];
        let msg = format_error(&crafted(&[], &tasks));
        assert!(msg.contains("task start overflows"), "{msg}");
    }

    #[test]
    fn a_task_end_past_u64_is_rejected() {
        let msg = format_error(&crafted(&[], &[[1, 0, 0, 16, 16, 0, 0, u64::MAX, 1]]));
        assert!(msg.contains("task end overflows"), "{msg}");
    }

    #[test]
    fn task_durations_summing_past_the_work_bound_are_rejected() {
        // three tasks of 2^63 ns each: every timestamp fits, their sum
        // does not
        let task = |delta| [1, 0, 0, 16, 16, 0, 0, delta, 1 << 63];
        let msg = format_error(&crafted(&[], &[task(0), task(0), task(0)]));
        assert!(msg.contains("summed task durations overflow"), "{msg}");
        // the bound itself is accepted, one ns past it is not
        let third = crate::model::MAX_WORK_NS / 3;
        let mut tasks = [task(0), task(0), task(0)].map(|mut t| {
            t[8] = third;
            t
        });
        tasks[2][8] = crate::model::MAX_WORK_NS - 2 * third;
        assert!(from_bytes(&crafted(&[], &tasks)).is_ok());
        tasks[2][8] += 1;
        let msg = format_error(&crafted(&[], &tasks));
        assert!(msg.contains("summed task durations overflow"), "{msg}");
    }

    #[test]
    fn a_span_iteration_past_u32_is_rejected_by_value() {
        let msg = format_error(&crafted(&[[(1 << 32) + 1, 10, 1, 5]], &[]));
        assert!(msg.contains("iteration 4294967297 exceeds u32"), "{msg}");
    }

    #[test]
    fn a_task_iteration_past_u32_is_rejected_by_value() {
        let msg = format_error(&crafted(&[], &[[(1 << 32) + 1, 0, 0, 16, 16, 0, 0, 12, 3]]));
        assert!(msg.contains("iteration 4294967297 exceeds u32"), "{msg}");
    }

    #[test]
    fn a_v1_header_is_refused_by_version() {
        let mut bytes = crafted(&[], &[]);
        assert!(from_bytes(&bytes).is_ok());
        bytes[3] = 1;
        let msg = format_error(&bytes);
        assert!(msg.contains("unsupported .ezv version 1"), "{msg}");
    }

    #[test]
    fn counterless_v2_round_trips() {
        let mut t = sample();
        t.counters = None;
        let back = from_bytes(&to_bytes(&t).unwrap()).unwrap();
        assert_eq!(back, t);
        assert!(back.counters.is_none());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = to_bytes(&sample()).unwrap();
        // cutting the stream at any point must fail, never panic
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} succeeded");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = to_bytes(&sample()).unwrap();
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_trace_refuses_to_serialize() {
        let mut t = sample();
        t.tasks[0].worker = 99;
        assert!(to_bytes(&t).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut t = sample();
        t.tasks.clear();
        t.iterations.clear();
        let back = from_bytes(&to_bytes(&t).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    ezp_proptest! {
        #![cases(64)]

        fn prop_round_trip(n_tasks in 0usize..40, n_edges in 0usize..24, seed in any_u64()) {
            // build a sorted, valid task list from the seed
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 33
            };
            let mut tasks = Vec::new();
            let mut start = 0u64;
            for i in 0..n_tasks {
                let it = 1 + (i / 8) as u32;
                start += next() % 1000;
                tasks.push(TileRecord {
                    iteration: it,
                    x: (next() % 64) as usize,
                    y: (next() % 64) as usize,
                    w: 1 + (next() % 16) as usize,
                    h: 1 + (next() % 16) as usize,
                    start_ns: start,
                    end_ns: start + next() % 10_000,
                    worker: (next() % 4) as usize,
                });
            }
            let iterations = (1..=tasks.last().map(|t| t.iteration).unwrap_or(0))
                .map(|it| IterationSpan { iteration: it, start_ns: it as u64, end_ns: it as u64 + 10 })
                .collect();
            // random (but valid: no self-loop, known kind) edge records
            let edges = (0..n_edges)
                .map(|_| {
                    let from = (next() % 256) as usize;
                    DepEdge {
                        from,
                        to: from + 1 + (next() % 64) as usize,
                        kind: (next() % 3) as u8,
                    }
                })
                .collect();
            let counters = if seed % 2 == 0 {
                let mut set = ezp_perf::CounterSet::new(2);
                let c = set.register("chunks_served");
                set.add(c, 0, next());
                Some(set.snapshot())
            } else {
                None
            };
            let t = Trace {
                meta: TraceMeta {
                    kernel: "k".into(), variant: "v".into(), dim: 64, tile_size: 16,
                    threads: 4, schedule: "static".into(), label: "p".into(),
                },
                iterations,
                tasks,
                edges,
                counters,
            };
            let back = from_bytes(&to_bytes(&t).unwrap()).unwrap();
            assert_eq!(back, t);
        }
    }
}
