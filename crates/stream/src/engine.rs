//! The parallel streaming engine: frames through a [`Pipeline`] on the
//! worker pool's task-graph executor.
//!
//! The engine never schedules anything itself. It processes the stream
//! in windows of up to [`WINDOW`] frames; each window's
//! `(frame, stage)` units become a task graph via the pipeline's
//! [`PipeShape`](ezp_sched::PipeShape) — data, width and capacity edges
//! encode frame flow, stage replication and bounded buffers — and
//! [`TaskGraph::run_probed`](ezp_sched::TaskGraph::run_probed) executes
//! it on the Chase-Lev deques with the ordinary steal path. The region
//! barrier between windows is what lets a serial stage's cross-window
//! ordering hold with no extra machinery.
//!
//! Frame payloads travel *in place*: one slot per in-window frame,
//! handed from stage to stage and, after the final stage, left there
//! until the window's barrier, when the engine drains the slots into
//! the sink in emission order. Every hand-off is ordered by a graph
//! edge or that barrier (happens-before), so the slot locks are
//! uncontended by construction — they exist to keep the crate
//! `#![deny(unsafe_code)]`, not to synchronize. Nothing here can wait
//! on a buffer: backpressure is the graph's width/capacity edges only.
//!
//! Observability: the engine classifies *why* a unit became runnable.
//! It keeps its own copy of the graph's indegrees; when the release
//! that makes a node ready arrives over a **non-data** edge (width or
//! capacity), the frame was data-ready but waiting on buffer space —
//! one backpressure stall. Gauges (`frames_in_flight`,
//! `reorder_buffer_depth`, `stage_occupancy`) are high-water marks,
//! reported through [`RuntimeEvent`]s and folded with `max` by the perf
//! probe (worker slot 0, so the reported total *is* the peak).

use crate::pipeline::Pipeline;
use ezp_core::error::Result;
use ezp_core::kernel::{IdleCause, Probe, RuntimeEvent};
use ezp_core::time::now_ns;
use ezp_core::EmitMode;
use ezp_sched::{EmitTracker, WorkerPool};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum frames per scheduling window (and so an upper bound on
/// frames in flight, on top of the per-stage width/capacity bounds).
pub const WINDOW: usize = 64;

/// What a streaming run observed about itself — the same quantities the
/// perf probe accumulates, returned directly so callers (benches, the
/// CLI summary line, tests) don't need a probe to see them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames pushed through the pipeline.
    pub frames: usize,
    /// Times a frame was data-ready but waited on a width/capacity
    /// bound (its readying release arrived over a non-data edge).
    pub backpressure_stalls: u64,
    /// High-water mark of frames simultaneously in flight (sourced but
    /// not yet handed to the sink).
    pub max_frames_in_flight: usize,
    /// High-water mark of completed-but-unemitted frames in the ordered
    /// reorder buffer (always 0 for unordered runs).
    pub max_reorder_depth: usize,
    /// High-water mark of any single stage's concurrent occupancy.
    pub max_stage_occupancy: usize,
}

/// Pushes `frames` frames through `pipe` on `pool`, emitting through
/// `sink` in `mode` order. `source` builds the payload of a frame when
/// the pipeline admits it (pull-based admission: backpressure reaches
/// all the way to frame creation). The sink runs on the calling thread
/// after each window's barrier and receives *global* frame ids: in
/// [`EmitMode::Ordered`] `0, 1, 2, …`, in [`EmitMode::Unordered`] every
/// id exactly once, in the (schedule-dependent) order the frames'
/// `StreamFrameEmitted` events fired.
pub fn run_pipeline<T: Send>(
    pipe: &Pipeline<T>,
    frames: usize,
    mode: EmitMode,
    pool: &mut WorkerPool,
    probe: &dyn Probe,
    source: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(usize, T) + Send,
) -> Result<StreamStats> {
    assert!(pipe.stages() > 0, "a pipeline needs at least one stage");
    let shape = pipe.shape();
    let stages = shape.stages();
    let want_events = probe.wants_runtime_events();

    let stalls = AtomicU64::new(0);
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let occupancy: Vec<AtomicUsize> = (0..stages).map(|_| AtomicUsize::new(0)).collect();
    let max_occupancy = AtomicUsize::new(0);
    let mut max_reorder_depth = 0usize;

    let mut base = 0usize;
    while base < frames {
        let wlen = WINDOW.min(frames - base);
        let graph = shape.graph(wlen);
        // Engine-side copy of the indegrees, to classify the release
        // that makes each node runnable (data vs backpressure edge).
        let remaining: Vec<AtomicUsize> =
            (0..graph.len()).map(|t| AtomicUsize::new(graph.indegree(t))).collect();
        // When each node's *input* became ready, so a backpressure
        // stall can be measured as a duration (data-ready → runnable).
        // Stage-0 nodes have no data edge: their input is ready at
        // window start. Only maintained when the probe wants events —
        // the clock reads are the cost.
        let window_t0 = if want_events { now_ns() } else { 0 };
        let data_ready: Vec<AtomicU64> =
            (0..graph.len()).map(|_| AtomicU64::new(window_t0)).collect();
        // One payload slot per in-window frame; hand-offs are ordered
        // by graph edges and the drain by the region barrier, so these
        // locks are uncontended.
        let slots: Vec<Mutex<Option<T>>> = (0..wlen).map(|_| Mutex::new(None)).collect();
        // Decides when a finished frame counts as emitted, and records
        // that order for the drain; shared by final-stage units.
        let tracker = Mutex::new(EmitTracker::new(wlen));

        graph.run_probed(pool, probe, |t, worker| {
            let f = shape.frame_of(t);
            let s = shape.stage_of(t);

            // acquire the payload (admit the frame on its first stage)
            let mut payload = if s == 0 {
                let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                max_in_flight.fetch_max(now, Ordering::Relaxed);
                if want_events {
                    probe.runtime_event(worker, RuntimeEvent::StreamInFlight { frames: now });
                }
                source(base + f)
            } else {
                slots[f].lock().unwrap().take().expect("payload lost between stages")
            };

            let occ = occupancy[s].fetch_add(1, Ordering::Relaxed) + 1;
            max_occupancy.fetch_max(occ, Ordering::Relaxed);
            if want_events {
                probe.runtime_event(worker, RuntimeEvent::StreamStageOccupancy { depth: occ });
            }
            pipe.apply(s, base + f, &mut payload);
            occupancy[s].fetch_sub(1, Ordering::Relaxed);

            *slots[f].lock().unwrap() = Some(payload);

            if s + 1 == stages {
                // final stage: the payload waits in its slot for the
                // drain; the tracker fires the emission events and
                // records their order under its one lock
                let mut st = tracker.lock().unwrap();
                let emitted = st.complete(f, mode);
                in_flight.fetch_sub(emitted, Ordering::Relaxed);
                if want_events {
                    for _ in 0..emitted {
                        probe.runtime_event(worker, RuntimeEvent::StreamFrameEmitted);
                    }
                    if mode == EmitMode::Ordered {
                        let depth = st.reorder_depth();
                        probe.runtime_event(worker, RuntimeEvent::StreamReorderDepth { depth });
                    }
                }
            }

            // classify the releases this completion performs: a node
            // made runnable by a non-data edge was stalled on
            // backpressure (width or capacity), not on its input
            for &d in graph.dependents(t) {
                let is_data = shape.is_data_edge(t, d);
                if want_events && is_data {
                    // ORDERING: Relaxed store, published by this
                    // worker's AcqRel decrement below — the final
                    // releaser's Acquire makes it visible.
                    data_ready[d].store(now_ns(), Ordering::Relaxed);
                }
                if remaining[d].fetch_sub(1, Ordering::AcqRel) == 1 && !is_data {
                    stalls.fetch_add(1, Ordering::Relaxed);
                    if want_events {
                        probe.runtime_event(worker, RuntimeEvent::StreamStall);
                        let waited =
                            now_ns().saturating_sub(data_ready[d].load(Ordering::Relaxed));
                        if waited > 0 {
                            probe.runtime_event(
                                worker,
                                RuntimeEvent::IdleNs {
                                    ns: waited,
                                    cause: IdleCause::Backpressure,
                                },
                            );
                        }
                    }
                }
            }
        })?;

        // Drain the window: the region barrier above guarantees every
        // frame finished its final stage and was recorded as emitted.
        let st = tracker.into_inner().unwrap();
        debug_assert_eq!(st.emitted().len(), wlen);
        for &f in st.emitted() {
            let payload = slots[f].lock().unwrap().take().expect("frame emitted twice");
            sink(base + f, payload);
        }
        max_reorder_depth = max_reorder_depth.max(st.max_reorder_depth());
        base += wlen;
    }

    Ok(StreamStats {
        frames,
        backpressure_stalls: stalls.into_inner(),
        max_frames_in_flight: max_in_flight.into_inner(),
        max_reorder_depth,
        max_stage_occupancy: max_occupancy.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::kernel::NullProbe;
    use ezp_perf::{names, PerfProbe};
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::vec_of;
    use std::sync::Arc;

    fn square_pipe(width: usize) -> Pipeline<u64> {
        Pipeline::new()
            .farm_stage("square", width, |_, x: &mut u64| *x = *x * *x)
            .stage("offset", |_, x| *x += 3)
    }

    #[test]
    fn ordered_run_matches_seq_in_order() {
        let pipe = square_pipe(4);
        let mut expect = Vec::new();
        pipe.run_seq(100, |f| f as u64, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        let stats = run_pipeline(
            &pipe,
            100,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, expect);
        assert_eq!(stats.frames, 100);
        assert!(stats.max_frames_in_flight >= 1);
    }

    #[test]
    fn unordered_run_is_a_permutation_of_seq() {
        let pipe = square_pipe(4);
        let mut expect = Vec::new();
        pipe.run_seq(100, |f| f as u64, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        run_pipeline(
            &pipe,
            100,
            EmitMode::Unordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn serial_stateful_stage_sees_frames_in_order_in_parallel() {
        // the frame-differencing pattern: a width-1 stage holding the
        // previous frame. Graph edges order its invocations, so the
        // parallel run must match seq exactly.
        let build = || {
            let prev = Mutex::new(0i64);
            Pipeline::new()
                .farm_stage("gen", 4, |f, x: &mut i64| *x = (f * f) as i64)
                .stage("diff", move |_, x| {
                    let mut p = prev.lock().unwrap();
                    let cur = *x;
                    *x -= *p;
                    *p = cur;
                })
        };
        let mut expect = Vec::new();
        build().run_seq(200, |_| 0, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        run_pipeline(
            &build(),
            200,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |_| 0,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn multi_window_streams_work() {
        // more frames than WINDOW: exercises the window barrier and the
        // per-window reorder state reset
        let pipe = square_pipe(2);
        let frames = WINDOW * 2 + 17;
        let mut expect = Vec::new();
        pipe.run_seq(frames, |f| f as u64, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(2);
        let mut got = Vec::new();
        let stats = run_pipeline(
            &pipe,
            frames,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, expect);
        assert_eq!(stats.frames, frames);
    }

    #[test]
    fn single_stage_pipeline_streams() {
        let pipe = Pipeline::new().farm_stage("id", 2, |_, _: &mut u32| {});
        let mut pool = WorkerPool::new(2);
        let mut got = Vec::new();
        run_pipeline(
            &pipe,
            10,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u32,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, (0..10).map(|f| (f, f as u32)).collect::<Vec<_>>());
    }

    #[test]
    fn zero_frames_is_a_no_op() {
        let pipe = square_pipe(2);
        let mut pool = WorkerPool::new(2);
        let stats = run_pipeline(
            &pipe,
            0,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |_, _| panic!("sink called for empty stream"),
        )
        .unwrap();
        assert_eq!(stats, StreamStats::default());
    }

    #[test]
    fn counters_land_in_the_perf_probe() {
        // a deliberately tight pipeline: capacity 1 and a serial tail
        // stage force backpressure with several workers
        let pipe = Pipeline::new()
            .farm_stage("work", 4, |_, x: &mut u64| {
                *x = (0..200).fold(*x, |a, i| a.wrapping_mul(31).wrapping_add(i))
            })
            .stage("tail", |_, _| {})
            .capacity(1);
        let probe = PerfProbe::new(4);
        let mut pool = WorkerPool::new(4);
        let stats = run_pipeline(
            &pipe,
            64,
            EmitMode::Ordered,
            &mut pool,
            &probe,
            |f| f as u64,
            |_, _| {},
        )
        .unwrap();
        let snap = probe.snapshot();
        assert_eq!(snap.total(names::FRAMES_EMITTED), 64);
        assert_eq!(
            snap.total(names::FRAMES_IN_FLIGHT) as usize,
            stats.max_frames_in_flight
        );
        assert_eq!(
            snap.total(names::REORDER_BUFFER_DEPTH) as usize,
            stats.max_reorder_depth
        );
        assert_eq!(
            snap.total(names::STAGE_OCCUPANCY) as usize,
            stats.max_stage_occupancy
        );
        assert_eq!(snap.total(names::BACKPRESSURE_STALLS), stats.backpressure_stalls);
        assert!(stats.max_stage_occupancy >= 1);
    }

    /// A tight two-stage pipeline: farm head, `tail_width`-wide tail
    /// that reports each frame it finishes, one buffer slot between.
    fn capacity_one_pipe(
        tail_width: usize,
        finished: impl Fn(usize) + Send + Sync + 'static,
    ) -> Pipeline<u64> {
        Pipeline::new()
            .farm_stage("head", 4, |_, x: &mut u64| *x = x.wrapping_mul(31))
            .farm_stage("tail", tail_width, move |f, x: &mut u64| {
                // uneven tail cost, so completion order is not frame order
                *x = (0..(f % 5) * 200).fold(*x, |a, i| a.wrapping_add(i as u64));
                finished(f);
            })
            .capacity(1)
    }

    #[test]
    fn ordered_sink_sees_global_ids_in_order_across_windows_at_capacity_one() {
        // The ordered half of the sink contract at the tightest buffer:
        // nothing but graph edges can hold a frame back, so the run
        // terminates and every window drains in frame order.
        let frames = WINDOW + 7;
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        let stats = run_pipeline(
            &capacity_one_pipe(1, |_| {}),
            frames,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |f, _| got.push(f),
        )
        .unwrap();
        assert_eq!(got, (0..frames).collect::<Vec<_>>());
        assert_eq!(stats.frames, frames);
    }

    #[test]
    fn unordered_sink_sees_each_id_once_in_emitted_event_order() {
        // `StreamFrameEmitted` carries no frame id, so the event order
        // is reconstructed from threads: the tail stage logs which
        // thread finished which frame, the probe logs which thread
        // fired each event; replaying the events against the per-thread
        // logs yields the one frame order the sink may see.
        use std::thread::{current, ThreadId};
        struct EmitLog(Mutex<Vec<ThreadId>>);
        impl Probe for EmitLog {
            fn runtime_event(&self, _w: ezp_core::WorkerId, ev: RuntimeEvent) {
                if let RuntimeEvent::StreamFrameEmitted = ev {
                    self.0.lock().unwrap().push(current().id());
                }
            }
            fn wants_runtime_events(&self) -> bool {
                true
            }
        }
        let frames = WINDOW + 7;
        let finished: Arc<Mutex<Vec<(ThreadId, usize)>>> = Arc::default();
        let log = finished.clone();
        let pipe = capacity_one_pipe(4, move |f| log.lock().unwrap().push((current().id(), f)));
        let probe = EmitLog(Mutex::new(Vec::new()));
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        run_pipeline(
            &pipe,
            frames,
            EmitMode::Unordered,
            &mut pool,
            &probe,
            |f| f as u64,
            |f, _| got.push(f),
        )
        .unwrap();

        let mut finished = std::mem::take(&mut *finished.lock().unwrap());
        let expect: Vec<usize> = probe
            .0
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|thread| {
                let at = finished.iter().position(|&(t, _)| t == thread).unwrap();
                finished.remove(at).1
            })
            .collect();
        assert_eq!(got, expect, "sink order is not the emitted-event order");
        let mut ids = got;
        ids.sort_unstable();
        assert_eq!(ids, (0..frames).collect::<Vec<_>>(), "an id is missing or repeated");
    }

    #[test]
    fn panicking_stage_fails_the_run_and_drops_every_payload_once() {
        // a payload that counts its own drops, per frame
        struct Counted(usize, Arc<Vec<AtomicUsize>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1[self.0].fetch_add(1, Ordering::Relaxed);
            }
        }
        let frames = WINDOW + 7;
        let poisoned = WINDOW + 3; // past a window boundary
        for mode in [EmitMode::Ordered, EmitMode::Unordered] {
            let created: Vec<AtomicUsize> = (0..frames).map(|_| AtomicUsize::new(0)).collect();
            let drops: Arc<Vec<AtomicUsize>> =
                Arc::new((0..frames).map(|_| AtomicUsize::new(0)).collect());
            let pipe = Pipeline::new()
                .farm_stage("head", 2, |_, _: &mut Counted| {})
                .stage("tail", move |f, _| assert_ne!(f, poisoned, "student bug"));
            let mut pool = WorkerPool::new(2);
            let mut sunk = 0usize;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_pipeline(
                    &pipe,
                    frames,
                    mode,
                    &mut pool,
                    &NullProbe,
                    |f| {
                        created[f].fetch_add(1, Ordering::Relaxed);
                        Counted(f, drops.clone())
                    },
                    |_, _| sunk += 1,
                )
            }));
            assert!(result.is_err(), "{mode}: the stage panic must propagate");
            assert_eq!(sunk, WINDOW, "{mode}: only the clean first window reaches the sink");
            for f in 0..frames {
                assert_eq!(
                    drops[f].load(Ordering::Relaxed),
                    created[f].load(Ordering::Relaxed),
                    "{mode}: frame {f} leaked or dropped twice"
                );
            }
            assert_eq!(created[poisoned].load(Ordering::Relaxed), 1);
        }
    }

    ezp_proptest! {
        #![cases(8)]

        // Same permutation property at the pipeline level, with
        // arbitrary *per-stage* latencies: a farm head and a farm tail
        // whose spin budgets vary per frame.
        fn prop_pipeline_unordered_is_a_permutation_of_ordered(
            latencies in vec_of((0usize..200, 0usize..200), 1..24),
            width in 1usize..4,
        ) {
            let frames = latencies.len();
            let spin = |budget: usize, x: &mut u64| {
                for i in 0..budget {
                    *x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i as u64));
                }
            };
            let build = |lat: Vec<(usize, usize)>| {
                let tail = lat.clone();
                Pipeline::new()
                    .farm_stage("head", width, move |f, x: &mut u64| {
                        *x = f as u64;
                        spin(lat[f].0, x);
                    })
                    .farm_stage("tail", width, move |f, x: &mut u64| spin(tail[f].1, x))
            };
            let mut pool = WorkerPool::new(3);
            let mut ordered = Vec::new();
            run_pipeline(
                &build(latencies.clone()),
                frames,
                EmitMode::Ordered,
                &mut pool,
                &NullProbe,
                |_| 0,
                |f, x| ordered.push((f, x)),
            )
            .unwrap();
            let mut unordered = Vec::new();
            run_pipeline(
                &build(latencies.clone()),
                frames,
                EmitMode::Unordered,
                &mut pool,
                &NullProbe,
                |_| 0,
                |f, x| unordered.push((f, x)),
            )
            .unwrap();
            unordered.sort_unstable();
            assert_eq!(unordered, ordered, "width {width}: not a permutation");
        }
    }

    #[test]
    fn backpressure_stalls_appear_under_a_tight_buffer() {
        // width 1 + capacity 1 on the tail of a wide head: upstream
        // frames are data-ready long before the buffer drains, so some
        // stalls must be observed with real parallelism
        let pipe = Pipeline::new()
            .farm_stage("head", 4, |_, x: &mut u64| {
                *x = (0..500).fold(*x, |a, i| a.wrapping_mul(31).wrapping_add(i))
            })
            .stage("tail", |_, _| {})
            .capacity(1);
        let mut pool = WorkerPool::new(4);
        let stats = run_pipeline(
            &pipe,
            WINDOW,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |_, _| {},
        )
        .unwrap();
        assert!(
            stats.backpressure_stalls > 0,
            "tight buffer produced no stalls: {stats:?}"
        );
    }

    #[test]
    fn backpressure_stalls_carry_idle_durations() {
        // every StreamStall must come with a cause-tagged IdleNs so the
        // explain layer can say *how long* frames waited on buffer space
        struct StallWatch {
            stall_events: AtomicU64,
            idle_events: AtomicU64,
            backpressure_ns: AtomicU64,
        }
        impl Probe for StallWatch {
            fn runtime_event(&self, _w: ezp_core::WorkerId, ev: RuntimeEvent) {
                match ev {
                    RuntimeEvent::StreamStall => {
                        self.stall_events.fetch_add(1, Ordering::Relaxed);
                    }
                    RuntimeEvent::IdleNs {
                        ns,
                        cause: IdleCause::Backpressure,
                    } => {
                        self.idle_events.fetch_add(1, Ordering::Relaxed);
                        self.backpressure_ns.fetch_add(ns, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
            fn wants_runtime_events(&self) -> bool {
                true
            }
        }
        let probe = StallWatch {
            stall_events: AtomicU64::new(0),
            idle_events: AtomicU64::new(0),
            backpressure_ns: AtomicU64::new(0),
        };
        let pipe = Pipeline::new()
            .farm_stage("head", 4, |_, x: &mut u64| {
                *x = (0..500).fold(*x, |a, i| a.wrapping_mul(31).wrapping_add(i))
            })
            .stage("tail", |_, _| {})
            .capacity(1);
        let mut pool = WorkerPool::new(4);
        let stats = run_pipeline(
            &pipe,
            WINDOW,
            EmitMode::Ordered,
            &mut pool,
            &probe,
            |f| f as u64,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(
            probe.stall_events.load(Ordering::Relaxed),
            stats.backpressure_stalls
        );
        if stats.backpressure_stalls > 0 {
            assert!(probe.backpressure_ns.load(Ordering::Relaxed) > 0);
        }
    }
}
