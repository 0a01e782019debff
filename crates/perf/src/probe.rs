//! [`PerfProbe`] — the [`Probe`] implementation that turns scheduler
//! activity into counters and spans.
//!
//! The scheduling layer already reports to a [`Probe`] (tile brackets
//! or stamps for the monitor, [`RuntimeEvent`]s for whoever listens).
//! `PerfProbe` is the listener: every tile, bracketed or stamped, counts
//! as one task executed on that worker, every runtime event lands in the
//! matching named counter, and iteration brackets become `"iteration"`
//! spans. Spans lost to a full ring are counted too (`spans_dropped`),
//! so a report's span totals never undercount silently.
//! It is instance-based (not a process-global) so concurrent runs in
//! one process — the CLI test suite does this — never share numbers.

use crate::counters::{CounterId, CounterSet, CounterSnapshot};
use crate::span::{SpanRecord, SpanSet, DEFAULT_CAPACITY};
use ezp_core::kernel::{IdleCause, Probe, RuntimeEvent, TileStamp};
use ezp_core::time::now_ns;
use ezp_core::WorkerId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Canonical counter names, shared between the probe and everything
/// that reads snapshots (exporters, `ci/verify.sh`, docs).
pub mod names {
    /// Tiles computed (every `start_tile`/`end_tile` bracket and every
    /// stamp of a `tiles_done` batch is a task).
    pub const TASKS_EXECUTED: &str = "tasks_executed";
    /// Chunks handed out by dispensers.
    pub const CHUNKS_DISPENSED: &str = "chunks_dispensed";
    /// Steal attempts on the `stealing` dispenser.
    pub const STEALS_ATTEMPTED: &str = "steals_attempted";
    /// Steal attempts that obtained work.
    pub const STEALS_SUCCEEDED: &str = "steals_succeeded";
    /// Nanoseconds spent waiting for work (dispenser + task-graph waits).
    pub const IDLE_NS: &str = "idle_ns";
    /// Per-cause idle slices, indexed like
    /// [`IdleCause::ALL`](ezp_core::kernel::IdleCause::ALL). Every
    /// cause-tagged idle event adds to both its slice and [`IDLE_NS`],
    /// so the five slices always sum *exactly* to the total — the
    /// invariant `easyview explain`'s idle breakdown relies on.
    pub const IDLE_NS_BY_CAUSE: [&str; 5] = [
        "idle_ns{cause=\"dep_stall\"}",
        "idle_ns{cause=\"steal\"}",
        "idle_ns{cause=\"barrier\"}",
        "idle_ns{cause=\"pool_park\"}",
        "idle_ns{cause=\"backpressure\"}",
    ];

    /// The `idle_ns{cause=...}` counter name for `cause`.
    pub fn idle_cause_counter(cause: super::IdleCause) -> &'static str {
        IDLE_NS_BY_CAUSE[cause.index()]
    }
    /// Task-graph waits on an empty ready queue.
    pub const TASK_WAITS: &str = "task_waits";
    /// Successful steals from another worker's task-graph ready deque.
    pub const DEQUE_STEALS: &str = "deque_steals";
    /// Races flagged by the `ezp-check` shadow-write detector (always
    /// zero outside checked runs).
    pub const SHADOW_RACES: &str = "shadow_races";
    /// Backpressure stalls in a streaming pipeline: frames that were
    /// data-ready but waited on a full inter-stage buffer or a stage's
    /// width limit.
    pub const BACKPRESSURE_STALLS: &str = "backpressure_stalls";
    /// Frames handed to the output sink of a streaming run.
    pub const FRAMES_EMITTED: &str = "frames_emitted";
    /// High-water mark of frames simultaneously in flight inside a
    /// streaming pipeline (gauge: sent once per run, folded with `max`
    /// on worker slot 0, so the total *is* the peak).
    pub const FRAMES_IN_FLIGHT: &str = "frames_in_flight";
    /// High-water mark of the ordered-emission reorder buffer (gauge,
    /// worker slot 0).
    pub const REORDER_BUFFER_DEPTH: &str = "reorder_buffer_depth";
    /// High-water mark of any single stage's occupancy (gauge, worker
    /// slot 0).
    pub const STAGE_OCCUPANCY: &str = "stage_occupancy";
    /// Spans a worker's ring overwrote: the span totals of a report
    /// leave these out.
    pub const SPANS_DROPPED: &str = "spans_dropped";
    /// Jobs accepted into a tenant's admission queue by `ezp-serve`.
    /// Serve counters use the worker dimension as the *tenant slot*:
    /// `worker="2"` is tenant slot 2, not a pool thread.
    pub const JOBS_ADMITTED: &str = "jobs_admitted";
    /// Jobs refused with retry-after because the tenant's admission
    /// queue (or the tenant table) was full.
    pub const JOBS_REJECTED: &str = "jobs_rejected";
    /// Jobs that ran to completion and streamed their report back.
    pub const JOBS_COMPLETED: &str = "jobs_completed";
    /// Admitted jobs dropped before or during execution because the
    /// submitting client disconnected.
    pub const JOBS_CANCELLED: &str = "jobs_cancelled";
    /// Admitted jobs whose kernel run returned an error.
    pub const JOBS_FAILED: &str = "jobs_failed";
    /// High-water mark of a tenant's admission-queue depth (gauge,
    /// folded with `max` per tenant slot).
    pub const TENANT_QUEUE_DEPTH: &str = "tenant_queue_depth";
    /// Nanoseconds a tenant's completed jobs waited for a runner and a
    /// pool slot — the sum of their `queue` and `lease` spans, the
    /// serve-side idle attribution ("who waits and why").
    pub const TENANT_IDLE_NS: &str = "tenant_idle_ns";
}

/// Span names for the per-cause idle intervals, indexed like
/// [`IdleCause::ALL`]. The `idle:` prefix is what the Chrome exporter
/// keys its `"idle"` category on.
const IDLE_SPAN_NAMES: [&str; 5] = [
    "idle:dep_stall",
    "idle:steal",
    "idle:barrier",
    "idle:pool_park",
    "idle:backpressure",
];

/// Probe that accumulates runtime counters and iteration spans.
pub struct PerfProbe {
    counters: CounterSet,
    spans: SpanSet,
    tasks: CounterId,
    chunks: CounterId,
    steals_att: CounterId,
    steals_ok: CounterId,
    idle: CounterId,
    idle_by_cause: [CounterId; 5],
    task_waits: CounterId,
    deque_steals: CounterId,
    shadow_races: CounterId,
    backpressure: CounterId,
    frames_emitted: CounterId,
    frames_in_flight: CounterId,
    reorder_depth: CounterId,
    stage_occupancy: CounterId,
    /// Start timestamp of the iteration currently in flight.
    /// counter-only: the timestamp is the entire payload and only the
    /// iteration-bracketing thread writes it.
    iter_start: AtomicU64,
}

impl PerfProbe {
    /// A probe for `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        let mut counters = CounterSet::new(workers);
        let mut id = |name| counters.register(name);
        PerfProbe {
            tasks: id(names::TASKS_EXECUTED),
            chunks: id(names::CHUNKS_DISPENSED),
            steals_att: id(names::STEALS_ATTEMPTED),
            steals_ok: id(names::STEALS_SUCCEEDED),
            idle: id(names::IDLE_NS),
            idle_by_cause: names::IDLE_NS_BY_CAUSE.map(&mut id),
            task_waits: id(names::TASK_WAITS),
            deque_steals: id(names::DEQUE_STEALS),
            shadow_races: id(names::SHADOW_RACES),
            backpressure: id(names::BACKPRESSURE_STALLS),
            frames_emitted: id(names::FRAMES_EMITTED),
            frames_in_flight: id(names::FRAMES_IN_FLIGHT),
            reorder_depth: id(names::REORDER_BUFFER_DEPTH),
            stage_occupancy: id(names::STAGE_OCCUPANCY),
            counters,
            spans: SpanSet::new(workers, DEFAULT_CAPACITY),
            iter_start: AtomicU64::new(0),
        }
    }

    /// Point-in-time copy of every counter, `spans_dropped` last.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut snap = self.counters.snapshot();
        snap.push(names::SPANS_DROPPED, self.spans.dropped());
        snap
    }

    /// Retained spans, merged and sorted by start time.
    pub fn span_snapshot(&self) -> Vec<SpanRecord> {
        self.spans.snapshot()
    }
}

impl Probe for PerfProbe {
    fn iteration_start(&self, _iteration: u32) {
        self.iter_start.store(now_ns(), Ordering::Relaxed);
    }

    fn iteration_end(&self, _iteration: u32) {
        let start = self.iter_start.load(Ordering::Relaxed);
        self.spans.record(0, "iteration", start, now_ns());
    }

    // A worker's tile brackets run on that worker alone, so its task
    // counter slot is owner-written: a plain load and store, no RMW.
    fn end_tile(&self, _: usize, _: usize, _: usize, _: usize, worker: WorkerId) {
        self.counters.add_owned(self.tasks, worker, 1);
    }

    // Counting needs no clock, so the probe does not ask for stamps; it
    // takes them when it shares a stack with one that does.
    fn tiles_done(&self, worker: WorkerId, stamps: &[TileStamp]) {
        self.counters
            .add_owned(self.tasks, worker, stamps.len() as u64);
    }

    fn runtime_event(&self, worker: WorkerId, event: RuntimeEvent) {
        match event {
            RuntimeEvent::ChunkDispensed { .. } => self.counters.incr(self.chunks, worker),
            RuntimeEvent::Steals {
                attempted,
                succeeded,
            } => {
                self.counters.add(self.steals_att, worker, attempted);
                self.counters.add(self.steals_ok, worker, succeeded);
            }
            RuntimeEvent::IdleNs { ns, cause } => {
                // both the total and the cause slice, so the per-cause
                // breakdown always sums exactly to `idle_ns`
                self.counters.add(self.idle, worker, ns);
                self.counters
                    .add(self.idle_by_cause[cause.index()], worker, ns);
                if ns > 0 {
                    let end = now_ns();
                    self.spans.record(
                        worker,
                        IDLE_SPAN_NAMES[cause.index()],
                        end.saturating_sub(ns),
                        end,
                    );
                }
            }
            RuntimeEvent::TaskWait => self.counters.incr(self.task_waits, worker),
            RuntimeEvent::DequeSteal => self.counters.incr(self.deque_steals, worker),
            RuntimeEvent::ShadowRace { .. } => self.counters.incr(self.shadow_races, worker),
            RuntimeEvent::StreamStall => self.counters.incr(self.backpressure, worker),
            RuntimeEvent::StreamFrameEmitted => self.counters.incr(self.frames_emitted, worker),
            // gauges: fold with max so the counter reports the peak, and
            // pin to worker slot 0 so the total equals the high-water
            // mark instead of summing per-worker peaks
            RuntimeEvent::StreamInFlight { frames } => {
                self.counters.max(self.frames_in_flight, 0, frames as u64)
            }
            RuntimeEvent::StreamReorderDepth { depth } => {
                self.counters.max(self.reorder_depth, 0, depth as u64)
            }
            RuntimeEvent::StreamStageOccupancy { depth } => {
                self.counters.max(self.stage_occupancy, 0, depth as u64)
            }
        }
    }

    fn wants_runtime_events(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_count_as_tasks_per_worker() {
        let probe = PerfProbe::new(3);
        probe.start_tile(1);
        probe.end_tile(0, 0, 8, 8, 1);
        probe.end_tile(8, 0, 8, 8, 2);
        // a stamped batch counts one task per stamp
        assert!(!probe.wants_tile_stamps());
        probe.tiles_done(2, &[TileStamp::default(); 5]);
        let snap = probe.snapshot();
        assert_eq!(snap.total(names::TASKS_EXECUTED), 7);
        assert_eq!(
            snap.get(names::TASKS_EXECUTED).unwrap().per_worker,
            vec![0, 1, 6]
        );
    }

    #[test]
    fn runtime_events_land_in_named_counters() {
        let probe = PerfProbe::new(2);
        probe.runtime_event(0, RuntimeEvent::ChunkDispensed { len: 16 });
        probe.runtime_event(0, RuntimeEvent::ChunkDispensed { len: 8 });
        probe.runtime_event(
            1,
            RuntimeEvent::Steals {
                attempted: 3,
                succeeded: 1,
            },
        );
        probe.runtime_event(
            1,
            RuntimeEvent::IdleNs {
                ns: 500,
                cause: IdleCause::Steal,
            },
        );
        probe.runtime_event(1, RuntimeEvent::TaskWait);
        probe.runtime_event(0, RuntimeEvent::DequeSteal);
        probe.runtime_event(0, RuntimeEvent::StreamStall);
        probe.runtime_event(1, RuntimeEvent::StreamFrameEmitted);
        probe.runtime_event(1, RuntimeEvent::StreamFrameEmitted);
        // gauges fold with max: only the peak survives
        probe.runtime_event(0, RuntimeEvent::StreamInFlight { frames: 3 });
        probe.runtime_event(1, RuntimeEvent::StreamInFlight { frames: 7 });
        probe.runtime_event(0, RuntimeEvent::StreamInFlight { frames: 2 });
        probe.runtime_event(0, RuntimeEvent::StreamReorderDepth { depth: 4 });
        probe.runtime_event(0, RuntimeEvent::StreamReorderDepth { depth: 1 });
        probe.runtime_event(1, RuntimeEvent::StreamStageOccupancy { depth: 2 });
        let snap = probe.snapshot();
        assert_eq!(snap.total(names::BACKPRESSURE_STALLS), 1);
        assert_eq!(snap.total(names::FRAMES_EMITTED), 2);
        assert_eq!(snap.total(names::FRAMES_IN_FLIGHT), 7);
        assert_eq!(snap.total(names::REORDER_BUFFER_DEPTH), 4);
        assert_eq!(snap.total(names::STAGE_OCCUPANCY), 2);
        assert_eq!(snap.total(names::CHUNKS_DISPENSED), 2);
        assert_eq!(snap.total(names::STEALS_ATTEMPTED), 3);
        assert_eq!(snap.total(names::STEALS_SUCCEEDED), 1);
        assert_eq!(snap.total(names::IDLE_NS), 500);
        assert_eq!(snap.total(names::idle_cause_counter(IdleCause::Steal)), 500);
        assert_eq!(snap.total(names::TASK_WAITS), 1);
        assert_eq!(snap.total(names::DEQUE_STEALS), 1);
        // every registered counter is in the snapshot, moved or not
        assert_eq!(snap.counters.len(), 19);
        assert_eq!(
            snap.get(names::SPANS_DROPPED).unwrap().per_worker,
            vec![0, 0]
        );
    }

    #[test]
    fn iterations_become_spans() {
        let probe = PerfProbe::new(1);
        probe.iteration_start(0);
        probe.iteration_end(0);
        probe.iteration_start(1);
        probe.iteration_end(1);
        let spans = probe.span_snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "iteration"));
        assert!(spans[0].start_ns <= spans[1].start_ns);
    }

    #[test]
    fn probe_wants_runtime_events() {
        let probe = PerfProbe::new(1);
        assert!(probe.wants_runtime_events());
    }

    #[test]
    fn idle_causes_sum_exactly_to_the_total() {
        let probe = PerfProbe::new(2);
        for (i, cause) in IdleCause::ALL.into_iter().enumerate() {
            probe.runtime_event(
                i % 2,
                RuntimeEvent::IdleNs {
                    ns: 100 * (i as u64 + 1),
                    cause,
                },
            );
        }
        let snap = probe.snapshot();
        let by_cause: u64 = names::IDLE_NS_BY_CAUSE.iter().map(|n| snap.total(n)).sum();
        assert_eq!(by_cause, snap.total(names::IDLE_NS));
        assert_eq!(snap.total(names::IDLE_NS), 100 + 200 + 300 + 400 + 500);
        // and each cause produced a span carrying its label
        let spans = probe.span_snapshot();
        for cause in IdleCause::ALL {
            assert!(
                spans
                    .iter()
                    .any(|s| s.name == format!("idle:{}", cause.label())),
                "no span for {:?}",
                cause
            );
        }
    }
}
