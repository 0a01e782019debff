//! Span profiling: named time intervals in per-worker ring buffers.
//!
//! A [`Span`] brackets a phase (`Span::enter(&spans, worker, "compute")`)
//! and records `[start, end)` timestamps into the worker's *fixed
//! capacity* ring when dropped. The rings never allocate after
//! construction and each worker only touches its own (cache-padded)
//! ring, so the hot path is two clock reads plus one uncontended lock —
//! negligible next to any real phase. When a ring wraps, the oldest
//! spans are overwritten and counted as dropped rather than growing
//! without bound — profiling must not change the memory behaviour of
//! the profiled program.

use ezp_core::json::{Json, ToJson};
use ezp_core::time::now_ns;
use std::sync::Mutex;

/// Default ring capacity per worker.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One recorded span. Names are `&'static str` so recording never
/// allocates; phase names are compile-time strings by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name as passed to [`Span::enter`].
    pub name: &'static str,
    /// Worker whose ring holds the span.
    pub worker: usize,
    /// Start timestamp (ns since process origin).
    pub start_ns: u64,
    /// End timestamp.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("worker", self.worker.to_json()),
            ("start_ns", self.start_ns.to_json()),
            ("end_ns", self.end_ns.to_json()),
        ])
    }
}

struct Ring {
    slots: Vec<SpanRecord>,
    /// Next write position (wraps at capacity).
    next: usize,
    /// Total spans ever recorded (recorded - retained = dropped).
    recorded: u64,
}

/// Padded so two workers' rings never share a cache line.
#[repr(align(128))]
struct WorkerRing(Mutex<Ring>);

/// Per-worker span rings plus the capacity they were built with.
pub struct SpanSet {
    rings: Vec<WorkerRing>,
    capacity: usize,
}

impl SpanSet {
    /// Creates one ring of `capacity` spans per worker.
    pub fn new(workers: usize, capacity: usize) -> Self {
        assert!(workers > 0 && capacity > 0, "span set needs workers and capacity");
        SpanSet {
            rings: (0..workers)
                .map(|_| {
                    WorkerRing(Mutex::new(Ring {
                        slots: Vec::with_capacity(capacity),
                        next: 0,
                        recorded: 0,
                    }))
                })
                .collect(),
            capacity,
        }
    }

    /// Number of worker rings.
    pub fn workers(&self) -> usize {
        self.rings.len()
    }

    /// Ring capacity per worker.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Opens a span on `worker`; recorded when the guard drops.
    pub fn enter(&self, worker: usize, name: &'static str) -> Span<'_> {
        Span {
            set: self,
            worker,
            name,
            start_ns: now_ns(),
        }
    }

    /// Records a finished span directly (timestamps taken by the caller).
    pub fn record(&self, worker: usize, name: &'static str, start_ns: u64, end_ns: u64) {
        let ring = &self.rings[worker.min(self.rings.len() - 1)];
        // uncontended in practice: each worker writes only its own ring
        let mut r = ring.0.lock().unwrap_or_else(|e| e.into_inner());
        let rec = SpanRecord {
            name,
            worker,
            start_ns,
            end_ns,
        };
        if r.slots.len() < self.capacity {
            r.slots.push(rec);
        } else {
            let i = r.next;
            r.slots[i] = rec;
        }
        r.next = (r.next + 1) % self.capacity;
        r.recorded += 1;
    }

    /// Every retained span, all workers merged, sorted by start time.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for ring in &self.rings {
            let r = ring.0.lock().unwrap_or_else(|e| e.into_inner());
            out.extend_from_slice(&r.slots);
        }
        out.sort_by_key(|s| (s.start_ns, s.worker));
        out
    }

    /// Total spans recorded (including ones later overwritten).
    pub fn recorded(&self) -> u64 {
        self.rings
            .iter()
            .map(|ring| ring.0.lock().unwrap_or_else(|e| e.into_inner()).recorded)
            .sum()
    }

    /// Spans lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        let retained: u64 = self
            .rings
            .iter()
            .map(|ring| ring.0.lock().unwrap_or_else(|e| e.into_inner()).slots.len() as u64)
            .sum();
        self.recorded() - retained
    }
}

/// RAII guard for an open span; records into the set on drop.
pub struct Span<'a> {
    set: &'a SpanSet,
    worker: usize,
    name: &'static str,
    start_ns: u64,
}

impl<'a> Span<'a> {
    /// Opens a span — the `Span::enter("phase")` spelling of the span
    /// API (equivalent to [`SpanSet::enter`]).
    pub fn enter(set: &'a SpanSet, worker: usize, name: &'static str) -> Span<'a> {
        set.enter(worker, name)
    }

    /// Closes the span now (otherwise the drop does).
    pub fn end(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.set.record(self.worker, self.name, self.start_ns, now_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_on_drop() {
        let set = SpanSet::new(2, 8);
        {
            let _s = Span::enter(&set, 1, "phase");
            std::hint::black_box(());
        }
        let spans = set.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].worker, 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(set.recorded(), 1);
        assert_eq!(set.dropped(), 0);
    }

    #[test]
    fn explicit_end_closes_early() {
        let set = SpanSet::new(1, 8);
        let s = set.enter(0, "a");
        s.end();
        let t_after = now_ns();
        let spans = set.snapshot();
        assert!(spans[0].end_ns <= t_after);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let set = SpanSet::new(1, 4);
        for i in 0..10u64 {
            set.record(0, "s", i, i + 1);
        }
        let spans = set.snapshot();
        assert_eq!(spans.len(), 4, "capacity bounds retention");
        // the oldest records were overwritten: only 6..10 survive
        let starts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![6, 7, 8, 9]);
        assert_eq!(set.recorded(), 10);
        assert_eq!(set.dropped(), 6);
    }

    #[test]
    fn snapshot_merges_workers_in_start_order() {
        let set = SpanSet::new(3, 8);
        set.record(2, "c", 30, 40);
        set.record(0, "a", 10, 20);
        set.record(1, "b", 20, 25);
        let names: Vec<&str> = set.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn concurrent_workers_do_not_interfere() {
        let set = SpanSet::new(4, 1024);
        std::thread::scope(|s| {
            for w in 0..4 {
                let set = &set;
                s.spawn(move || {
                    for i in 0..100u64 {
                        set.record(w, "t", i, i + 1);
                    }
                });
            }
        });
        assert_eq!(set.snapshot().len(), 400);
        assert_eq!(set.dropped(), 0);
    }

    #[test]
    fn out_of_range_worker_folds_into_last_ring() {
        let set = SpanSet::new(2, 4);
        set.record(9, "x", 0, 1);
        assert_eq!(set.snapshot().len(), 1);
    }

    #[test]
    fn duration_saturates_on_clock_skew() {
        let r = SpanRecord {
            name: "x",
            worker: 0,
            start_ns: 10,
            end_ns: 5,
        };
        assert_eq!(r.duration_ns(), 0);
    }
}
