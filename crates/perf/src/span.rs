//! Span profiling: named time intervals in per-worker ring buffers.
//!
//! [`SpanSet::record`] stores a phase's `[start, end)` timestamps, taken
//! by the caller, into the worker's *fixed capacity* ring. The rings
//! never allocate after construction and each worker only touches its
//! own (cache-padded) ring, so recording is one uncontended lock —
//! negligible next to any real phase. When a ring wraps, the oldest
//! spans are overwritten and counted as dropped rather than growing
//! without bound — profiling must not change the memory behaviour of
//! the profiled program.

use std::sync::Mutex;

/// Default ring capacity per worker.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One recorded span. Names are `&'static str` so recording never
/// allocates; phase names are compile-time strings by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name as passed to [`SpanSet::record`].
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

struct Ring {
    slots: Vec<SpanRecord>,
    /// Next write position (wraps at capacity).
    next: usize,
    /// Spans overwritten by later ones.
    dropped: u64,
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
        assert!(
            workers > 0 && capacity > 0,
            "span set needs workers and capacity"
        );
        SpanSet {
            rings: (0..workers)
                .map(|_| {
                    WorkerRing(Mutex::new(Ring {
                        slots: Vec::with_capacity(capacity),
                        next: 0,
                        dropped: 0,
                    }))
                })
                .collect(),
            capacity,
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
            r.dropped += 1;
        }
        r.next = (r.next + 1) % self.capacity;
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

    /// Spans lost to ring wrap-around, per worker.
    pub fn dropped(&self) -> Vec<u64> {
        self.rings
            .iter()
            .map(|ring| ring.0.lock().unwrap_or_else(|e| e.into_inner()).dropped)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lands_on_its_worker() {
        let set = SpanSet::new(2, 8);
        set.record(1, "phase", 10, 30);
        let spans = set.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].worker, 1);
        assert_eq!(spans[0].duration_ns(), 20);
        assert_eq!(set.dropped(), vec![0, 0]);
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
        assert_eq!(set.dropped(), vec![6]);
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
        assert_eq!(set.dropped(), vec![0; 4]);
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
