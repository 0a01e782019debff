//! Named runtime counters with cache-padded per-worker slots.
//!
//! A [`CounterSet`] is registered once (mutable phase), then shared
//! read-only among worker threads: every `(counter, worker)` pair owns
//! one [`AtomicU64`] padded to its own cache line, so concurrent
//! increments from different workers never contend and a relaxed
//! `fetch_add` is the whole hot path — the per-worker-slot idiom the
//! live monitor already uses for tile records.

use ezp_core::json::{FromJson, Json, ToJson};
use ezp_core::Result;
use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to a registered counter (index into the set).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// One per-worker slot, padded to a cache line (128 B covers the
/// adjacent-line prefetcher pairs on x86, like the monitor's slots).
#[repr(align(128))]
#[derive(Default)]
struct Slot(AtomicU64);

/// Updates a cell that has a single writer: a load and a store, not a
/// `lock`-prefixed RMW (which costs as much uncontended as contended).
#[inline]
pub(crate) fn owner_update(cell: &AtomicU64, f: impl FnOnce(u64) -> u64) {
    cell.store(f(cell.load(Ordering::Relaxed)), Ordering::Relaxed);
}

/// A registry of named counters, one padded slot per worker each.
pub struct CounterSet {
    workers: usize,
    names: Vec<String>,
    /// `slots[counter][worker]`.
    slots: Vec<Box<[Slot]>>,
}

impl CounterSet {
    /// Creates an empty set for `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "counter set needs at least one worker slot");
        CounterSet {
            workers,
            names: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of worker slots per counter.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no counter is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Registers `name` (idempotent: an existing name returns its id).
    /// Registration takes `&mut self` — do it before sharing the set
    /// with workers; increments are then lock-free.
    pub fn register(&mut self, name: &str) -> CounterId {
        if let Some(id) = self.id(name) {
            return id;
        }
        self.names.push(name.to_string());
        self.slots
            .push((0..self.workers).map(|_| Slot::default()).collect());
        CounterId(self.names.len() - 1)
    }

    /// Looks up a registered counter by name.
    pub fn id(&self, name: &str) -> Option<CounterId> {
        self.names.iter().position(|n| n == name).map(CounterId)
    }

    /// The name of `id`.
    pub fn name(&self, id: CounterId) -> &str {
        &self.names[id.0]
    }

    /// Adds `delta` to the counter on `worker`'s slot. Out-of-range
    /// workers (e.g. a sequential caller on a single-slot set) fold
    /// into the last slot rather than panicking mid-computation.
    #[inline]
    pub fn add(&self, id: CounterId, worker: usize, delta: u64) {
        let w = worker.min(self.workers - 1);
        self.slots[id.0][w].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// [`CounterSet::add`] for a slot that only `worker` itself writes
    /// (the tile-bracket counters): a plain load and store instead of a
    /// `lock`-prefixed RMW. Two threads writing one slot this way lose
    /// updates — use `add` wherever a slot can be shared.
    #[inline]
    pub fn add_owned(&self, id: CounterId, worker: usize, delta: u64) {
        let slot = &self.slots[id.0][worker.min(self.workers - 1)].0;
        owner_update(slot, |v| v.wrapping_add(delta));
    }

    /// Adds 1 to the counter on `worker`'s slot.
    #[inline]
    pub fn incr(&self, id: CounterId, worker: usize) {
        self.add(id, worker, 1);
    }

    /// Raises the counter on `worker`'s slot to at least `value` —
    /// the high-water-mark fold for gauge-shaped events (occupancy,
    /// in-flight depth), where `add` would count observations instead
    /// of tracking the peak.
    #[inline]
    pub fn max(&self, id: CounterId, worker: usize, value: u64) {
        let w = worker.min(self.workers - 1);
        self.slots[id.0][w].0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of `id` on `worker`'s slot.
    pub fn worker_value(&self, id: CounterId, worker: usize) -> u64 {
        self.slots[id.0][worker].0.load(Ordering::Relaxed)
    }

    /// Current value of `id` summed over all workers (saturating, so
    /// near-`u64::MAX` slots never panic the reporting path).
    pub fn total(&self, id: CounterId) -> u64 {
        self.slots[id.0]
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.0.load(Ordering::Relaxed)))
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            workers: self.workers,
            counters: self
                .names
                .iter()
                .enumerate()
                .map(|(i, name)| CounterValues {
                    name: name.clone(),
                    per_worker: (0..self.workers)
                        .map(|w| self.worker_value(CounterId(i), w))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// The values of one counter at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterValues {
    /// Counter name as registered.
    pub name: String,
    /// One value per worker slot.
    pub per_worker: Vec<u64>,
}

impl CounterValues {
    /// Sum over all workers (saturating).
    pub fn total(&self) -> u64 {
        self.per_worker.iter().fold(0u64, |acc, v| acc.saturating_add(*v))
    }
}

/// A point-in-time copy of a [`CounterSet`] — what the exporters
/// consume and what `--stats` serializes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Number of worker slots per counter.
    pub workers: usize,
    /// Counters in registration order.
    pub counters: Vec<CounterValues>,
}

impl CounterSnapshot {
    /// The values of counter `name`, if present.
    pub fn get(&self, name: &str) -> Option<&CounterValues> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Total of counter `name` (0 when absent).
    pub fn total(&self, name: &str) -> u64 {
        self.get(name).map(CounterValues::total).unwrap_or(0)
    }

    /// Appends a counter computed elsewhere (MPI rank stats, cache
    /// totals) so one snapshot can carry the whole run's numbers.
    pub fn push(&mut self, name: &str, per_worker: Vec<u64>) {
        self.counters.push(CounterValues {
            name: name.to_string(),
            per_worker,
        });
    }
}

impl ToJson for CounterValues {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("total", self.total().to_json()),
            ("per_worker", self.per_worker.to_json()),
        ])
    }
}

impl FromJson for CounterValues {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(CounterValues {
            name: v.field("name")?,
            per_worker: v.field("per_worker")?,
        })
    }
}

impl ToJson for CounterSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workers", self.workers.to_json()),
            ("counters", self.counters.to_json()),
        ])
    }
}

impl FromJson for CounterSnapshot {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(CounterSnapshot {
            workers: v.field("workers")?,
            counters: v.field("counters")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_lookup_works() {
        let mut set = CounterSet::new(4);
        let a = set.register("tasks");
        let b = set.register("steals");
        assert_ne!(a, b);
        assert_eq!(set.register("tasks"), a);
        assert_eq!(set.id("steals"), Some(b));
        assert_eq!(set.id("nope"), None);
        assert_eq!(set.name(a), "tasks");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn per_worker_accumulation_and_totals() {
        let mut set = CounterSet::new(3);
        let c = set.register("c");
        set.incr(c, 0);
        set.add(c, 1, 10);
        set.add(c, 2, 100);
        assert_eq!(set.worker_value(c, 0), 1);
        assert_eq!(set.worker_value(c, 1), 10);
        assert_eq!(set.worker_value(c, 2), 100);
        assert_eq!(set.total(c), 111);
    }

    #[test]
    fn out_of_range_worker_folds_into_last_slot() {
        let mut set = CounterSet::new(2);
        let c = set.register("c");
        set.incr(c, 7);
        assert_eq!(set.worker_value(c, 1), 1);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        // the counter layer's core invariant: relaxed per-worker slots
        // lose nothing under concurrency
        let mut set = CounterSet::new(4);
        let c = set.register("tasks");
        let set = &set;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        set.incr(c, w);
                    }
                });
            }
        });
        assert_eq!(set.total(c), 4 * PER_THREAD);
        for w in 0..4 {
            assert_eq!(set.worker_value(c, w), PER_THREAD);
        }
    }

    #[test]
    fn snapshot_copies_values() {
        let mut set = CounterSet::new(2);
        let c = set.register("x");
        set.add(c, 0, 5);
        let snap = set.snapshot();
        set.add(c, 0, 5); // later increments must not alter the snapshot
        assert_eq!(snap.total("x"), 5);
        assert_eq!(snap.get("x").unwrap().per_worker, vec![5, 0]);
        assert_eq!(snap.total("missing"), 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut set = CounterSet::new(2);
        let a = set.register("tasks");
        let b = set.register("idle_ns");
        set.add(a, 0, 3);
        set.add(b, 1, u64::MAX); // exact u64 must survive
        let snap = set.snapshot();
        let back = CounterSnapshot::from_json(&Json::parse(&snap.to_json().dump()).unwrap())
            .unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn slots_are_cache_line_padded() {
        assert!(std::mem::align_of::<Slot>() >= 128);
        assert!(std::mem::size_of::<Slot>() >= 128);
    }
}
