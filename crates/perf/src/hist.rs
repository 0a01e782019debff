//! Constant-memory log-bucketed latency histograms.
//!
//! A [`LogHistogram`] buckets nanosecond durations by magnitude: value
//! `v` lands in bucket `64 - v.leading_zeros()` (zero in bucket 0), so
//! bucket `b >= 1` covers `[2^(b-1), 2^b)`. Recording is a
//! `leading_zeros` and a handful of relaxed RMWs — but those RMWs hit
//! shared cache lines, so a histogram recorded by *every worker on
//! every tile* must not be shared: [`ShardedHistogram`] gives each
//! worker its own cache-line-aligned shard — written with plain loads
//! and stores, since the shard has one writer — and merges at read
//! time, the same write-local/read-merge split `CounterSet` uses. That is
//! what keeps histogram recording inside the tile-bracket hot path's
//! ≤5% budget (`perf.overhead_ratio` in `benchmark/`).
//!
//! Quantiles come out of the bucket counts: the reported `pXX` is the
//! geometric midpoint of the bucket holding the rank, clamped to the
//! exact observed `[min, max]`. The relative error is bounded by the
//! bucket width (a factor of 2), which is plenty to tell "all tiles
//! alike" from "a heavy tail" — the distinction the advisor rules and
//! `docs/profiling.md` trade on.

use crate::counters::owner_update;
use ezp_core::json::{Json, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: one per power of two, plus bucket 0 for zero.
pub const BUCKETS: usize = 65;

/// Index of the bucket covering `v`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lock-free log-bucketed histogram of `u64` durations (nanoseconds).
///
/// The 128-byte alignment keeps adjacent histograms (the shards of a
/// [`ShardedHistogram`]) from straddling a cache line: without it,
/// shard `k`'s tail counters and shard `k+1`'s head buckets would
/// false-share, putting the cross-core traffic sharding exists to
/// remove right back on the record path.
#[repr(align(128))]
pub struct LogHistogram {
    name: &'static str,
    // Every cell below is counter-only: the tallies are the entire
    // payload, snapshots tolerate mid-record skew, and no other
    // memory is published through them — hence `Relaxed` throughout.
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    /// An empty histogram named `name` (the name lands in summaries and
    /// `--stats` output: `"task_ns"`, `"frame_ns"`).
    pub fn new(name: &'static str) -> Self {
        LogHistogram {
            name,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation.
    ///
    /// ORDERING: counter-only. Nothing synchronizes on histogram state;
    /// readers only need eventual totals, so every access is Relaxed.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// [`LogHistogram::record`] for a histogram with one writer at a
    /// time (a worker's shard of a [`ShardedHistogram`]): plain loads
    /// and stores, none of `record`'s five RMWs and two CAS loops.
    ///
    /// ORDERING: counter-only, as in `record`.
    fn record_owned(&self, v: u64) {
        owner_update(&self.buckets[bucket_of(v)], |n| n.wrapping_add(1));
        owner_update(&self.count, |n| n.wrapping_add(1));
        owner_update(&self.sum, |sum| sum.wrapping_add(v));
        owner_update(&self.min, |min| min.min(v));
        owner_update(&self.max, |max| max.max(v));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating in practice: ns sums fit).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` (0.0 ..= 1.0): the geometric midpoint
    /// of the bucket holding that rank, clamped to the observed
    /// `[min, max]`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank of the q-th observation, 1-based, at least 1
        let rank = ((q * count as f64).ceil() as u64).max(1);
        // the extreme ranks are tracked exactly, not at bucket
        // resolution
        if rank >= count {
            return self.max.load(Ordering::Relaxed);
        }
        if rank == 1 {
            return self.min.load(Ordering::Relaxed);
        }
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let mid = if b == 0 {
                    0
                } else {
                    // geometric middle of [2^(b-1), 2^b)
                    let lo = 1u64 << (b - 1);
                    lo.saturating_add(lo / 2)
                };
                let min = self.min.load(Ordering::Relaxed);
                let max = self.max.load(Ordering::Relaxed);
                return mid.clamp(min, max);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Point-in-time percentile summary.
    pub fn summary(&self) -> HistSummary {
        let count = self.count();
        HistSummary {
            name: self.name.to_string(),
            count,
            min_ns: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max_ns: self.max.load(Ordering::Relaxed),
            mean_ns: if count == 0 { 0 } else { self.sum() / count },
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
        }
    }
}

/// A [`LogHistogram`] per worker, so the record path only ever touches
/// the calling worker's own cache lines.
///
/// `record` is uncontended by construction (each worker writes its own
/// 128-aligned shard); reads fold the shards into a merged
/// [`LogHistogram`] on demand. Readers racing recorders can observe a
/// shard mid-update — fine for the eventual totals `--stats` wants,
/// the same contract `CounterSnapshot` has.
pub struct ShardedHistogram {
    shards: Vec<LogHistogram>,
}

impl ShardedHistogram {
    /// One shard per worker (at least one), all named `name`.
    pub fn new(name: &'static str, workers: usize) -> Self {
        ShardedHistogram {
            shards: (0..workers.max(1)).map(|_| LogHistogram::new(name)).collect(),
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.shards[0].name
    }

    /// Records one observation into `worker`'s shard, which only that
    /// worker may be writing (two writers on one shard lose updates).
    /// Out-of-range workers clamp to the last shard rather than panic
    /// (same policy as the probe's tile-start slots).
    pub fn record(&self, worker: usize, v: u64) {
        self.shards[worker.min(self.shards.len() - 1)].record_owned(v);
    }

    /// Observations recorded so far, across all shards.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(LogHistogram::count).sum()
    }

    /// Folds every shard into one point-in-time [`LogHistogram`].
    pub fn merged(&self) -> LogHistogram {
        let m = LogHistogram::new(self.name());
        for s in &self.shards {
            for (b, bucket) in s.buckets.iter().enumerate() {
                let v = bucket.load(Ordering::Relaxed);
                if v != 0 {
                    m.buckets[b].fetch_add(v, Ordering::Relaxed);
                }
            }
            m.count.fetch_add(s.count.load(Ordering::Relaxed), Ordering::Relaxed);
            m.sum.fetch_add(s.sum.load(Ordering::Relaxed), Ordering::Relaxed);
            m.min.fetch_min(s.min.load(Ordering::Relaxed), Ordering::Relaxed);
            m.max.fetch_max(s.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        m
    }

    /// Point-in-time percentile summary over the merged shards.
    pub fn summary(&self) -> HistSummary {
        self.merged().summary()
    }
}

/// Percentile summary of one [`LogHistogram`] — what `--stats` and the
/// UnifiedReport serialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSummary {
    /// Which histogram ("task_ns", "frame_ns").
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
    /// Arithmetic mean (integer ns).
    pub mean_ns: u64,
    /// Median (bucket-resolution, see module docs).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

impl ToJson for HistSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("count", self.count.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("max_ns", self.max_ns.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
            ("p50_ns", self.p50_ns.to_json()),
            ("p95_ns", self.p95_ns.to_json()),
            ("p99_ns", self.p99_ns.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new("t");
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_truth() {
        let h = LogHistogram::new("t");
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // true p50 = 500 lives in [256, 1024); true p99 = 990 likewise
        assert!((256..1024).contains(&p50), "p50 = {p50}");
        assert!((512..=1000).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        // extremes clamp to observed values
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn uniform_values_collapse_every_percentile() {
        let h = LogHistogram::new("t");
        for _ in 0..100 {
            h.record(4096);
        }
        let s = h.summary();
        assert_eq!(s.p50_ns, 4096);
        assert_eq!(s.p95_ns, 4096);
        assert_eq!(s.p99_ns, 4096);
        assert_eq!(s.mean_ns, 4096);
    }

    #[test]
    fn summary_serializes_percentile_keys() {
        let h = LogHistogram::new("task_ns");
        h.record(10);
        h.record(1000);
        let json = h.summary().to_json().dump();
        for key in ["\"p50_ns\"", "\"p95_ns\"", "\"p99_ns\"", "\"count\""] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn sharded_merge_matches_a_single_histogram() {
        let sharded = ShardedHistogram::new("t", 4);
        let single = LogHistogram::new("t");
        for v in 1..=1000u64 {
            sharded.record((v % 4) as usize, v);
            single.record(v);
        }
        assert_eq!(sharded.count(), 1000);
        assert_eq!(sharded.summary(), single.summary());
        // out-of-range workers clamp to the last shard, never panic
        sharded.record(999, 42);
        assert_eq!(sharded.count(), 1001);
    }

    #[test]
    fn sharded_recording_is_thread_safe() {
        let h = ShardedHistogram::new("t", 4);
        std::thread::scope(|s| {
            for w in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for v in 0..1000u64 {
                        h.record(w, v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.merged().quantile(1.0), 999);
    }

    #[test]
    fn recording_is_thread_safe() {
        let h = LogHistogram::new("t");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.quantile(1.0), 999);
    }
}
