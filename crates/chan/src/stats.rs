//! Channel activity counters, shared by both endpoints of a channel.
//!
//! Every channel — ring-backed or the `std::sync::mpsc` baseline —
//! carries one [`ChanCounters`] block; [`ChanStats`] is the plain
//! snapshot handed to callers. Stall counts tally *episodes* (one per
//! time an endpoint found the channel full/empty and had to wait), not
//! retries inside a wait.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters of one channel. All updates are `Relaxed` and every
/// field is counter-only: these are statistics — no other memory is
/// published through them.
#[derive(Debug, Default)]
pub(crate) struct ChanCounters {
    pub(crate) sends: AtomicU64,
    pub(crate) recvs: AtomicU64,
    pub(crate) full_stalls: AtomicU64,
    pub(crate) empty_stalls: AtomicU64,
    pub(crate) stall_ns: AtomicU64,
}

impl ChanCounters {
    pub(crate) fn bump(counter: &AtomicU64) {
        // ORDERING: Relaxed — pure statistic, never synchronizes data.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_stall_ns(&self, ns: u64) {
        // ORDERING: Relaxed — pure statistic, never synchronizes data.
        self.stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ChanStats {
        ChanStats {
            sends: self.sends.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            full_stalls: self.full_stalls.load(Ordering::Relaxed),
            empty_stalls: self.empty_stalls.load(Ordering::Relaxed),
            stall_ns: self.stall_ns.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a channel's activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChanStats {
    /// Items successfully sent.
    pub sends: u64,
    /// Items successfully received.
    pub recvs: u64,
    /// Times a sender found the channel full and had to wait (episodes,
    /// not retries).
    pub full_stalls: u64,
    /// Times a receiver found the channel empty and had to wait
    /// (episodes, not retries).
    pub empty_stalls: u64,
    /// Wall time spent inside stall episodes, in nanoseconds.
    pub stall_ns: u64,
}
