//! Wait-policy plumbing: how an endpoint waits for "not full" / "not
//! empty", parameterized by [`WaitPolicy`].
//!
//! * `Yield` — `yield_now` every iteration: cheap on oversubscribed
//!   hosts, latency-paying on idle ones.
//! * `Park` — spin briefly, then block on an [`ParkLot`]
//!   (`ezp_core::park`), the workspace's one audited
//!   lost-wakeup-free condvar recipe.
//!
//! ## Why the Park handshake is lost-wakeup-free here
//!
//! `ParkLot`'s contract: wait conditions read their state `SeqCst`;
//! wakers make their state change SeqCst-visible *before* calling
//! `notify`. The ring's hot-path publishes with `Release` (see
//! `ring.rs`), so [`WaitHub::wake_not_empty`]/[`WaitHub::wake_not_full`]
//! issue a `fence(SeqCst)` after that publish and before `notify`. In
//! the C++11 model an SC fence sequenced after a store forces any later
//! SC load (the waiter's re-check of `has_item_sc`/`has_room_sc`, or
//! its `sleepers` registration inside the lot's mutex) to observe that
//! store, which is exactly the visibility `ParkLot` requires. The
//! fences run only under `WaitPolicy::Park` and only on the wake edge —
//! yield waiters re-poll, where plain eventual visibility suffices.

use ezp_core::time::now_ns;
use ezp_core::WaitPolicy;
use ezp_core::park::ParkLot;
use std::sync::atomic::{fence, Ordering};

/// The two parking lots of one channel plus the policy that decides
/// whether they are ever used.
#[derive(Debug)]
pub(crate) struct WaitHub {
    policy: WaitPolicy,
    /// Senders park here when the channel is full.
    not_full: ParkLot,
    /// Receivers park here when the channel is empty.
    not_empty: ParkLot,
}

impl WaitHub {
    pub(crate) fn new(policy: WaitPolicy) -> Self {
        WaitHub {
            policy,
            not_full: ParkLot::new(),
            not_empty: ParkLot::new(),
        }
    }

    /// Wake receivers after making the channel non-empty.
    pub(crate) fn wake_not_empty(&self) {
        if matches!(self.policy, WaitPolicy::Park) {
            // ORDERING: SeqCst fence — upgrades the ring's Release
            // publish to SC visibility for the parked waiter's SeqCst
            // re-check (see module docs); required by the ParkLot
            // contract.
            fence(Ordering::SeqCst);
            self.not_empty.notify();
        }
    }

    /// Wake senders after making the channel non-full (or closed).
    pub(crate) fn wake_not_full(&self) {
        if matches!(self.policy, WaitPolicy::Park) {
            // ORDERING: SeqCst fence — same argument as
            // `wake_not_empty`, for the head-advance / close edge.
            fence(Ordering::SeqCst);
            self.not_full.notify();
        }
    }

    /// One stall episode of a sender: wait until `ready()` (which must
    /// read its state `SeqCst`). Returns the episode's wall time in ns.
    pub(crate) fn stall_until_not_full(&self, ready: impl Fn() -> bool) -> u64 {
        self.stall(&self.not_full, ready)
    }

    /// One stall episode of a receiver (see `stall_until_not_full`).
    pub(crate) fn stall_until_not_empty(&self, ready: impl Fn() -> bool) -> u64 {
        self.stall(&self.not_empty, ready)
    }

    fn stall(&self, lot: &ParkLot, ready: impl Fn() -> bool) -> u64 {
        let t0 = now_ns();
        match self.policy {
            WaitPolicy::Yield => {
                while !ready() {
                    std::thread::yield_now();
                }
            }
            WaitPolicy::Park => {
                lot.wait_until(ready);
            }
        }
        now_ns().saturating_sub(t0)
    }
}
