//! MPMC channel composed from SPSC rings: one lane per producer, with
//! receivers claiming a lane at a time via an atomic flag.
//!
//! The composition keeps the strongest ordering guarantee an MPMC
//! channel can usefully make — **per-producer FIFO**: items from one
//! sender are received in the order they were sent. Items from
//! different senders interleave arbitrarily (receivers rotate over
//! lanes for fairness).
//!
//! ## Role migration and the claim flags
//!
//! [`RingCore`](crate::ring) requires a unique producer and unique
//! consumer *at any instant*, not a unique thread forever. Each lane
//! carries a `push_claim` and a `pop_claim` `AtomicBool`; an endpoint
//! claims with a CAS (`Acquire`) and releases with a store
//! (`Release`). That release/acquire edge makes everything the previous
//! role-holder did (including its `Relaxed` own-cursor update) visible
//! to the next holder — which is exactly why the ring's "single-writer
//! reads its own counter `Relaxed`" argument survives the role hopping.
//! Claims also make the endpoints usable as `&self`/`Sync` trait
//! objects ([`crate::backend`]).

use crate::errors::{RecvError, SendError, TryRecvError, TrySendError};
use crate::ring::RingCore;
use crate::stats::{ChanCounters, ChanStats};
use crate::wait::stall_until;
use ezp_core::WaitPolicy;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

struct Lane<T> {
    ring: RingCore<T>,
    /// False once this lane's sender endpoint is dropped (SeqCst: the
    /// receivers' load of it makes the final push visible to their
    /// re-drain, see `try_recv`).
    tx_alive: AtomicBool,
    push_claim: AtomicBool,
    pop_claim: AtomicBool,
}

impl<T> Lane<T> {
    fn new(cap: usize) -> Self {
        Lane {
            ring: RingCore::new(cap),
            tx_alive: AtomicBool::new(true),
            push_claim: AtomicBool::new(false),
            pop_claim: AtomicBool::new(false),
        }
    }

    fn try_claim(flag: &AtomicBool) -> bool {
        // ORDERING: Acquire on success — pairs with the Release in
        // `release_claim`, so everything the previous role-holder did
        // (including its Relaxed own-cursor store inside the ring) is
        // visible to us. Failure needs no ordering: we just move on.
        flag.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn release_claim(flag: &AtomicBool) {
        // ORDERING: Release — publishes this role-holder's ring work to
        // whoever claims next (pairs with the Acquire in `try_claim`).
        flag.store(false, Ordering::Release);
    }
}

struct MpmcShared<T> {
    lanes: Box<[Lane<T>]>,
    /// Live receiver endpoints; 0 means the channel is closed for
    /// senders.
    rx_count: AtomicUsize,
    /// Rotating start lane for receivers, for fairness across lanes.
    /// counter-only: the value is the entire payload — a stale read
    /// just shifts which lane a receiver polls first.
    next_lane: AtomicUsize,
    stats: ChanCounters,
}

/// The sending half of one lane of an MPMC channel. Not `Clone`: one
/// lane, one producer. Methods take `&self` (claim-guarded), so the
/// endpoint can sit behind a shared trait object.
pub struct MpmcSender<T> {
    shared: Arc<MpmcShared<T>>,
    lane: usize,
}

/// The receiving half of an MPMC channel. `Clone` to add consumers; all
/// consumers drain the same lanes (claim-guarded).
pub struct MpmcReceiver<T> {
    shared: Arc<MpmcShared<T>>,
}

/// A bounded MPMC channel with `producers` lanes of `cap` items each.
/// `send` yields while the sender's lane is full; the policy argument
/// has one value left and steers nothing.
pub fn mpmc<T: Send>(
    producers: usize,
    cap: usize,
    _policy: WaitPolicy,
) -> (Vec<MpmcSender<T>>, MpmcReceiver<T>) {
    let producers = producers.max(1);
    let shared = Arc::new(MpmcShared {
        lanes: (0..producers).map(|_| Lane::new(cap)).collect(),
        rx_count: AtomicUsize::new(1),
        next_lane: AtomicUsize::new(0),
        stats: ChanCounters::default(),
    });
    let senders = (0..producers)
        .map(|lane| MpmcSender {
            shared: Arc::clone(&shared),
            lane,
        })
        .collect();
    (senders, MpmcReceiver { shared })
}

impl<T: Send> MpmcSender<T> {
    fn lane(&self) -> &Lane<T> {
        &self.shared.lanes[self.lane]
    }

    fn closed(&self) -> bool {
        self.shared.rx_count.load(Ordering::SeqCst) == 0
    }

    /// Claim-guarded push into this sender's lane ring.
    fn ring_push(&self, value: T) -> Result<(), T> {
        let lane = self.lane();
        while !Lane::<T>::try_claim(&lane.push_claim) {
            // Contention here is rare (one producer per lane; the CAS
            // only races against another thread sharing this same
            // endpoint by reference) and the critical section is a few
            // instructions.
            std::hint::spin_loop();
        }
        // SAFETY: holding `push_claim` makes this thread the unique
        // producer of the lane's ring for the duration of the call; the
        // claim's Acquire/Release edges order successive holders (see
        // module docs), upholding `RingCore::push`'s contract.
        let res = unsafe { lane.ring.push(value) };
        Lane::<T>::release_claim(&lane.push_claim);
        res
    }

    /// Push one item without waiting.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if self.closed() {
            return Err(TrySendError::Closed(value));
        }
        match self.ring_push(value) {
            Ok(()) => {
                ChanCounters::bump(&self.shared.stats.sends);
                Ok(())
            }
            Err(v) => Err(TrySendError::Full(v)),
        }
    }

    /// Push one item, yielding while the lane is full. Fails only when
    /// every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Closed(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    ChanCounters::bump(&self.shared.stats.full_stalls);
                    let shared = &*self.shared;
                    let lane = self.lane();
                    let ns = stall_until(|| {
                        shared.rx_count.load(Ordering::SeqCst) == 0 || lane.ring.has_room_sc()
                    });
                    shared.stats.add_stall_ns(ns);
                }
            }
        }
    }

    /// Snapshot of the channel's activity counters (shared across all
    /// lanes and endpoints).
    pub fn stats(&self) -> ChanStats {
        self.shared.stats.snapshot()
    }
}

impl<T: Send> MpmcReceiver<T> {
    /// Claim-guarded pop from one lane.
    fn lane_pop(lane: &Lane<T>) -> Option<T> {
        // SAFETY: the caller holds `pop_claim`, making this thread the
        // unique consumer of the lane's ring; the claim's
        // Acquire/Release edges order successive holders (module docs),
        // upholding `RingCore::pop`'s contract.
        unsafe { lane.ring.pop() }
    }

    /// Pop one item without waiting, rotating over lanes for fairness.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = &*self.shared;
        let n = shared.lanes.len();
        // ORDERING: Relaxed — the rotation counter is a fairness hint
        // only; no memory is published through it.
        let start = shared.next_lane.fetch_add(1, Ordering::Relaxed) % n;
        for i in 0..n {
            let lane = &shared.lanes[(start + i) % n];
            if !Lane::<T>::try_claim(&lane.pop_claim) {
                continue;
            }
            let got = Self::lane_pop(lane);
            Lane::<T>::release_claim(&lane.pop_claim);
            if let Some(v) = got {
                ChanCounters::bump(&shared.stats.recvs);
                return Ok(v);
            }
        }
        // Nothing found. Only report Closed after observing every
        // sender gone *and then* draining every lane once more: a
        // producer may push and drop between our scan and the flag
        // loads, and the SeqCst load of its `tx_alive` makes that final
        // push visible to the re-drain below.
        if shared
            .lanes
            .iter()
            .all(|l| !l.tx_alive.load(Ordering::SeqCst))
        {
            for lane in shared.lanes.iter() {
                if !Lane::<T>::try_claim(&lane.pop_claim) {
                    // Another receiver is mid-pop on this lane; the
                    // channel is not provably drained yet.
                    return Err(TryRecvError::Empty);
                }
                let got = Self::lane_pop(lane);
                Lane::<T>::release_claim(&lane.pop_claim);
                if let Some(v) = got {
                    ChanCounters::bump(&shared.stats.recvs);
                    return Ok(v);
                }
            }
            return Err(TryRecvError::Closed);
        }
        Err(TryRecvError::Empty)
    }

    /// Pop one item, yielding while all lanes are empty. Fails only
    /// when the channel is drained *and* every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Closed) => return Err(RecvError),
                Err(TryRecvError::Empty) => {
                    ChanCounters::bump(&self.shared.stats.empty_stalls);
                    let shared = &*self.shared;
                    let ns = stall_until(|| {
                        shared.lanes.iter().any(|l| l.ring.has_item_sc())
                            || shared
                                .lanes
                                .iter()
                                .all(|l| !l.tx_alive.load(Ordering::SeqCst))
                    });
                    shared.stats.add_stall_ns(ns);
                }
            }
        }
    }

    /// Snapshot of the channel's activity counters.
    pub fn stats(&self) -> ChanStats {
        self.shared.stats.snapshot()
    }
}

impl<T> Clone for MpmcReceiver<T> {
    fn clone(&self) -> Self {
        self.shared.rx_count.fetch_add(1, Ordering::SeqCst);
        MpmcReceiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for MpmcSender<T> {
    fn drop(&mut self) {
        self.shared.lanes[self.lane]
            .tx_alive
            .store(false, Ordering::SeqCst);
    }
}

impl<T> Drop for MpmcReceiver<T> {
    fn drop(&mut self) {
        // the last one out closes the channel for senders
        self.shared.rx_count.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_producer_fifo_two_producers() {
        let (mut txs, rx) = mpmc::<(usize, usize)>(2, 4, WaitPolicy::Yield);
        let tx1 = txs.pop().unwrap();
        let tx0 = txs.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..500 {
                    tx0.send((0, i)).unwrap();
                }
            });
            s.spawn(move || {
                for i in 0..500 {
                    tx1.send((1, i)).unwrap();
                }
            });
            let mut next = [0usize; 2];
            for _ in 0..1000 {
                let (p, seq) = rx.recv().unwrap();
                assert_eq!(seq, next[p], "per-producer order for producer {p}");
                next[p] += 1;
            }
        });
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn capacity_bound_per_lane() {
        let (txs, _rx) = mpmc::<u8>(1, 2, WaitPolicy::Yield);
        let tx = &txs[0];
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
    }

    #[test]
    fn closed_only_after_drain() {
        let (txs, rx) = mpmc::<u8>(2, 4, WaitPolicy::Yield);
        txs[0].send(7).unwrap();
        drop(txs);
        assert_eq!(rx.recv(), Ok(7), "item sent before close is delivered");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
    }

    #[test]
    fn send_fails_once_all_receivers_drop() {
        let (txs, rx) = mpmc::<u8>(1, 4, WaitPolicy::Yield);
        let rx2 = rx.clone();
        drop(rx);
        drop(rx2);
        assert!(txs[0].send(1).is_err());
    }

    #[test]
    fn two_consumers_split_the_stream_without_loss() {
        let (txs, rx) = mpmc::<usize>(2, 8, WaitPolicy::Yield);
        let rx2 = rx.clone();
        let total = 2000usize;
        let (mut got1, mut got2) = (Vec::new(), Vec::new());
        std::thread::scope(|s| {
            for tx in txs {
                s.spawn(move || {
                    for i in 0..total / 2 {
                        tx.send(i).unwrap();
                    }
                });
            }
            let h1 = s.spawn(|| {
                let mut v = Vec::new();
                while let Ok(x) = rx.recv() {
                    v.push(x);
                }
                v
            });
            let h2 = s.spawn(|| {
                let mut v = Vec::new();
                while let Ok(x) = rx2.recv() {
                    v.push(x);
                }
                v
            });
            got1 = h1.join().unwrap();
            got2 = h2.join().unwrap();
        });
        let mut all: Vec<usize> = got1.into_iter().chain(got2).collect();
        all.sort_unstable();
        let mut want: Vec<usize> = (0..total / 2).chain(0..total / 2).collect();
        want.sort_unstable();
        assert_eq!(all, want, "every item delivered exactly once");
    }
}
