//! SPSC channel endpoints: the thinnest possible wrapper over
//! [`RingCore`](crate::ring), adding lifecycle (close-on-drop), blocking
//! `send`/`recv` and stats.
//!
//! The single-producer / single-consumer role contract is enforced by
//! the type system: neither endpoint is `Clone`, and every operation
//! takes `&mut self`, so at most one thread can be inside `push` (resp.
//! `pop`) at a time. This is the fastest path `ezp-chan` offers — the
//! MPMC layer builds on the same core but pays a claim flag per
//! operation to make shared (`&self`) trait objects sound.

use crate::errors::{RecvError, SendError, TryRecvError, TrySendError};
use crate::ring::RingCore;
use crate::stats::{ChanCounters, ChanStats};
use crate::wait::stall_until;
use ezp_core::WaitPolicy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub(crate) struct SpscShared<T> {
    pub(crate) ring: RingCore<T>,
    /// False once the sender endpoint is dropped. SeqCst: the
    /// receiver's load of it makes the sender's final push visible to
    /// the re-poll in `try_recv`.
    pub(crate) tx_alive: AtomicBool,
    /// False once the receiver endpoint is dropped.
    pub(crate) rx_alive: AtomicBool,
    pub(crate) stats: ChanCounters,
}

impl<T> SpscShared<T> {
    fn new(cap: usize, start_index: usize) -> Arc<Self> {
        Arc::new(SpscShared {
            ring: RingCore::with_start_index(cap, start_index),
            tx_alive: AtomicBool::new(true),
            rx_alive: AtomicBool::new(true),
            stats: ChanCounters::default(),
        })
    }
}

/// The producing half of a bounded SPSC channel. Not `Clone`; all
/// operations take `&mut self`, which is what makes the lock-free core
/// sound (sole-producer contract).
pub struct SpscSender<T> {
    shared: Arc<SpscShared<T>>,
}

/// The consuming half of a bounded SPSC channel (sole-consumer contract
/// via `&mut self`, like [`SpscSender`]).
pub struct SpscReceiver<T> {
    shared: Arc<SpscShared<T>>,
}

/// A bounded SPSC channel holding at most `cap` in-flight items. The
/// policy argument has one value left and steers nothing.
pub fn spsc<T: Send>(cap: usize, policy: WaitPolicy) -> (SpscSender<T>, SpscReceiver<T>) {
    spsc_from_index(cap, policy, 0)
}

/// Test hook: an SPSC channel whose monotone cursors start at `start`
/// instead of 0, for pinning index-wraparound behaviour (see
/// `RingCore::with_start_index`).
pub fn spsc_from_index<T: Send>(
    cap: usize,
    _policy: WaitPolicy,
    start: usize,
) -> (SpscSender<T>, SpscReceiver<T>) {
    let shared = SpscShared::new(cap, start);
    (
        SpscSender {
            shared: Arc::clone(&shared),
        },
        SpscReceiver { shared },
    )
}

impl<T: Send> SpscSender<T> {
    /// Push one item without waiting.
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        if !self.shared.rx_alive.load(Ordering::SeqCst) {
            return Err(TrySendError::Closed(value));
        }
        // SAFETY: `&mut self` on a non-Clone endpoint makes this thread
        // the unique producer, as `RingCore::push` requires.
        match unsafe { self.shared.ring.push(value) } {
            Ok(()) => {
                ChanCounters::bump(&self.shared.stats.sends);
                Ok(())
            }
            Err(value) => Err(TrySendError::Full(value)),
        }
    }

    /// Push one item, yielding while the ring is full. Fails only if
    /// the receiver is gone.
    pub fn send(&mut self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Closed(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    ChanCounters::bump(&self.shared.stats.full_stalls);
                    let shared = &*self.shared;
                    let ns = stall_until(|| {
                        !shared.rx_alive.load(Ordering::SeqCst) || shared.ring.has_room_sc()
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

impl<T: Send> SpscReceiver<T> {
    /// Pop one item without waiting.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        // SAFETY: `&mut self` on a non-Clone endpoint makes this thread
        // the unique consumer, as `RingCore::pop` requires.
        if let Some(v) = unsafe { self.shared.ring.pop() } {
            ChanCounters::bump(&self.shared.stats.recvs);
            return Ok(v);
        }
        if !self.shared.tx_alive.load(Ordering::SeqCst) {
            // The sender may have pushed then dropped between our pop
            // and the flag load; the SeqCst load makes that final push
            // visible, so one re-poll closes the race.
            // SAFETY: unique consumer, as above.
            if let Some(v) = unsafe { self.shared.ring.pop() } {
                ChanCounters::bump(&self.shared.stats.recvs);
                return Ok(v);
            }
            return Err(TryRecvError::Closed);
        }
        Err(TryRecvError::Empty)
    }

    /// Pop one item, yielding while the ring is empty. Fails only when
    /// the channel is empty *and* the sender is gone.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Closed) => return Err(RecvError),
                Err(TryRecvError::Empty) => {
                    ChanCounters::bump(&self.shared.stats.empty_stalls);
                    let shared = &*self.shared;
                    let ns = stall_until(|| {
                        !shared.tx_alive.load(Ordering::SeqCst) || shared.ring.has_item_sc()
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

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.shared.tx_alive.store(false, Ordering::SeqCst);
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        self.shared.rx_alive.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_across_threads() {
        let (mut tx, mut rx) = spsc::<usize>(8, WaitPolicy::Yield);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..1000 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..1000 {
                assert_eq!(rx.recv().unwrap(), i);
            }
            assert_eq!(rx.recv(), Err(RecvError));
        });
    }

    #[test]
    fn try_send_reports_full_and_closed() {
        let (mut tx, rx) = spsc::<u8>(1, WaitPolicy::Yield);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        drop(rx);
        assert!(matches!(tx.try_send(3), Err(TrySendError::Closed(3))));
    }

    #[test]
    fn stats_count_sends_recvs_and_stall_episodes() {
        let (mut tx, mut rx) = spsc::<u8>(1, WaitPolicy::Yield);
        tx.send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(_))));
        assert_eq!(rx.recv().unwrap(), 1);
        let st = rx.stats();
        assert_eq!((st.sends, st.recvs), (1, 1));
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
    }
}
