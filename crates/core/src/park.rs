//! Spin-then-park waiting: the blocking fallback of the lock-free hot
//! paths in [`pool`](crate::pool) and [`taskgraph`](crate::taskgraph).
//!
//! The scheduler's fast paths are pure atomics; a thread only needs a
//! blocking primitive when it has genuinely run out of work. A
//! [`ParkLot`] packages the standard lost-wakeup-free recipe for that
//! fallback:
//!
//! * the waiter spins briefly on the condition (with `spin_loop` hints
//!   and periodic `yield_now`, so an oversubscribed box makes progress),
//!   then takes the lot's mutex, registers itself in `sleepers`,
//!   re-checks the condition and finally waits on the condvar;
//! * the waker updates the (SeqCst) state the condition reads, then
//!   calls [`ParkLot::notify`], which takes the mutex only when
//!   `sleepers` says someone is actually parked.
//!
//! Why no wakeup can be lost: the waiter increments `sleepers` and
//! re-checks the condition *while holding the mutex*; the waker stores
//! its state change before loading `sleepers`. In the SeqCst total
//! order either the waiter's re-check sees the new state (it never
//! parks), or its `sleepers` increment precedes the waker's load — then
//! the waker takes the mutex, which the waiter holds until it is inside
//! `Condvar::wait`, so the `notify_all` is delivered. Conditions must
//! therefore read their state with `SeqCst`, and wakers must store with
//! `SeqCst` before calling `notify`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Iterations of the spin phase before a waiter parks. Deliberately
/// small: on an oversubscribed machine (more workers than cores) long
/// spins steal cycles from the thread that would satisfy the condition.
const SPIN_LIMIT: u32 = 64;

/// How often the spin phase yields the CPU instead of issuing a
/// `spin_loop` hint (every `1 << YIELD_SHIFT` iterations).
const YIELD_SHIFT: u32 = 3;

/// Waiting activity of one [`ParkLot::wait_until`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Spin-phase iterations executed before the condition held.
    pub spins: u64,
    /// Times the waiter actually blocked on the condvar.
    pub parks: u64,
    /// Wall time spent in the park (slow) path, in nanoseconds. Zero
    /// when the condition held during the spin phase — the fast path
    /// never reads the clock.
    pub park_ns: u64,
}

/// A condvar-backed parking spot with a spin phase in front.
///
/// Public beyond the scheduler: `ezp-serve`'s admission runners wait
/// for the next job on this exact recipe, so the workspace has one
/// audited blocking fallback, not two.
#[derive(Debug, Default)]
pub struct ParkLot {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ParkLot {
    /// A lot with no sleepers.
    pub fn new() -> Self {
        ParkLot::default()
    }

    /// Blocks the caller until `ready()` returns true. `ready` must read
    /// the state it depends on with `SeqCst` (see module docs).
    pub fn wait_until(&self, ready: impl Fn() -> bool) -> WaitStats {
        let mut stats = WaitStats::default();
        for i in 0..SPIN_LIMIT {
            if ready() {
                return stats;
            }
            stats.spins += 1;
            if i & ((1 << YIELD_SHIFT) - 1) == (1 << YIELD_SHIFT) - 1 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Park. Lock poisoning cannot occur: no user code ever runs
        // under this mutex (the critical sections below are pure
        // bookkeeping), so unwrap is safe.
        let t0 = crate::time::now_ns();
        let mut guard = self.lock.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !ready() {
            stats.parks += 1;
            guard = self.cv.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        stats.park_ns = crate::time::now_ns().saturating_sub(t0);
        stats
    }

    /// Wakes every parked waiter. Cheap when nobody is parked: a single
    /// atomic load. Call *after* the SeqCst store that makes waiters'
    /// conditions true.
    pub fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn already_ready_never_parks() {
        let lot = ParkLot::new();
        let stats = lot.wait_until(|| true);
        assert_eq!(stats, WaitStats::default());
    }

    #[test]
    fn waiter_wakes_on_notify() {
        let lot = ParkLot::new();
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            let lot = &lot;
            let flag = &flag;
            let h = s.spawn(move || lot.wait_until(|| flag.load(Ordering::SeqCst)));
            // let the waiter burn through its spin phase and park
            std::thread::sleep(std::time::Duration::from_millis(5));
            flag.store(true, Ordering::SeqCst);
            lot.notify();
            let stats = h.join().unwrap();
            assert!(stats.spins > 0);
            // a waiter that actually parked spent measurable time there
            assert!(stats.parks == 0 || stats.park_ns > 0);
        });
    }

    #[test]
    fn notify_without_waiters_is_cheap_and_safe() {
        let lot = ParkLot::new();
        lot.notify(); // must not block or panic
        assert_eq!(lot.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn many_waiters_all_wake() {
        let lot = ParkLot::new();
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let lot = &lot;
                    let flag = &flag;
                    s.spawn(move || lot.wait_until(|| flag.load(Ordering::SeqCst)))
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(5));
            flag.store(true, Ordering::SeqCst);
            lot.notify();
            for h in handles {
                h.join().unwrap();
            }
        });
    }
}
