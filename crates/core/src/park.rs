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

/// A condvar-backed parking spot with a spin phase in front.
///
/// The scheduler's pool and task graph share this one audited blocking
/// fallback. `ezp-serve`'s admission runners do not spin: small jobs
/// run on the connection's reader, so theirs is a plain `Condvar` wait.
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

    /// Blocks the caller until `ready()` returns true and returns the
    /// nanoseconds it spent parked: 0 when the spin phase was enough —
    /// the fast path never reads the clock. `ready` must read the state
    /// it depends on with `SeqCst` (see module docs).
    pub fn wait_until(&self, ready: impl Fn() -> bool) -> u64 {
        for i in 0..SPIN_LIMIT {
            if ready() {
                return 0;
            }
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
            guard = self.cv.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        crate::time::now_ns().saturating_sub(t0)
    }

    /// Waiters registered as parked right now: a waiter counts from
    /// just before its last re-check of the condition until it wakes.
    pub fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
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
        assert_eq!(lot.wait_until(|| true), 0);
    }

    #[test]
    fn waiter_wakes_on_notify() {
        let lot = ParkLot::new();
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            let lot = &lot;
            let flag = &flag;
            let h = s.spawn(move || lot.wait_until(|| flag.load(Ordering::SeqCst)));
            // flip the flag only once the waiter has registered to park:
            // a sleep cannot promise that the waiter has even started
            while lot.sleepers() == 0 {
                std::thread::yield_now();
            }
            flag.store(true, Ordering::SeqCst);
            lot.notify();
            // the waiter parked, and a park takes measurable time
            assert!(h.join().unwrap() > 0);
        });
    }

    #[test]
    fn notify_without_waiters_is_cheap_and_safe() {
        let lot = ParkLot::new();
        lot.notify(); // must not block or panic
        assert_eq!(lot.sleepers(), 0);
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
