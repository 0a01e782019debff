//! A fixed-capacity work-stealing deque of task ids.
//!
//! The task-graph executor keeps one [`TaskDeque`] per worker: the
//! owner pushes newly-released dependents and pops them back LIFO
//! (depth-first, cache-warm), thieves steal FIFO from the opposite end
//! (breadth-first, grabbing the oldest — usually largest — subtree).
//! This is the Chase–Lev / Arora–Blumofe–Plaxton design, simplified by
//! two properties the task-graph use-case guarantees:
//!
//! * **Elements are plain `usize` task ids** stored in `AtomicUsize`
//!   slots — no boxed payloads, so a lost race on `steal` just discards
//!   a stale integer; there is no memory to reclaim and no ABA hazard.
//! * **Capacity is fixed up front** (a graph of `n` tasks can never
//!   hold more than `n` entries in any deque), so the buffer never
//!   grows and slots are recycled only after `top` has moved past them.
//!
//! All cross-thread transitions use `SeqCst`: the deque operates at
//! task granularity (thousands of ops per region, not billions), so
//! the cost of the strongest ordering is noise next to the mutex the
//! previous global ready queue took on *every* pop.
//!
//! **Calling protocol**: exactly one thread — the owner — may call
//! [`TaskDeque::push`] / [`TaskDeque::pop`] on a given deque at a time;
//! any number of threads may call [`TaskDeque::steal`] concurrently.
//! The task-graph executor guarantees this structurally (deque `r`
//! belongs to worker rank `r`). Violating it cannot corrupt memory
//! (every slot is an atomic) but can hand out a task twice — the same
//! rank-serial contract [`Dispenser`](crate::Dispenser) documents.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Outcome of a [`TaskDeque::steal`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; retrying may succeed.
    Retry,
    /// Stole this task id.
    Success(usize),
}

/// A fixed-capacity lock-free work-stealing deque (owner LIFO, thief
/// FIFO) over `usize` task ids.
pub struct TaskDeque {
    /// Owner end. Only the owner writes it (plain increments /
    /// decrements via store); thieves read it.
    bottom: AtomicIsize,
    /// Thief end. Advanced by CAS (thieves and the owner's last-element
    /// pop race here).
    top: AtomicIsize,
    /// Power-of-two ring of task-id slots. Slot contents are
    /// synchronizing via the spine, not locally (via-the-spine): the
    /// `top`/`bottom` Acquire/SeqCst protocol publishes each slot
    /// before a thief may read it, so the cells stay `Relaxed`.
    buf: Box<[AtomicUsize]>,
    mask: usize,
}

impl TaskDeque {
    /// A deque holding at most `capacity` concurrent entries (rounded
    /// up to a power of two, minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        TaskDeque {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buf: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// A racy size estimate: exact when quiescent, approximate under
    /// concurrency. Never negative.
    pub fn len_hint(&self) -> usize {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        b.saturating_sub(t).max(0) as usize
    }

    /// Owner-only: pushes `task` on the LIFO end.
    ///
    /// # Panics
    ///
    /// Panics if the deque is full — the executor sizes each deque for
    /// the whole graph, so hitting this is a bug, not a load condition.
    pub fn push(&self, task: usize) {
        // ORDERING: counter-only (owner-private). Only the owner writes
        // `bottom`, so it reads its own last store; Relaxed is enough.
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::SeqCst);
        assert!(
            (b - t) < self.buf.len() as isize,
            "TaskDeque overflow: capacity {} exhausted",
            self.buf.len()
        );
        // ORDERING: synchronizing via the spine, not locally — the slot
        // store is ordered before the SeqCst `bottom` publication below,
        // and a thief reads the slot only after observing that `bottom`,
        // so the Relaxed slot store is never read early.
        self.buf[b as usize & self.mask].store(task, Ordering::Relaxed);
        // Publish the slot before the new bottom becomes visible.
        self.bottom.store(b + 1, Ordering::SeqCst);
    }

    /// Owner-only: pops the most recently pushed task (LIFO).
    pub fn pop(&self) -> Option<usize> {
        // ORDERING: counter-only (owner-private read of `bottom`, same
        // argument as in `push`).
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // Reserve the slot first so a concurrent thief sees the deque
        // one shorter; the SeqCst store/load pair below makes the
        // reservation and the thief's `top` advance totally ordered.
        self.bottom.store(b, Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t > b {
            // Deque was empty; undo the reservation.
            self.bottom.store(b + 1, Ordering::SeqCst);
            return None;
        }
        // ORDERING: counter-only (owner-private). The slot at `b` was
        // last written by our own `push`; thieves never write slots.
        let task = self.buf[b as usize & self.mask].load(Ordering::Relaxed);
        if t == b {
            // Last element: race the thieves for it via `top`.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            self.bottom.store(b + 1, Ordering::SeqCst);
            return won.then_some(task);
        }
        Some(task)
    }

    /// Thief-safe: steals the oldest task (FIFO end). Any thread may
    /// call this concurrently.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::SeqCst);
        if t >= b {
            return Steal::Empty;
        }
        // Read the slot before claiming it; if the CAS below fails the
        // value is stale and simply discarded (plain integer, no ABA).
        // ORDERING: synchronizing via the spine, not locally — the SeqCst
        // `bottom` load above happens-after the owner's SeqCst publish of
        // `bottom`, which orders the owner's Relaxed slot store before
        // this Relaxed load; a stale value can only flow into a failing
        // CAS.
        let task = self.buf[t as usize & self.mask].load(Ordering::Relaxed);
        match self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => Steal::Success(task),
            Err(_) => Steal::Retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn owner_lifo_order() {
        let d = TaskDeque::with_capacity(8);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn thief_fifo_order() {
        let d = TaskDeque::with_capacity(8);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Steal::Success(1));
        assert_eq!(d.steal(), Steal::Success(2));
        assert_eq!(d.steal(), Steal::Success(3));
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn owner_and_thief_split_the_deque() {
        let d = TaskDeque::with_capacity(8);
        for i in 0..4 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Success(0)); // oldest
        assert_eq!(d.pop(), Some(3)); // newest
        assert_eq!(d.len_hint(), 2);
    }

    #[test]
    fn capacity_rounds_up_and_wraps() {
        let d = TaskDeque::with_capacity(3);
        assert_eq!(d.capacity(), 4);
        // cycle more items through than the capacity to exercise wrap
        for round in 0..5 {
            for i in 0..4 {
                d.push(round * 4 + i);
            }
            for i in (0..4).rev() {
                assert_eq!(d.pop(), Some(round * 4 + i));
            }
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let d = TaskDeque::with_capacity(2);
        d.push(0);
        d.push(1);
        d.push(2);
    }

    #[test]
    fn concurrent_thieves_and_owner_never_lose_or_duplicate() {
        // The deque's core invariant under real contention: every pushed
        // id comes out exactly once, split arbitrarily between the
        // owner's pops and the thieves' steals.
        const N: usize = 2000;
        for round in 0..8 {
            let d = TaskDeque::with_capacity(N);
            let stolen: Vec<std::sync::Mutex<Vec<usize>>> =
                (0..3).map(|_| std::sync::Mutex::new(Vec::new())).collect();
            let done = AtomicUsize::new(0);
            let mut popped = Vec::new();
            std::thread::scope(|s| {
                let d = &d;
                let done = &done;
                for slot in &stolen {
                    s.spawn(move || {
                        let mut grabbed = Vec::new();
                        loop {
                            match d.steal() {
                                Steal::Success(v) => grabbed.push(v),
                                Steal::Retry => std::hint::spin_loop(),
                                Steal::Empty => {
                                    if done.load(Ordering::SeqCst) == 1 && d.steal() == Steal::Empty
                                    {
                                        break;
                                    }
                                }
                            }
                        }
                        slot.lock().unwrap().extend(grabbed);
                    });
                }
                // Owner: interleave pushes and pops.
                for i in 0..N {
                    d.push(i);
                    if i % 3 == round % 3 {
                        if let Some(v) = d.pop() {
                            popped.push(v);
                        }
                    }
                }
                while let Some(v) = d.pop() {
                    popped.push(v);
                }
                done.store(1, Ordering::SeqCst);
            });
            let mut all: Vec<usize> = popped;
            for slot in &stolen {
                all.extend(slot.lock().unwrap().iter().copied());
            }
            assert_eq!(all.len(), N, "round {round}: lost or duplicated tasks");
            let set: BTreeSet<usize> = all.iter().copied().collect();
            assert_eq!(set.len(), N, "round {round}: duplicate task ids");
        }
    }
}
