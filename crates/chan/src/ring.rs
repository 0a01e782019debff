//! The bounded lock-free SPSC ring at the heart of `ezp-chan`.
//!
//! This is the FastFlow-style single-producer/single-consumer queue: two
//! monotonically increasing counters (`head` for the consumer, `tail` for
//! the producer), each on its own cache line, indexing into a
//! power-of-two slot array. The producer is the *only* writer of `tail`
//! and the *only* thread that writes slots; the consumer is the only
//! writer of `head` and the only thread that reads slots out. That
//! single-writer discipline is what makes the queue lock-free with just
//! one release/acquire pair per direction.
//!
//! ## Memory-ordering argument
//!
//! * The producer writes the slot, then stores `tail` with `Release`.
//!   The consumer loads `tail` with `Acquire`; if it observes the new
//!   value, the slot write happens-before the slot read.
//! * The consumer reads the slot out, then stores `head` with `Release`.
//!   The producer loads `head` with `Acquire` before reusing a slot; if
//!   it observes the new value, the slot read happens-before the
//!   overwrite.
//! * Each side loads its *own* counter `Relaxed` — it is the only writer
//!   of that counter, so it always sees its latest value.
//!
//! Counters never wrap *logically*: they count items forever and are
//! reduced to a slot index with `& (slots - 1)`. Because the slot count
//! is a power of two, the mapping stays consistent across `usize`
//! overflow (2^k divides 2^64), which the near-wrap constructor
//! [`RingCore::with_start_index`] pins in tests.

// The one sanctioned unsafe island of this crate (see `lib.rs`): slot
// storage is `UnsafeCell<MaybeUninit<T>>`, accessed under the
// single-writer protocol argued above.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads (and aligns) a value to its own 128-byte cache-line pair, so the
/// producer-owned `tail` and consumer-owned `head` never false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

/// One slot of the ring: possibly-uninitialized storage for a `T`.
///
/// A slot is *full* (holds a live `T`) exactly when its index `i`
/// satisfies `head <= i < tail` in the monotone counter space.
struct Slot<T>(UnsafeCell<MaybeUninit<T>>);

/// The shared core of a bounded SPSC ring.
///
/// `RingCore` itself has no blocking, no wait policy and no endpoint
/// types — it is the raw protocol, wrapped by the `spsc` and `mpmc`
/// channel layers. The `push`/`pop` methods are `unsafe` because their
/// soundness depends on a *role contract* the type system cannot see:
/// at most one thread may call `push` concurrently, and at most one may
/// call `pop` concurrently. The endpoint types uphold it by ownership
/// (`&mut self` on a non-`Clone` endpoint) or by a claim flag (MPMC).
pub(crate) struct RingCore<T> {
    /// Consumer cursor: number of items ever popped. Written only by
    /// the consumer role.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: number of items ever pushed. Written only by
    /// the producer role.
    tail: CachePadded<AtomicUsize>,
    /// User-visible capacity bound: `tail - head` never exceeds this.
    cap: usize,
    /// `slots.len() - 1`, with `slots.len()` a power of two `>= cap`.
    mask: usize,
    slots: Box<[Slot<T>]>,
}

// SAFETY: `RingCore` hands `T` values across threads (push on one, pop
// on another), which is exactly the `T: Send` bound. The slot cells are
// only touched under the single-writer protocol documented on
// `push`/`pop`, so `&RingCore` may be shared between the two roles.
unsafe impl<T: Send> Send for RingCore<T> {}
// SAFETY: see the `Send` argument above; `Sync` is what lets the two
// endpoint halves share one `Arc<RingCore>`.
unsafe impl<T: Send> Sync for RingCore<T> {}

impl<T> RingCore<T> {
    /// A ring holding at most `cap` items (`cap >= 1`; 0 is clamped).
    pub(crate) fn new(cap: usize) -> Self {
        Self::with_start_index(cap, 0)
    }

    /// Test hook: a ring whose counters start at `start` instead of 0.
    ///
    /// Starting both cursors just below an index-wrap boundary (e.g.
    /// `u32::MAX as usize - 2`) lets tests pin that the monotone
    /// counter → slot-index mapping survives wraparound without an ABA
    /// slip. Production channels always start at 0.
    pub(crate) fn with_start_index(cap: usize, start: usize) -> Self {
        let cap = cap.max(1);
        let slots = cap.next_power_of_two();
        Self {
            head: CachePadded(AtomicUsize::new(start)),
            tail: CachePadded(AtomicUsize::new(start)),
            cap,
            mask: slots - 1,
            slots: (0..slots)
                .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
                .collect(),
        }
    }

    /// Push one item, or hand it back if the ring is at capacity.
    ///
    /// # Safety
    ///
    /// The caller must be the unique producer: no other thread may be
    /// inside `push` on this ring at the same time.
    // SAFETY: contract above — callers uphold role uniqueness by
    // `&mut self` ownership (spsc) or a claim flag (mpmc).
    pub(crate) unsafe fn push(&self, value: T) -> Result<(), T> {
        // ORDERING: Relaxed — the producer is the only writer of
        // `tail`, so it always reads its own latest value.
        let tail = self.tail.0.load(Ordering::Relaxed);
        // ORDERING: Acquire — pairs with the consumer's Release store
        // of `head` after it reads a slot out; observing the new head
        // means that slot read happens-before our overwrite below.
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.cap {
            return Err(value);
        }
        let slot = &self.slots[tail & self.mask];
        // SAFETY: single-producer contract means no concurrent `push`
        // touches this slot; `tail - head < cap <= slots` means the
        // consumer has already released it (the Acquire above makes
        // that release visible), so nobody reads it while we write.
        unsafe { (*slot.0.get()).write(value) };
        // ORDERING: Release — publishes the slot write above; pairs
        // with the consumer's Acquire load of `tail`.
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pop one item, or `None` if the ring is empty.
    ///
    /// # Safety
    ///
    /// The caller must be the unique consumer: no other thread may be
    /// inside `pop` on this ring at the same time.
    // SAFETY: contract above — callers uphold role uniqueness by
    // `&mut self` ownership (spsc) or a claim flag (mpmc).
    pub(crate) unsafe fn pop(&self) -> Option<T> {
        // ORDERING: Relaxed — the consumer is the only writer of
        // `head`, so it always reads its own latest value.
        let head = self.head.0.load(Ordering::Relaxed);
        // ORDERING: Acquire — pairs with the producer's Release store
        // of `tail`; observing the new tail makes the slot write
        // visible before we read it below.
        let tail = self.tail.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == 0 {
            return None;
        }
        let slot = &self.slots[head & self.mask];
        // SAFETY: single-consumer contract means no concurrent `pop`
        // touches this slot; `head < tail` plus the Acquire above means
        // the producer initialized it, and it will not overwrite until
        // our Release store of `head` below, so the value is read out
        // exactly once.
        let value = unsafe { (*slot.0.get()).assume_init_read() };
        // ORDERING: Release — publishes the slot read (it is free for
        // reuse); pairs with the producer's Acquire load of `head`.
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Whether a `push` would currently succeed — what a stalled
    /// sender polls between yields. Callable from either role, so it
    /// reads both cursors `SeqCst` rather than lean on an own-cursor
    /// argument.
    pub(crate) fn has_room_sc(&self) -> bool {
        let tail = self.tail.0.load(Ordering::SeqCst);
        let head = self.head.0.load(Ordering::SeqCst);
        tail.wrapping_sub(head) < self.cap
    }

    /// Whether a `pop` would currently find an item — what a stalled
    /// receiver polls (see [`RingCore::has_room_sc`]).
    pub(crate) fn has_item_sc(&self) -> bool {
        let tail = self.tail.0.load(Ordering::SeqCst);
        let head = self.head.0.load(Ordering::SeqCst);
        tail.wrapping_sub(head) != 0
    }

    /// Approximate number of buffered items (racy snapshot).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::SeqCst);
        let head = self.head.0.load(Ordering::SeqCst);
        tail.wrapping_sub(head)
    }
}

impl<T> Drop for RingCore<T> {
    fn drop(&mut self) {
        // `&mut self`: both roles are gone, so plain reads of the
        // counters are exact and no slot is concurrently touched.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut i = head;
        while i != tail {
            // SAFETY: slots in `head..tail` hold live values that were
            // pushed but never popped; exclusive access (`&mut self`)
            // means each is dropped exactly once, here.
            unsafe { (*self.slots[i & self.mask].0.get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let ring = RingCore::new(4);
        // SAFETY: (test) this thread is both the sole producer and sole
        // consumer.
        unsafe {
            for i in 0..4 {
                ring.push(i).unwrap();
            }
            assert_eq!(ring.push(99), Err(99), "capacity bound enforced");
            for i in 0..4 {
                assert_eq!(ring.pop(), Some(i));
            }
            assert_eq!(ring.pop(), None);
        }
    }

    #[test]
    fn capacity_is_user_cap_not_power_of_two() {
        // cap 3 rounds up to 4 slots internally but must still refuse
        // a 4th in-flight item.
        let ring = RingCore::new(3);
        // SAFETY: (test) single-threaded, sole producer and consumer.
        unsafe {
            for i in 0..3 {
                ring.push(i).unwrap();
            }
            assert_eq!(ring.push(3), Err(3));
            assert_eq!(ring.pop(), Some(0));
            ring.push(3).unwrap();
            assert_eq!(ring.len(), 3);
        }
    }

    #[test]
    fn wraparound_near_index_overflow() {
        // Start the monotone counters just below a 32-bit boundary and
        // stream enough items to cross it: the counter→index mapping
        // must stay consistent (no ABA, no skipped or doubled slot).
        let start = (u32::MAX as usize) - 2;
        let ring = RingCore::with_start_index(3, start);
        // SAFETY: (test) single-threaded, sole producer and consumer.
        unsafe {
            for i in 0..64usize {
                ring.push(i).unwrap();
                assert_eq!(ring.pop(), Some(i), "item {i} crossing the wrap");
            }
        }
    }

    #[test]
    fn drop_releases_in_flight_items_exactly_once() {
        struct Tracked(Arc<Counter>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(Counter::new(0));
        {
            let ring = RingCore::new(8);
            // SAFETY: (test) single-threaded, sole producer/consumer.
            unsafe {
                for _ in 0..5 {
                    assert!(ring.push(Tracked(Arc::clone(&drops))).is_ok());
                }
                drop(ring.pop()); // one popped and dropped by us
            }
            // ring dropped here with 4 items still in flight
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5, "every item dropped once");
    }
}
