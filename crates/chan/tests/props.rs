//! Property tests for `ezp-chan` (satellite of the channel tentpole):
//! FIFO and capacity invariants under arbitrary generated op
//! interleavings, plus exactly-once item release on mid-stream drop.
//! Seed-replayable: set `EZP_TEST_SEED=<u64>` to reproduce a failure.

use ezp_chan::{mpmc, spsc, ChanStats, TryRecvError, TrySendError};
use ezp_core::WaitPolicy;
use ezp_testkit::ezp_proptest;
use ezp_testkit::prop::{any_u64, vec_of};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A drop-counting payload for the exactly-once release property.
struct Tracked(Arc<AtomicUsize>, usize);
impl Drop for Tracked {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

ezp_proptest! {
    #![cases(32)]

    /// SPSC delivers in FIFO order under an arbitrary interleaving of
    /// push and pop attempts, checked against a model deque.
    fn prop_spsc_fifo_under_arbitrary_interleavings(
        cap in 1usize..9,
        ops in vec_of(0u8..2, 1..200),
        seed in any_u64(),
    ) {
        let (mut tx, mut rx) = spsc::<usize>(cap, WaitPolicy::Yield);
        let mut model: VecDeque<usize> = VecDeque::new();
        let mut next_item = seed as usize & 0xFFFF;
        for op in ops {
            if op == 0 {
                match tx.try_send(next_item) {
                    Ok(()) => {
                        model.push_back(next_item);
                        next_item += 1;
                    }
                    Err(TrySendError::Full(_)) => {
                        assert_eq!(model.len(), cap, "Full only at capacity");
                    }
                    Err(TrySendError::Closed(_)) => unreachable!(),
                }
            } else {
                match rx.try_recv() {
                    Ok(v) => assert_eq!(Some(v), model.pop_front(), "FIFO order"),
                    Err(TryRecvError::Empty) => assert!(model.is_empty()),
                    Err(TryRecvError::Closed) => unreachable!(),
                }
            }
        }
        // drain what is left; order must still match the model
        while let Ok(v) = rx.try_recv() {
            assert_eq!(Some(v), model.pop_front());
        }
        assert!(model.is_empty());
    }

    /// MPMC preserves per-producer order under arbitrary interleavings
    /// of sends (rotating producers) and receives.
    fn prop_mpmc_per_producer_order_preserved(
        producers in 1usize..4,
        ops in vec_of(0u8..3, 1..200),
        seed in any_u64(),
    ) {
        let (txs, rx) = mpmc::<(usize, usize)>(producers, 2, WaitPolicy::Yield);
        let mut sent = vec![0usize; producers];
        let mut seen = vec![0usize; producers];
        let mut lane = seed as usize;
        for op in ops {
            if op < 2 {
                lane = (lane + 1) % producers;
                if txs[lane].try_send((lane, sent[lane])).is_ok() {
                    sent[lane] += 1;
                }
            } else if let Ok((p, seq)) = rx.try_recv() {
                assert_eq!(seq, seen[p], "per-producer FIFO for producer {p}");
                seen[p] += 1;
            }
        }
        drop(txs);
        while let Ok((p, seq)) = rx.try_recv() {
            assert_eq!(seq, seen[p], "per-producer FIFO during drain");
            seen[p] += 1;
        }
        assert_eq!(seen, sent, "every sent item received exactly once");
    }

    /// The number of in-flight items never exceeds the configured
    /// capacity, and `try_send` reports `Full` exactly at the bound.
    fn prop_capacity_never_exceeded(
        cap in 1usize..17,
        ops in vec_of(0u8..3, 1..300),
    ) {
        let (mut tx, mut rx) = spsc::<u32>(cap, WaitPolicy::Yield);
        let mut in_flight = 0usize;
        for op in ops {
            if op < 2 {
                match tx.try_send(0) {
                    Ok(()) => in_flight += 1,
                    Err(TrySendError::Full(_)) => {
                        assert_eq!(in_flight, cap, "Full implies at capacity");
                    }
                    Err(TrySendError::Closed(_)) => unreachable!(),
                }
            } else if rx.try_recv().is_ok() {
                in_flight -= 1;
            }
            assert!(in_flight <= cap, "capacity bound violated");
            let st: ChanStats = tx.stats();
            assert_eq!(st.sends - st.recvs, in_flight as u64);
        }
    }

    /// Dropping a channel mid-stream releases every item exactly once:
    /// items popped out are dropped by the caller, items still in
    /// flight in ring slots by the channel's Drop.
    fn prop_drop_mid_stream_releases_all_items_exactly_once(
        pushes in 0usize..40,
        pops in 0usize..40,
    ) {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut delivered = 0usize;
        {
            let (mut tx, mut rx) = spsc::<Tracked>(8, WaitPolicy::Yield);
            let mut accepted = 0usize;
            for i in 0..pushes {
                if tx.try_send(Tracked(Arc::clone(&drops), i)).is_ok() {
                    accepted += 1;
                }
            }
            for _ in 0..pops.min(accepted) {
                let got = rx.try_recv().expect("accepted items are there");
                delivered += 1;
                assert_eq!(got.1, delivered - 1, "FIFO of tracked items");
            }
            // endpoints (and any in-flight items) dropped here
        }
        // rejected (bounded try_send Full) + delivered + still-in-flight
        // must account for every constructed item, each dropped once
        assert_eq!(
            drops.load(Ordering::SeqCst),
            pushes,
            "every constructed item dropped exactly once (delivered {delivered})"
        );
    }
}
