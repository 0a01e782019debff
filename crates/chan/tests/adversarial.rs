//! Adversarial real-thread battery for `ezp-chan` (satellite of the
//! channel tentpole): shutdown races against waiting endpoints and
//! index-wraparound (ABA) pinning at capacity 1 and near-`u32::MAX`
//! cursor values.

use ezp_chan::{mpmc, spsc, spsc_from_index, RecvError};
use ezp_core::WaitPolicy;

/// 2 producers / 2 consumers hammering a small channel, with the
/// producers shutting down while consumers may be waiting on "empty":
/// every item must be delivered exactly once and both consumers must
/// observe Closed (no hang).
#[test]
fn hammer_2p2c_with_shutdown_during_wait() {
    const PER_PRODUCER: usize = 2_000;
    for round in 0..4 {
        let (txs, rx) = mpmc::<(usize, usize)>(2, 4, WaitPolicy::Yield);
        let rx2 = rx.clone();
        let consume = |rx: ezp_chan::MpmcReceiver<(usize, usize)>| {
            move || {
                let mut got = Vec::new();
                while let Ok(item) = rx.recv() {
                    got.push(item);
                }
                got
            }
        };
        let (a, b) = std::thread::scope(|s| {
            let c1 = s.spawn(consume(rx));
            let c2 = s.spawn(consume(rx2));
            for (p, tx) in txs.into_iter().enumerate() {
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send((p, i)).unwrap();
                    }
                    // tx dropped here: the shutdown edge races the
                    // consumers' wait on "empty"
                });
            }
            (c1.join().unwrap(), c2.join().unwrap())
        });
        let mut next = [0usize; 2];
        let mut merged: Vec<&(usize, usize)> = a.iter().chain(b.iter()).collect();
        assert_eq!(
            merged.len(),
            2 * PER_PRODUCER,
            "round {round}: every item delivered exactly once"
        );
        // per-producer FIFO holds within each consumer's stream
        for stream in [&a, &b] {
            let mut last = [None::<usize>; 2];
            for &(p, i) in stream.iter() {
                if let Some(prev) = last[p] {
                    assert!(prev < i, "round {round}: per-producer order in one stream");
                }
                last[p] = Some(i);
            }
        }
        merged.sort_unstable();
        for &&(p, i) in &merged {
            assert_eq!(i, next[p], "round {round}: no loss or duplication");
            next[p] += 1;
        }
    }
}

/// A receiver waiting on an empty ring must return when the *sender*
/// drops (shutdown during the wait) — the SPSC variant of the hammer
/// above.
#[test]
fn spsc_receiver_waiting_on_empty_sees_sender_drop() {
    for _ in 0..50 {
        let (tx, mut rx) = spsc::<usize>(4, WaitPolicy::Yield);
        std::thread::scope(|s| {
            let h = s.spawn(move || rx.recv());
            // drop the sender while the receiver is polling
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvError));
        });
    }
}

/// A sender waiting on a full channel must return when the *receiver*
/// drops: send hands back the undeliverable item instead of hanging.
#[test]
fn sender_waiting_on_full_sees_receiver_drop() {
    for _ in 0..50 {
        let (mut tx, rx) = spsc::<usize>(1, WaitPolicy::Yield);
        tx.send(0).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(move || tx.send(1));
            drop(rx);
            let err = h.join().unwrap().unwrap_err();
            assert_eq!(err.0, 1, "undeliverable item handed back");
        });
    }
}

/// Capacity-1 wraparound: the cursor parity/index mapping must hold
/// across thousands of wraps of a single-slot ring.
#[test]
fn wraparound_at_capacity_one() {
    let (mut tx, mut rx) = spsc::<usize>(1, WaitPolicy::Yield);
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..10_000 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..10_000 {
            assert_eq!(rx.recv().unwrap(), i, "item {i}");
        }
    });
}

/// Index wraparound near `u32::MAX`: on 32-bit-cursor designs this is
/// where ABA strikes. Our cursors are `usize` and the slot count a
/// power of two, so the `cursor & mask` mapping must stay consistent
/// straight through the boundary; the test-hook constructor starts the
/// cursors just below it.
#[test]
fn wraparound_near_u32_max_indices() {
    for cap in [1usize, 3, 8] {
        let start = (u32::MAX as usize) - 1;
        let (mut tx, mut rx) = spsc_from_index::<usize>(cap, WaitPolicy::Yield, start);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..4_096 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..4_096 {
                assert_eq!(rx.recv().unwrap(), i, "cap {cap}: item {i} across wrap");
            }
        });
    }
}

/// The same boundary for the usize cursor itself: start so close to
/// `usize::MAX` that the monotone counters overflow mid-stream;
/// `wrapping_sub` occupancy math must not glitch.
#[test]
fn wraparound_across_usize_overflow() {
    let start = usize::MAX - 7;
    let (mut tx, mut rx) = spsc_from_index::<usize>(4, WaitPolicy::Yield, start);
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..1_024 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..1_024 {
            assert_eq!(rx.recv().unwrap(), i, "item {i} across usize overflow");
        }
    });
}

/// Stall accounting: a forced full-ring episode lands in the stats.
#[test]
fn stalls_are_counted() {
    let (mut tx, mut rx) = spsc::<usize>(1, WaitPolicy::Yield);
    std::thread::scope(|s| {
        s.spawn(move || {
            tx.send(0).unwrap();
            tx.send(1).unwrap(); // blocks until the consumer pops 0
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        let st = rx.stats();
        assert_eq!(st.sends, 2);
        assert_eq!(st.recvs, 2);
        assert!(st.full_stalls >= 1, "producer stalled on the full ring");
    });
}
