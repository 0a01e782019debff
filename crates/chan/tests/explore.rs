//! Op-level schedule explorer over the real MPMC channel.
//!
//! The threaded battery next door (`adversarial.rs`) can only *sample*
//! interleavings; this one *owns* them. Producers and consumers are
//! logical actors on the calling thread, each scheduling point is one
//! real `try_send` or `try_recv`, and which actor goes next is decided
//! by an `ezp-testkit` [`Interleave`] strategy — so a run is a pure
//! function of `(strategy kind, seed)` and a failure replays from it.
//! An actor that found its lane full (or every lane empty) leaves the
//! runnable set until the operation that would wake a parked thread
//! happens, so unfair strategies cannot spin on it.
//!
//! Because operations never overlap here, the oracle is exact: `Full`
//! means the lane holds exactly `cap` items, `Empty` means no lane holds
//! any, `Closed` means every sender is gone and everything was drained.
//! What this cannot see is an interleaving *inside* one operation (the
//! ring's release/acquire pairs, the claim flags under contention);
//! those stay with `adversarial.rs` and the atomics-pairing rule of the
//! workspace's `tests/ordering_arguments.rs`.

use ezp_chan::{mpmc, TryRecvError, TrySendError};
use ezp_core::WaitPolicy;
use ezp_testkit::schedule::{Interleave, RoundRobin, StealHeavy, StrategyKind};

/// What one explored run observed. Two runs from the same
/// `(strategy kind, seed)` compare equal — the replay contract.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Run {
    /// `(producer, seq)` of every received item, in receive order.
    popped: Vec<(usize, u64)>,
    /// Peak number of items any one lane held.
    max_occupancy: usize,
    /// Times a producer found its lane full and parked.
    full_stalls: u64,
    /// Times a consumer found every lane empty and parked.
    empty_stalls: u64,
}

/// `producers` senders push `0..items` each through lanes of `cap`
/// items; `consumers` receivers drain them. Build `strategy` for
/// `producers + consumers` actors (producers come first).
fn explore(
    producers: usize,
    consumers: usize,
    cap: usize,
    items: u64,
    strategy: &mut dyn Interleave,
) -> Run {
    let (txs, rx) = mpmc::<(usize, u64)>(producers, cap, WaitPolicy::Yield);
    // a producer that has nothing to send drops its endpoint up front
    let mut txs: Vec<_> = txs
        .into_iter()
        .map(|tx| (items > 0).then_some(tx))
        .collect();
    let mut rxs: Vec<_> = (0..consumers).map(|_| Some(rx.clone())).collect();
    drop(rx);

    let mut next = vec![0u64; producers]; // next seq each producer sends
    let mut held = vec![0usize; producers]; // items in each lane right now
    let mut run = Run {
        popped: Vec::with_capacity(producers * items as usize),
        max_occupancy: 0,
        full_stalls: 0,
        empty_stalls: 0,
    };
    let mut runnable: Vec<bool> = txs
        .iter()
        .map(Option::is_some)
        .chain(rxs.iter().map(Option::is_some))
        .collect();

    while let Some(actor) = strategy.next_worker(&runnable) {
        if actor < producers {
            let p = actor;
            let tx = txs[p].as_ref().expect("a finished producer was scheduled");
            match tx.try_send((p, next[p])) {
                Ok(()) => {
                    next[p] += 1;
                    held[p] += 1;
                    assert!(
                        held[p] <= cap,
                        "lane {p} holds {} items, capacity {cap}",
                        held[p]
                    );
                    run.max_occupancy = run.max_occupancy.max(held[p]);
                    if next[p] == items {
                        txs[p] = None; // drops the sender
                        runnable[p] = false;
                    }
                    // an item (or a departure) can end any consumer's wait
                    for c in 0..consumers {
                        runnable[producers + c] = rxs[c].is_some();
                    }
                }
                Err(TrySendError::Full(_)) => {
                    assert_eq!(held[p], cap, "lane {p} reported full below capacity");
                    run.full_stalls += 1;
                    runnable[p] = false; // until a consumer pops lane p
                }
                Err(TrySendError::Closed(_)) => panic!("producer {p}: closed with receivers alive"),
            }
        } else {
            let c = actor - producers;
            let rx = rxs[c].as_ref().expect("a finished consumer was scheduled");
            match rx.try_recv() {
                Ok((p, seq)) => {
                    run.popped.push((p, seq));
                    held[p] -= 1;
                    runnable[p] = txs[p].is_some();
                }
                Err(TryRecvError::Empty) => {
                    assert!(
                        held.iter().all(|&h| h == 0),
                        "empty with items queued: {held:?}"
                    );
                    assert!(
                        txs.iter().any(Option::is_some),
                        "empty, but every sender is gone"
                    );
                    run.empty_stalls += 1;
                    runnable[actor] = false; // until the next send or departure
                }
                Err(TryRecvError::Closed) => {
                    assert!(
                        txs.iter().all(Option::is_none),
                        "closed with a sender alive"
                    );
                    assert!(
                        held.iter().all(|&h| h == 0),
                        "closed with items queued: {held:?}"
                    );
                    rxs[c] = None;
                    runnable[actor] = false;
                }
            }
        }
    }
    assert!(
        txs.iter().all(Option::is_none) && rxs.iter().all(Option::is_none),
        "lost wakeup: the schedule ran dry with {} of {} items received",
        run.popped.len(),
        producers as u64 * items
    );
    run
}

/// Every item sent is received exactly once, and each producer's items
/// are received in the order it sent them.
fn check_oracle(popped: &[(usize, u64)], producers: usize, items: u64) -> Result<(), String> {
    let expect_total = producers as u64 * items;
    if popped.len() as u64 != expect_total {
        return Err(format!(
            "lost or duplicated items: received {} of {expect_total}",
            popped.len()
        ));
    }
    let mut next = vec![0u64; producers];
    for (i, &(p, seq)) in popped.iter().enumerate() {
        if p >= producers {
            return Err(format!("receive {i}: unknown producer {p}"));
        }
        if seq != next[p] {
            return Err(format!(
                "receive {i}: producer {p} out of order: got seq {seq}, expected {} \
                 (lost, duplicated or reordered)",
                next[p]
            ));
        }
        next[p] += 1;
    }
    Ok(())
}

/// The channel under every interleaving family: for SPSC and MPMC
/// shapes covering {1, 2, 4, 8} actors per side, every strategy and
/// seed must satisfy the oracle — nothing lost, duplicated or
/// per-producer-reordered — keep every lane within its capacity, and
/// replay byte-for-byte from its `(strategy, seed)`.
#[test]
fn mpmc_conforms_under_every_strategy() {
    // (producers, consumers): SPSC, balanced fan at 2/4/8 a side, and
    // the skewed fan-in / fan-out shapes the framework runs (serve's
    // admission lanes are many-to-few, an MPI mailbox many-to-one).
    let shapes = [(1usize, 1usize), (2, 2), (4, 4), (8, 8), (4, 1), (1, 4)];
    let items = 12u64;
    for kind in StrategyKind::all() {
        for seed in 0..8u64 {
            for (producers, consumers) in shapes {
                for cap in [1usize, 2, 8] {
                    let actors = producers + consumers;
                    let tag = format!("{kind:?} seed {seed} {producers}p/{consumers}c cap {cap}");
                    let mut strategy = kind.build(seed, actors);
                    let run = explore(producers, consumers, cap, items, &mut *strategy);
                    check_oracle(&run.popped, producers, items)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    assert!(
                        run.max_occupancy <= cap,
                        "{tag}: occupancy {}",
                        run.max_occupancy
                    );
                    // Replay contract.
                    let mut replay = kind.build(seed, actors);
                    let again = explore(producers, consumers, cap, items, &mut *replay);
                    assert_eq!(run, again, "{tag}: run did not replay");
                }
            }
        }
    }
}

#[test]
fn single_lane_round_robin_is_fifo_and_never_fills() {
    let mut s = RoundRobin::new();
    let run = explore(1, 1, 4, 32, &mut s);
    check_oracle(&run.popped, 1, 32).unwrap();
    // producer and consumer alternate, so one item is in flight at most
    assert_eq!(run.max_occupancy, 1);
    assert_eq!(run.full_stalls, 0);
}

#[test]
fn backpressure_shows_as_full_stalls() {
    // Favour the producer (actor 0): it runs alone until the capacity-1
    // lane fills, so it parks on every item but the first.
    let mut s = StealHeavy::new(0);
    let run = explore(1, 1, 1, 16, &mut s);
    check_oracle(&run.popped, 1, 16).unwrap();
    assert_eq!(run.max_occupancy, 1);
    assert_eq!(run.full_stalls, 15, "{run:?}");
}

#[test]
fn a_channel_nobody_sends_on_closes_every_consumer() {
    let mut s = RoundRobin::new();
    let run = explore(2, 3, 4, 0, &mut s);
    assert!(run.popped.is_empty());
    assert_eq!(run.empty_stalls, 0);
}

#[test]
fn oracle_rejects_handmade_corruption() {
    let mut s = RoundRobin::new();
    let good = explore(2, 1, 4, 8, &mut s).popped;
    check_oracle(&good, 2, 8).unwrap();

    let mut lost = good.clone();
    lost.pop();
    assert!(check_oracle(&lost, 2, 8).is_err(), "lost item missed");

    let mut dup = good.clone();
    dup[1] = dup[0];
    assert!(check_oracle(&dup, 2, 8).is_err(), "duplicate missed");

    let mut reordered = good;
    // swap a producer's first two items in receive order
    let idx: Vec<usize> = (0..reordered.len())
        .filter(|&i| reordered[i].0 == 0)
        .collect();
    reordered.swap(idx[0], idx[1]);
    assert!(
        check_oracle(&reordered, 2, 8).is_err(),
        "per-producer reorder missed"
    );
}
