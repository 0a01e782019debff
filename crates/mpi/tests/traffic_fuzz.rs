//! Randomized message-traffic fuzzing of the MPI simulation.
//!
//! Selective reception is the subtle part of the communicator: messages
//! requested out of arrival order must be buffered, never lost or
//! duplicated. These property tests throw random traffic patterns at a
//! world and assert exact delivery, and that the world's byte counters
//! agree with what was sent.

use ezp_mpi::{collective, run_with_stats, CommStats, Datatype};
use ezp_testkit::ezp_proptest;
use ezp_testkit::prop::any_u64;
use ezp_testkit::Rng;

ezp_proptest! {
    #![cases(16)]

    /// Every rank sends a random multiset of tagged messages to every
    /// other rank; receivers request them grouped by (src, tag) in a
    /// *different* random order. All payloads must arrive exactly once,
    /// and the world receives the bytes it sent.
    fn random_traffic_delivers_exactly_once(
        np in 2usize..5,
        msgs_per_pair in 1usize..5,
        tags in 1u32..4,
        seed in any_u64(),
    ) {
        let (results, stats) = run_with_stats(np, |comm| {
            let me = comm.rank();
            // send phase: to each peer, msgs_per_pair messages per tag,
            // the k-th carrying k + 1 copies of the sender's rank
            let mut sent_bytes = 0;
            for dst in 0..comm.size() {
                if dst == me {
                    continue;
                }
                for tag in 0..tags {
                    for k in 0..msgs_per_pair {
                        let msg = (tag, vec![me as u64; k + 1]);
                        sent_bytes += msg.bytes();
                        comm.send(dst, tag, &msg)?;
                    }
                }
            }
            // receive phase: iterate (src, tag) pairs in a rank-seeded
            // shuffled order; within a pair, messages arrive FIFO
            let mut pairs: Vec<(usize, u32)> = (0..comm.size())
                .filter(|&s| s != me)
                .flat_map(|s| (0..tags).map(move |t| (s, t)))
                .collect();
            let mut rng = Rng::seed(seed ^ me as u64);
            rng.shuffle(&mut pairs);
            let mut received = 0;
            for (src, tag) in pairs {
                for k in 0..msgs_per_pair {
                    let (t, words): (u32, Vec<u64>) = comm.recv(src, tag)?;
                    let got = (words[0] as usize, t, words.len() - 1);
                    assert_eq!(got, (src, tag, k), "FIFO order within (src, tag)");
                    received += 1;
                }
            }
            Ok((received, sent_bytes))
        })
        .unwrap();
        let expected = (np - 1) * msgs_per_pair * tags as usize;
        assert!(results.iter().all(|&(n, _)| n == expected));
        let sent: u64 = results.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(world_bytes(&stats), (sent, sent));
    }

    /// Interleaving point-to-point chatter with collectives must never
    /// cross-contaminate either stream.
    fn collectives_and_p2p_interleave_safely(
        np in 2usize..5,
        rounds in 1usize..6,
    ) {
        let (results, stats) = run_with_stats(np, |comm| {
            let me = comm.rank();
            let next = (me + 1) % comm.size();
            let prev = (me + comm.size() - 1) % comm.size();
            let mut acc = Vec::new();
            for round in 0..rounds as u64 {
                comm.send(next, 7, &(me as u64 * 1000 + round))?;
                let sum = collective::allreduce_sum(comm, round + 1)?;
                let from_prev: u64 = comm.recv(prev, 7)?;
                assert_eq!(from_prev, prev as u64 * 1000 + round);
                acc.push(sum);
            }
            Ok(acc)
        })
        .unwrap();
        for r in &results {
            for (round, &sum) in r.iter().enumerate() {
                assert_eq!(sum, (round as u64 + 1) * np as u64);
            }
        }
        // per round: one u64 to the next rank, one to the root and one
        // back from it per other rank
        let messages = (np + 2 * (np - 1)) as u64 * rounds as u64;
        assert_eq!(world_bytes(&stats), (8 * messages, 8 * messages));
    }
}

/// The world's `(bytes_sent, bytes_received)`.
fn world_bytes(stats: &[CommStats]) -> (u64, u64) {
    stats.iter().fold((0, 0), |(sent, received), st| {
        (sent + st.bytes_sent, received + st.bytes_received)
    })
}
