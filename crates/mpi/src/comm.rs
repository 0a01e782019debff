//! The communicator: ranks, typed point-to-point messages, `run`.
//!
//! Every rank owns one unbounded receive mailbox — a
//! [`std::sync::mpsc::channel`] into which every rank holds a `Sender`
//! clone; a rank with nothing to read blocks in `Receiver::recv`. A
//! channel keeps each sender's messages in order, which is the per-peer
//! FIFO selective reception relies on. Sending never blocks (MPI
//! buffered mode), receiving is *selective*:
//! `recv(src, tag)` pulls messages into a pending list until the
//! matching one arrives, so out-of-order traffic between rank pairs
//! with different tags is safe — the property the Game-of-Life variant
//! relies on when it exchanges ghost rows and tile-state metadata
//! separately.
//!
//! Ranks are threads of one process, so a message moves a clone of the
//! value itself, and the receive downcasts it to the type it asks for. A
//! rank that fails posts an abort to every other mailbox, so a peer
//! waiting for it gets an error instead of a hang (`MPI_Abort`).

use ezp_core::error::{Error, Result};
use std::any::{type_name, Any};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Message tag, like MPI's. Use distinct tags for logically distinct
/// streams (ghost rows vs. metadata).
pub type Tag = u32;

/// A value that can travel between ranks.
pub trait Datatype: Clone + Send + 'static {
    /// Bytes an `MPI_Send` of the matching MPI datatype carries.
    fn bytes(&self) -> u64;
}

macro_rules! fixed_size {
    ($($t:ty),*) => {$(
        impl Datatype for $t {
            fn bytes(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        }
    )*};
}

fixed_size!((), bool, u32, u64, usize);

impl Datatype for String {
    fn bytes(&self) -> u64 {
        self.len() as u64
    }
}

impl<T: Datatype> Datatype for Vec<T> {
    fn bytes(&self) -> u64 {
        self.iter().map(T::bytes).sum()
    }
}

impl<A: Datatype, B: Datatype> Datatype for (A, B) {
    fn bytes(&self) -> u64 {
        self.0.bytes() + self.1.bytes()
    }
}

/// A value in flight.
struct Envelope {
    src: usize,
    tag: Tag,
    bytes: u64,
    type_name: &'static str,
    value: Box<dyn Any + Send>,
}

/// What a mailbox holds.
enum Message {
    Data(Envelope),
    /// The rank failed: what its peers wait for will never come.
    Abort(usize),
}

/// Per-rank communication counters, filled in centrally by [`Comm`] so
/// every variant gets them for free. Bytes are [`Datatype::bytes`] of
/// the values (what an `MPI_Send` of the matching datatype carries).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages sent (collectives included).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Barrier entries.
    pub barriers: u64,
    /// Broadcast participations.
    pub broadcasts: u64,
    /// Gather participations.
    pub gathers: u64,
    /// Scatter participations.
    pub scatters: u64,
    /// Reduce/all-reduce participations.
    pub reduces: u64,
}

/// The per-rank communicator handle (an `MPI_COMM_WORLD` member).
pub struct Comm {
    rank: usize,
    size: usize,
    /// `senders[dst]` is this rank's handle on `dst`'s mailbox.
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Received-but-not-yet-requested messages (selective reception).
    pending: RefCell<Vec<Envelope>>,
    /// The failed rank whose abort reached this mailbox, if one did.
    aborted_by: Cell<Option<usize>>,
    /// Communication counters; `RefCell` because a `Comm` is owned by
    /// one rank thread (same argument as `pending`).
    stats: RefCell<CommStats>,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends a clone of `value` to `dst` under `tag`. Never blocks
    /// (buffered mode).
    pub fn send<T: Datatype>(&self, dst: usize, tag: Tag, value: &T) -> Result<()> {
        if dst >= self.size {
            return Err(Error::Mpi(format!(
                "send to rank {dst} out of range (size {})",
                self.size
            )));
        }
        let bytes = value.bytes();
        self.note(|st| {
            st.msgs_sent += 1;
            st.bytes_sent += bytes;
        });
        self.senders[dst]
            .send(Message::Data(Envelope {
                src: self.rank,
                tag,
                bytes,
                type_name: type_name::<T>(),
                value: Box::new(value.clone()),
            }))
            .map_err(|_| Error::Mpi(format!("rank {dst} has terminated")))
    }

    /// Receives the next message from `src` with `tag`, blocking until it
    /// arrives. Other messages received meanwhile are buffered. A message
    /// that holds another type than `T` is an error.
    pub fn recv<T: Datatype>(&self, src: usize, tag: Tag) -> Result<T> {
        let (_, value) = self.recv_match(|m| m.src == src && m.tag == tag)?;
        Ok(value)
    }

    /// Receives the next message with `tag` from any source; returns
    /// `(src, value)`.
    pub fn recv_any<T: Datatype>(&self, tag: Tag) -> Result<(usize, T)> {
        self.recv_match(|m| m.tag == tag)
    }

    fn recv_match<T: Datatype>(&self, matches: impl Fn(&Envelope) -> bool) -> Result<(usize, T)> {
        // check the pending buffer first (preserving arrival order)
        let buffered = self.pending.borrow().iter().position(&matches);
        let m = match buffered {
            Some(pos) => self.pending.borrow_mut().remove(pos),
            None => loop {
                if let Some(failed) = self.aborted_by.get() {
                    return Err(Error::Mpi(format!(
                        "rank {failed} failed, so rank {} aborts (MPI_Abort)",
                        self.rank
                    )));
                }
                // this rank holds a sender to its own mailbox: it never closes
                match self
                    .receiver
                    .recv()
                    .expect("a rank's own mailbox stays open")
                {
                    Message::Data(m) if matches(&m) => break m,
                    Message::Data(m) => self.pending.borrow_mut().push(m),
                    Message::Abort(failed) => self.aborted_by.set(Some(failed)),
                }
            },
        };
        self.note(|st| {
            st.msgs_received += 1;
            st.bytes_received += m.bytes;
        });
        match m.value.downcast::<T>() {
            Ok(value) => Ok((m.src, *value)),
            Err(_) => Err(Error::Mpi(format!(
                "rank {} asked for a {} but the message from rank {} under tag {} holds a {}",
                self.rank,
                type_name::<T>(),
                m.src,
                m.tag,
                m.type_name
            ))),
        }
    }

    /// Counter hook, also for the collectives module.
    pub(crate) fn note(&self, f: impl FnOnce(&mut CommStats)) {
        f(&mut self.stats.borrow_mut());
    }

    /// This rank's communication counters so far.
    pub fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    /// Simultaneous send+receive with the same peer — the deadlock-free
    /// idiom of ghost exchange (`MPI_Sendrecv`). With buffered sends this
    /// is simply a send followed by a receive.
    pub fn sendrecv<T: Datatype, U: Datatype>(
        &self,
        dst: usize,
        send_tag: Tag,
        value: &T,
        src: usize,
        recv_tag: Tag,
    ) -> Result<U> {
        self.send(dst, send_tag, value)?;
        self.recv(src, recv_tag)
    }
}

/// Launches `np` ranks running `f` concurrently and returns their
/// results indexed by rank — the `mpirun -np N easypap ...` equivalent.
/// A rank that returns `Err` or panics aborts the world: `run` returns
/// that rank's error once every rank has stopped.
pub fn run<R, F>(np: usize, f: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(&Comm) -> Result<R> + Sync,
{
    run_with_stats(np, f).map(|(results, _)| results)
}

/// [`run`], also returning each rank's [`CommStats`] (messages, bytes,
/// barriers and per-collective counts) so `--stats` can show the
/// communication side of an MPI variant.
pub fn run_with_stats<R, F>(np: usize, f: F) -> Result<(Vec<R>, Vec<CommStats>)>
where
    R: Send,
    F: Fn(&Comm) -> Result<R> + Sync,
{
    if np == 0 {
        return Err(Error::Mpi("world size must be > 0".into()));
    }
    // One mailbox per rank; every rank gets a clone of every sender.
    // A mailbox's receiver dies with its rank, which is what turns a
    // send to a finished rank into an error.
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..np).map(|_| channel::<Message>()).unzip();
    let comms = inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| Comm {
            rank,
            size: np,
            senders: senders.clone(),
            receiver,
            pending: RefCell::new(Vec::new()),
            aborted_by: Cell::new(None),
            stats: RefCell::new(CommStats::default()),
        });
    let ranks: Vec<(Result<R>, bool, CommStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .map(|comm| {
                let f = &f;
                s.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| f(&comm))).unwrap_or_else(|_| {
                        Err(Error::Mpi(format!("rank {} panicked", comm.rank)))
                    });
                    // a rank that failed on a peer's abort relays nothing:
                    // that abort reached every mailbox already
                    let failed_first = r.is_err() && comm.aborted_by.get().is_none();
                    if failed_first {
                        for (dst, mailbox) in comm.senders.iter().enumerate() {
                            if dst != comm.rank {
                                // a rank that already returned waits for nothing
                                mailbox.send(Message::Abort(comm.rank)).ok();
                            }
                        }
                    }
                    (r, failed_first, comm.stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank's panic is caught inside it"))
            .collect()
    });
    // the first rank that failed on its own names the failure, not a
    // peer that met its abort
    let mut values = Vec::with_capacity(np);
    let mut stats = Vec::with_capacity(np);
    let mut met_abort = None;
    for (value, failed_first, st) in ranks {
        match value {
            Ok(v) => values.push(v),
            Err(e) if failed_first => return Err(e),
            Err(e) => met_abort = met_abort.or(Some(e)),
        }
        stats.push(st);
    }
    match met_abort {
        Some(e) => Err(e),
        None => Ok((values, stats)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_has_correct_ranks() {
        let got = run(4, |comm| {
            assert_eq!(comm.size(), 4);
            Ok(comm.rank())
        })
        .unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_pass() {
        // each rank sends its rank to the next; sum travels the ring
        let got = run(3, |comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 2) % 3;
            comm.send(next, 7, &comm.rank())?;
            let from_prev: usize = comm.recv(prev, 7)?;
            Ok(from_prev)
        })
        .unwrap();
        assert_eq!(got, vec![2, 0, 1]);
    }

    #[test]
    fn selective_reception_by_tag() {
        let got = run(2, |comm| -> Result<(String, String)> {
            if comm.rank() == 0 {
                comm.send(1, 1, &"first".to_string())?;
                comm.send(1, 2, &"second".to_string())?;
                Ok((String::new(), String::new()))
            } else {
                // request tag 2 before tag 1: the tag-1 message must wait
                // in the pending buffer, not be lost
                let b: String = comm.recv(0, 2)?;
                let a: String = comm.recv(0, 1)?;
                Ok((a, b))
            }
        })
        .unwrap();
        assert_eq!(got[1], ("first".to_string(), "second".to_string()));
    }

    #[test]
    fn recv_any_reports_source() {
        let got = run(3, |comm| {
            if comm.rank() == 0 {
                let mut sources = Vec::new();
                for _ in 0..2 {
                    let (src, v): (usize, u64) = comm.recv_any(5)?;
                    assert_eq!(v, src as u64 * 10);
                    sources.push(src);
                }
                sources.sort_unstable();
                Ok(sources)
            } else {
                comm.send(0, 5, &(comm.rank() as u64 * 10))?;
                Ok(vec![])
            }
        })
        .unwrap();
        assert_eq!(got[0], vec![1, 2]);
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        let got = run(2, |comm| {
            let peer = 1 - comm.rank();
            let v: usize = comm.sendrecv(peer, 9, &comm.rank(), peer, 9)?;
            Ok(v)
        })
        .unwrap();
        assert_eq!(got, vec![1, 0]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        run(4, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier()?;
            // after the barrier, every rank must have incremented
            assert_eq!(before.load(Ordering::SeqCst), 4);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn structured_payloads() {
        #[derive(Clone, PartialEq, Debug)]
        struct Ghost {
            row: Vec<u32>,
            steady: bool,
        }
        impl Datatype for Ghost {
            fn bytes(&self) -> u64 {
                self.row.bytes() + self.steady.bytes()
            }
        }
        let got = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(
                    1,
                    3,
                    &Ghost {
                        row: vec![1, 2, 3],
                        steady: false,
                    },
                )?;
                Ok(true)
            } else {
                let g: Ghost = comm.recv(0, 3)?;
                Ok(g.row == vec![1, 2, 3] && !g.steady)
            }
        })
        .unwrap();
        assert!(got[1]);
    }

    #[test]
    fn send_to_bad_rank_errors() {
        let got = run(2, |comm| {
            if comm.rank() == 0 {
                assert!(comm.send(5, 0, &1u32).is_err());
            }
            Ok(())
        });
        assert!(got.is_ok());
    }

    #[test]
    fn send_to_a_rank_that_already_returned_is_an_error_not_a_hang() {
        let got = run(2, |comm| {
            if comm.rank() == 1 {
                return Ok(String::new());
            }
            // rank 1's mailbox dies when its closure returns; keep
            // sending until that shows
            loop {
                if let Err(e) = comm.send(1, 0, &0u32) {
                    return Ok(e.to_string());
                }
                std::thread::yield_now();
            }
        })
        .unwrap();
        assert!(got[0].contains("rank 1 has terminated"), "{}", got[0]);
    }

    #[test]
    fn zero_ranks_rejected() {
        assert!(run(0, |_| Ok(())).is_err());
    }

    #[test]
    fn rank_panic_is_reported_not_hung() {
        let got = run(2, |comm| {
            if comm.rank() == 1 {
                panic!("rank 1 exploded");
            }
            Ok(comm.rank())
        });
        assert!(got.is_err());
    }

    #[test]
    fn comm_stats_count_messages_bytes_and_barriers() {
        let (got, stats) = run_with_stats(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 0, &comm.rank())?;
            let v: usize = comm.recv(peer, 0)?;
            comm.barrier()?;
            Ok(v)
        })
        .unwrap();
        assert_eq!(got, vec![1, 0]);
        for st in &stats {
            // the usize, then the barrier's empty message each way
            // through rank 0
            assert_eq!(st.msgs_sent, 2);
            assert_eq!(st.msgs_received, 2);
            // both ranks ship one 8-byte usize; a barrier carries nothing
            assert_eq!(st.bytes_sent, 8);
            assert_eq!(st.bytes_received, 8);
            assert_eq!(st.barriers, 1);
        }
    }

    #[test]
    fn mailboxes_keep_per_peer_order_and_receive_selectively() {
        // the ring-pass exchange plus selective reception, the two
        // mailbox behaviors the variants lean on
        let (got, stats) = run_with_stats(3, |comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 2) % 3;
            comm.send(next, 2, &(comm.rank() * 10))?;
            comm.send(next, 1, &comm.rank())?;
            // request tag 1 before tag 2: out-of-order pull
            let a: usize = comm.recv(prev, 1)?;
            let b: usize = comm.recv(prev, 2)?;
            Ok((a, b))
        })
        .unwrap();
        assert_eq!(got, vec![(2, 20), (0, 0), (1, 10)]);
        for st in &stats {
            assert_eq!((st.msgs_sent, st.msgs_received), (2, 2));
        }
    }

    #[test]
    fn single_rank_world_works() {
        let got = run(1, |comm| {
            comm.barrier()?;
            comm.send(0, 0, &42u32)?; // self-send
            let v: u32 = comm.recv(0, 0)?;
            Ok(v)
        })
        .unwrap();
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn recv_of_the_wrong_type_names_both_types() {
        let err = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, &7u32)
            } else {
                comm.recv::<String>(0, 4).map(drop)
            }
        })
        .unwrap_err()
        .to_string();
        for part in ["rank 0", "tag 4", "u32", "alloc::string::String"] {
            assert!(err.contains(part), "{part} missing from: {err}");
        }
    }

    /// Runs `world` on a helper thread and returns what it returns; a
    /// world still running after 10 s fails the test instead of hanging it.
    fn within_deadline<T: Send + 'static>(world: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(world()).ok());
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("the world did not return: {e}"))
    }

    /// Rank 1 of 3 fails at once, by `Err` or by a panic, while ranks 0
    /// and 2 wait for it in `recv` or in `barrier` (where rank 0 is the
    /// root waiting for rank 1, and rank 2 waits for the root). Returns
    /// `run`'s error and what rank 0's wait returned.
    fn fail_rank_1(panics: bool, in_barrier: bool) -> (String, String) {
        within_deadline(move || {
            let seen = std::sync::OnceLock::new();
            let err = run(3, |comm| -> Result<()> {
                if comm.rank() == 1 {
                    if panics {
                        panic!("rank 1 exploded");
                    }
                    return Err(Error::Mpi("rank 1's own failure".into()));
                }
                let waited = if in_barrier {
                    comm.barrier()
                } else {
                    comm.recv::<u32>(1, 0).map(drop)
                };
                if comm.rank() == 0 {
                    seen.set(format!("{waited:?}")).ok();
                }
                waited
            })
            .unwrap_err();
            (err.to_string(), seen.into_inner().unwrap_or_default())
        })
    }

    #[test]
    fn a_rank_that_returns_err_aborts_its_waiting_peers() {
        for in_barrier in [false, true] {
            let (err, seen) = fail_rank_1(false, in_barrier);
            assert!(err.contains("rank 1's own failure"), "{err}");
            assert!(seen.contains("rank 1 failed"), "{seen}");
        }
    }

    #[test]
    fn a_rank_that_panics_aborts_its_waiting_peers() {
        for in_barrier in [false, true] {
            let (err, seen) = fail_rank_1(true, in_barrier);
            assert!(err.contains("rank 1 panicked"), "{err}");
            assert!(seen.contains("rank 1 failed"), "{seen}");
        }
    }
}
