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

use ezp_core::error::{Error, Result};
use ezp_core::json::{FromJson, Json, ToJson};
use std::cell::RefCell;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// Message tag, like MPI's. Use distinct tags for logically distinct
/// streams (ghost rows vs. metadata).
pub type Tag = u32;

/// Wildcard source for [`Comm::recv_any`].
pub const ANY_SOURCE: usize = usize::MAX;

/// A message in flight.
#[derive(Debug)]
struct Message {
    src: usize,
    tag: Tag,
    payload: Vec<u8>,
}

/// Per-rank communication counters, filled in centrally by [`Comm`] so
/// every variant gets them for free. Bytes are serialized-payload bytes
/// (what would travel the wire in a real MPI).
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
    pending: RefCell<Vec<Message>>,
    barrier: Arc<Barrier>,
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

    /// Sends `value` to `dst` under `tag`. Never blocks (buffered mode).
    pub fn send<T: ToJson>(&self, dst: usize, tag: Tag, value: &T) -> Result<()> {
        if dst >= self.size {
            return Err(Error::Mpi(format!(
                "send to rank {dst} out of range (size {})",
                self.size
            )));
        }
        let payload = value.to_json().dump().into_bytes();
        {
            let mut st = self.stats.borrow_mut();
            st.msgs_sent += 1;
            st.bytes_sent += payload.len() as u64;
        }
        self.senders[dst]
            .send(Message {
                src: self.rank,
                tag,
                payload,
            })
            .map_err(|_| Error::Mpi(format!("rank {dst} has terminated")))
    }

    /// Receives the next message from `src` with `tag`, blocking until it
    /// arrives. Other messages received meanwhile are buffered.
    pub fn recv<T: FromJson>(&self, src: usize, tag: Tag) -> Result<T> {
        let (_, value) = self.recv_match(|m| m.src == src && m.tag == tag)?;
        Ok(value)
    }

    /// Receives the next message with `tag` from any source; returns
    /// `(src, value)`.
    pub fn recv_any<T: FromJson>(&self, tag: Tag) -> Result<(usize, T)> {
        self.recv_match(|m| m.tag == tag)
    }

    fn recv_match<T: FromJson>(&self, matches: impl Fn(&Message) -> bool) -> Result<(usize, T)> {
        // check the pending buffer first (preserving arrival order)
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(&matches) {
                let m = pending.remove(pos);
                self.note_received(&m);
                return decode(m);
            }
        }
        loop {
            let m = self
                .receiver
                .recv()
                .map_err(|_| Error::Mpi("world has shut down".into()))?;
            if matches(&m) {
                self.note_received(&m);
                return decode(m);
            }
            self.pending.borrow_mut().push(m);
        }
    }

    fn note_received(&self, m: &Message) {
        let mut st = self.stats.borrow_mut();
        st.msgs_received += 1;
        st.bytes_received += m.payload.len() as u64;
    }

    /// Counter hook for the collectives module.
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
    pub fn sendrecv<T: ToJson, U: FromJson>(
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

    /// Synchronizes all ranks (`MPI_Barrier`).
    pub fn barrier(&self) {
        self.stats.borrow_mut().barriers += 1;
        self.barrier.wait();
    }
}

fn decode<T: FromJson>(m: Message) -> Result<(usize, T)> {
    let value = std::str::from_utf8(&m.payload)
        .map_err(|e| {
            Error::Mpi(format!(
                "payload is not UTF-8 (src {}, tag {}): {e}",
                m.src, m.tag
            ))
        })
        .and_then(|text| {
            Json::parse(text)
                .and_then(|v| T::from_json(&v))
                .map_err(|e| {
                    Error::Mpi(format!(
                        "deserialization failed (src {}, tag {}): {e}",
                        m.src, m.tag
                    ))
                })
        })?;
    Ok((m.src, value))
}

/// Launches `np` ranks running `f` concurrently and returns their
/// results indexed by rank — the `mpirun -np N easypap ...` equivalent.
///
/// # Panics
///
/// Panics if any rank panics (after all ranks have been joined).
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
    let barrier = Arc::new(Barrier::new(np));
    let comms: Vec<Comm> = inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| Comm {
            rank,
            size: np,
            senders: senders.clone(),
            receiver,
            pending: RefCell::new(Vec::new()),
            barrier: barrier.clone(),
            stats: RefCell::new(CommStats::default()),
        })
        .collect();

    let mut results: Vec<Option<(Result<R>, CommStats)>> = Vec::new();
    for _ in 0..np {
        results.push(None);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = &f;
                s.spawn(move || {
                    let r = f(&comm);
                    (r, comm.stats())
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results[rank] = Some(r),
                Err(_) => {
                    results[rank] = Some((
                        Err(Error::Mpi(format!("rank {rank} panicked"))),
                        CommStats::default(),
                    ))
                }
            }
        }
    });
    let mut values = Vec::with_capacity(np);
    let mut stats = Vec::with_capacity(np);
    for r in results {
        let (value, st) = r.expect("every rank joined");
        values.push(value?);
        stats.push(st);
    }
    Ok((values, stats))
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
            comm.barrier();
            // after the barrier, every rank must have incremented
            assert_eq!(before.load(Ordering::SeqCst), 4);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn structured_payloads() {
        #[derive(PartialEq, Debug)]
        struct Ghost {
            row: Vec<u32>,
            steady: bool,
        }
        impl ToJson for Ghost {
            fn to_json(&self) -> Json {
                Json::obj([
                    ("row", self.row.to_json()),
                    ("steady", self.steady.to_json()),
                ])
            }
        }
        impl FromJson for Ghost {
            fn from_json(v: &Json) -> Result<Ghost> {
                Ok(Ghost {
                    row: v.field("row")?,
                    steady: v.field("steady")?,
                })
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
            comm.barrier();
            Ok(v)
        })
        .unwrap();
        assert_eq!(got, vec![1, 0]);
        for st in &stats {
            assert_eq!(st.msgs_sent, 1);
            assert_eq!(st.msgs_received, 1);
            // both ranks ship a 1-byte JSON number ("0" / "1")
            assert_eq!(st.bytes_sent, 1);
            assert_eq!(st.bytes_received, 1);
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
            comm.barrier();
            comm.send(0, 0, &42u32)?; // self-send
            let v: u32 = comm.recv(0, 0)?;
            Ok(v)
        })
        .unwrap();
        assert_eq!(got, vec![42]);
    }
}
