//! Collective operations built on point-to-point messages.
//!
//! Implemented the simple, star-topology way (root-centric): the worlds
//! simulated here are small (`mpirun -np 2` in the paper), so asymptotic
//! tree optimizations would be noise. Each collective uses a reserved
//! high tag so user traffic on other tags is unaffected. The barrier is
//! one of them, so a rank blocks only in a receive, where a failed
//! peer's abort reaches it.

use crate::comm::{Comm, Datatype, Tag};
use ezp_core::error::Result;

/// Tags reserved by the collectives (top of the tag space).
const TAG_BCAST: Tag = u32::MAX - 1;
const TAG_GATHER: Tag = u32::MAX - 2;
const TAG_REDUCE: Tag = u32::MAX - 3;
const TAG_BARRIER: Tag = u32::MAX - 4;
const TAG_SCATTER: Tag = u32::MAX - 5;

impl Comm {
    /// Synchronizes all ranks (`MPI_Barrier`): every rank checks in with
    /// rank 0, which lets them all go once the last has.
    pub fn barrier(&self) -> Result<()> {
        self.note(|s| s.barriers += 1);
        if self.rank() == 0 {
            (1..self.size()).try_for_each(|src| self.recv(src, TAG_BARRIER))?;
            (1..self.size()).try_for_each(|dst| self.send(dst, TAG_BARRIER, &()))
        } else {
            self.send(0, TAG_BARRIER, &())?;
            self.recv(0, TAG_BARRIER)
        }
    }
}

/// Broadcasts `value` from `root` to every rank; each rank returns the
/// broadcast value (`MPI_Bcast`).
pub fn broadcast<T: Datatype>(comm: &Comm, root: usize, value: Option<T>) -> Result<T> {
    comm.note(|s| s.broadcasts += 1);
    if comm.rank() == root {
        let v = value.expect("root must provide the broadcast value");
        for dst in 0..comm.size() {
            if dst != root {
                comm.send(dst, TAG_BCAST, &v)?;
            }
        }
        Ok(v)
    } else {
        comm.recv(root, TAG_BCAST)
    }
}

/// Gathers one value per rank at `root` (`MPI_Gather`); returns
/// `Some(values)` (indexed by rank) at root, `None` elsewhere.
pub fn gather<T: Datatype>(comm: &Comm, root: usize, value: &T) -> Result<Option<Vec<T>>> {
    comm.note(|s| s.gathers += 1);
    if comm.rank() == root {
        // receive from each rank *by source*: taking "any" message here
        // could steal a later collective's payload from a fast rank
        let mut out: Vec<Option<T>> = (0..comm.size()).map(|_| None).collect();
        out[root] = Some(value.clone());
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = Some(comm.recv(src, TAG_GATHER)?);
            }
        }
        Ok(Some(out.into_iter().map(|v| v.unwrap()).collect()))
    } else {
        comm.send(root, TAG_GATHER, value)?;
        Ok(None)
    }
}

/// Scatters one value per rank from `root` (`MPI_Scatter`): rank `i`
/// receives `values[i]`. Only the root provides `values`.
pub fn scatter<T: Datatype>(comm: &Comm, root: usize, values: Option<Vec<T>>) -> Result<T> {
    comm.note(|s| s.scatters += 1);
    if comm.rank() == root {
        let values = values.expect("root must provide the scatter values");
        assert_eq!(values.len(), comm.size(), "one value per rank");
        let mut own = None;
        for (dst, v) in values.into_iter().enumerate() {
            if dst == root {
                own = Some(v);
            } else {
                comm.send(dst, TAG_SCATTER, &v)?;
            }
        }
        Ok(own.expect("root receives its own slice"))
    } else {
        comm.recv(root, TAG_SCATTER)
    }
}

/// Root-only reduce (`MPI_Reduce`): returns `Some(reduction)` at `root`,
/// `None` elsewhere.
pub fn reduce<T, F>(comm: &Comm, root: usize, value: T, combine: F) -> Result<Option<T>>
where
    T: Datatype,
    F: Fn(T, T) -> T,
{
    comm.note(|s| s.reduces += 1);
    if comm.rank() == root {
        // per-source receives keep successive reduce calls in lockstep
        // (non-root ranks do not block after sending)
        let mut acc = value;
        for src in 0..comm.size() {
            if src != root {
                let v: T = comm.recv(src, TAG_REDUCE)?;
                acc = combine(acc, v);
            }
        }
        Ok(Some(acc))
    } else {
        comm.send(root, TAG_REDUCE, &value)?;
        Ok(None)
    }
}

/// All-reduce with a user-supplied associative+commutative combiner
/// (`MPI_Allreduce`): every rank returns the reduction of all
/// contributions. Root-gather + broadcast.
pub fn allreduce<T, F>(comm: &Comm, value: T, combine: F) -> Result<T>
where
    T: Datatype,
    F: Fn(T, T) -> T,
{
    comm.note(|s| s.reduces += 1);
    const ROOT: usize = 0;
    if comm.rank() == ROOT {
        let mut acc = value;
        for src in 1..comm.size() {
            let v: T = comm.recv(src, TAG_REDUCE)?;
            acc = combine(acc, v);
        }
        broadcast(comm, ROOT, Some(acc))
    } else {
        comm.send(ROOT, TAG_REDUCE, &value)?;
        broadcast(comm, ROOT, None)
    }
}

/// Logical-AND all-reduce over booleans — the "is the whole simulation
/// in a steady state?" question of the lazy Game of Life.
pub fn allreduce_and(comm: &Comm, value: bool) -> Result<bool> {
    allreduce(comm, value, |a, b| a && b)
}

/// Sum all-reduce over `u64` counters (e.g. total live cells).
pub fn allreduce_sum(comm: &Comm, value: u64) -> Result<u64> {
    allreduce(comm, value, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    #[test]
    fn broadcast_reaches_everyone() {
        let got = run(4, |comm| {
            let v = if comm.rank() == 2 {
                broadcast(comm, 2, Some("hello".to_string()))?
            } else {
                broadcast::<String>(comm, 2, None)?
            };
            Ok(v)
        })
        .unwrap();
        assert!(got.iter().all(|v| v == "hello"));
    }

    #[test]
    fn gather_collects_by_rank() {
        let got = run(3, |comm| gather(comm, 0, &(comm.rank() * 10))).unwrap();
        assert_eq!(got[0], Some(vec![0, 10, 20]));
        assert_eq!(got[1], None);
        assert_eq!(got[2], None);
    }

    #[test]
    fn scatter_delivers_per_rank_values() {
        let got = run(3, |comm| {
            let v = if comm.rank() == 1 {
                scatter(comm, 1, Some(vec![10u32, 20, 30]))?
            } else {
                scatter::<u32>(comm, 1, None)?
            };
            Ok(v)
        })
        .unwrap();
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn reduce_collects_at_root_only() {
        let got = run(4, |comm| reduce(comm, 2, comm.rank() as u64, |a, b| a + b)).unwrap();
        assert_eq!(got[2], Some(6));
        assert_eq!(got[0], None);
        assert_eq!(got[1], None);
        assert_eq!(got[3], None);
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let got = run(3, |comm| {
            let mine: usize = if comm.rank() == 0 {
                scatter(comm, 0, Some(vec![100, 200, 300]))?
            } else {
                scatter(comm, 0, None)?
            };
            gather(comm, 0, &(mine + 1))
        })
        .unwrap();
        assert_eq!(got[0], Some(vec![101, 201, 301]));
    }

    #[test]
    fn allreduce_sum_and_and() {
        let got = run(4, |comm| {
            let sum = allreduce_sum(comm, comm.rank() as u64 + 1)?;
            let all_even = allreduce_and(comm, comm.rank() % 2 == 0)?;
            let none_huge = allreduce_and(comm, comm.rank() < 10)?;
            Ok((sum, all_even, none_huge))
        })
        .unwrap();
        for &(sum, all_even, none_huge) in &got {
            assert_eq!(sum, 10);
            assert!(!all_even);
            assert!(none_huge);
        }
    }

    #[test]
    fn allreduce_max() {
        let got = run(3, |comm| {
            allreduce(comm, comm.rank() as u64 * 7, |a, b| a.max(b))
        })
        .unwrap();
        assert!(got.iter().all(|&v| v == 14));
    }

    #[test]
    fn collectives_compose_with_user_traffic() {
        // user messages on tag 0 interleaved with collectives must not mix
        let got = run(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 0, &comm.rank())?;
            let sum = allreduce_sum(comm, 1)?;
            let user: usize = comm.recv(peer, 0)?;
            Ok((sum, user))
        })
        .unwrap();
        assert_eq!(got[0], (2, 1));
        assert_eq!(got[1], (2, 0));
    }

    #[test]
    fn back_to_back_collectives_stay_in_lockstep() {
        // non-root ranks race ahead between rounds; per-source receives
        // must keep each round's values together
        let got = run(3, |comm| {
            let mut sums = Vec::new();
            for round in 0..20u64 {
                let s = reduce(comm, 0, comm.rank() as u64 + round * 100, |a, b| a + b)?;
                let g = gather(comm, 0, &(comm.rank() as u64 * 1000 + round))?;
                if comm.rank() == 0 {
                    sums.push((s.unwrap(), g.unwrap()));
                }
            }
            Ok(sums)
        })
        .unwrap();
        for (round, (s, g)) in got[0].iter().enumerate() {
            let round = round as u64;
            assert_eq!(*s, 3 * round * 100 + 3, "reduce round {round} mixed");
            assert_eq!(
                g,
                &vec![round, 1000 + round, 2000 + round],
                "gather round {round} mixed"
            );
        }
    }

    #[test]
    fn collectives_are_counted_per_rank() {
        let (_, stats) = crate::comm::run_with_stats(3, |comm| {
            broadcast(comm, 0, (comm.rank() == 0).then_some(1u32))?;
            gather(comm, 0, &comm.rank())?;
            let v = if comm.rank() == 0 {
                scatter(comm, 0, Some(vec![1u32, 2, 3]))?
            } else {
                scatter::<u32>(comm, 0, None)?
            };
            allreduce_sum(comm, v as u64)?;
            Ok(())
        })
        .unwrap();
        for st in &stats {
            // allreduce = reduce + an internal broadcast
            assert_eq!(st.broadcasts, 2);
            assert_eq!(st.gathers, 1);
            assert_eq!(st.scatters, 1);
            assert_eq!(st.reduces, 1);
        }
    }

    #[test]
    fn single_rank_collectives() {
        let got = run(1, |comm| {
            let b = broadcast(comm, 0, Some(5u32))?;
            let g = gather(comm, 0, &b)?;
            let s = allreduce_sum(comm, 3)?;
            Ok((b, g, s))
        })
        .unwrap();
        assert_eq!(got[0], (5, Some(vec![5]), 3));
    }
}
