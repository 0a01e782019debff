//! The one lowest-clock-first loop both simulators run on: the lowest
//! virtual clock acts next, ties broken by rank, so a run is a pure
//! function of its inputs. An action calls the production scheduler,
//! `Dispenser::next` or `GraphRun::{take, complete}`
//! ([`TaskGraph::replay`](crate::TaskGraph::replay)). Unlike `vexec`, it
//! searches no interleavings: it models timing only.

// No lock type, hash-seeded collection or wall clock outside tests:
// the list is `clippy.toml` (docs/static-analysis.md).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use ezp_core::WorkerId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a worker does after one action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Busy until this virtual time, when it acts again.
    BusyUntil(u64),
    /// Acts again at the next completion: the next action of a worker
    /// that was busy.
    Park,
    /// Leaves the run.
    Leave,
}

/// Runs `workers` virtual workers from `start_ns`, calling `act(rank,
/// now)` for the lowest clock until every worker left, and returns the
/// time of the last action. Panics when a worker is left parked.
pub fn run(workers: usize, start_ns: u64, mut act: impl FnMut(WorkerId, u64) -> Next) -> u64 {
    // (clock, rank, whether this action ends a busy spell)
    let mut clocks = BinaryHeap::from_iter((0..workers).map(|r| Reverse((start_ns, r, false))));
    let mut parked = Vec::new();
    let mut now = start_ns;
    while let Some(Reverse((t, rank, completes))) = clocks.pop() {
        now = t;
        if completes {
            clocks.extend(parked.drain(..).map(|r| Reverse((t, r, false))));
        }
        match act(rank, t) {
            Next::BusyUntil(until) => clocks.push(Reverse((until, rank, true))),
            Next::Park => parked.push(rank),
            Next::Leave => {}
        }
    }
    assert!(parked.is_empty(), "parked with nobody busy: {parked:?}");
    now
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_clock_acts_first_and_ties_break_by_rank() {
        let mut seen = Vec::new();
        let mut left = [2, 1, 2];
        let end = run(3, 5, |rank, now| {
            seen.push((now, rank));
            if left[rank] == 0 {
                return Next::Leave;
            }
            left[rank] -= 1;
            Next::BusyUntil(now + 10 * (rank as u64 + 1))
        });
        assert_eq!(
            seen,
            [
                (5, 0),
                (5, 1),
                (5, 2),
                (15, 0),
                (25, 0),
                (25, 1),
                (35, 2),
                (65, 2)
            ]
        );
        assert_eq!(end, 65);
    }

    #[test]
    fn a_parked_worker_acts_again_at_the_next_completion() {
        let mut seen = Vec::new();
        let mut parked_once = false;
        run(2, 0, |rank, now| {
            seen.push((now, rank));
            match (rank, now) {
                (0, 0) => Next::BusyUntil(7),
                (1, 0) if !parked_once => {
                    parked_once = true;
                    Next::Park
                }
                _ => Next::Leave,
            }
        });
        assert_eq!(seen, [(0, 0), (0, 1), (7, 0), (7, 1)]);
    }

    #[test]
    #[should_panic(expected = "parked with nobody busy")]
    fn a_park_nobody_can_end_is_refused() {
        run(1, 0, |_, _| Next::Park);
    }

    #[test]
    fn no_workers_end_at_the_start() {
        assert_eq!(run(0, 42, |_, _| Next::Leave), 42);
    }
}
