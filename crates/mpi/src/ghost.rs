//! Row-block decomposition and ghost-row exchange.
//!
//! The paper's MPI Game of Life splits the image into horizontal blocks
//! (Fig. 13 shows 2 ranks owning half the image each) and exchanges
//! boundary rows ("ghost cells") plus tile-state metadata every
//! iteration. [`BlockRows`] computes the decomposition; [`exchange_rows`]
//! does the two-neighbour exchange with `sendrecv` semantics.

use crate::comm::{Comm, Datatype, Tag};
use ezp_core::error::Result;

/// Tag used by the ghost exchange (distinct directions use tag+0/+1).
const TAG_GHOST_DOWN: Tag = u32::MAX - 10; // data flowing to higher ranks
const TAG_GHOST_UP: Tag = u32::MAX - 11; // data flowing to lower ranks

/// An even horizontal split of `total_rows` rows over `size` ranks
/// (remainder spread over the low ranks, like the scheduler's static
/// blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRows {
    /// Total number of rows decomposed.
    pub total_rows: usize,
    /// World size.
    pub size: usize,
    /// This rank.
    pub rank: usize,
}

impl BlockRows {
    /// Decomposition of `total_rows` rows as seen by `comm`'s rank.
    pub fn new(comm: &Comm, total_rows: usize) -> Self {
        BlockRows {
            total_rows,
            size: comm.size(),
            rank: comm.rank(),
        }
    }

    /// Explicit constructor (for tests and decomposition math).
    pub fn explicit(total_rows: usize, size: usize, rank: usize) -> Self {
        assert!(rank < size, "rank out of range");
        BlockRows {
            total_rows,
            size,
            rank,
        }
    }

    /// The row range `[start, end)` owned by `rank`.
    pub fn range_of(&self, rank: usize) -> (usize, usize) {
        let base = self.total_rows / self.size;
        let rem = self.total_rows % self.size;
        let start = rank * base + rank.min(rem);
        let len = base + usize::from(rank < rem);
        (start, start + len)
    }

    /// This rank's own row range.
    pub fn my_range(&self) -> (usize, usize) {
        self.range_of(self.rank)
    }

    /// Number of rows this rank owns.
    pub fn my_rows(&self) -> usize {
        let (s, e) = self.my_range();
        e - s
    }

    /// The rank owning global row `row`.
    pub fn owner_of(&self, row: usize) -> usize {
        assert!(row < self.total_rows, "row out of range");
        for rank in 0..self.size {
            let (s, e) = self.range_of(rank);
            if (s..e).contains(&row) {
                return rank;
            }
        }
        unreachable!("ranges partition the rows");
    }

    /// Rank above (owning smaller row indices), if any.
    pub fn up_neighbor(&self) -> Option<usize> {
        (self.rank > 0).then(|| self.rank - 1)
    }

    /// Rank below, if any (ranks owning zero rows have no meaningful
    /// neighbours but the exchange handles empty payloads anyway).
    pub fn down_neighbor(&self) -> Option<usize> {
        (self.rank + 1 < self.size).then(|| self.rank + 1)
    }
}

/// Exchanges ghost rows with both vertical neighbours: sends `first_row`
/// up and `last_row` down, returns `(ghost_above, ghost_below)` — the
/// neighbour rows needed to compute this block's boundary. `None` at the
/// world's edges.
pub fn exchange_rows<T>(
    comm: &Comm,
    block: &BlockRows,
    first_row: &T,
    last_row: &T,
) -> Result<(Option<T>, Option<T>)>
where
    T: Datatype,
{
    // send phase (buffered, never blocks)
    if let Some(up) = block.up_neighbor() {
        comm.send(up, TAG_GHOST_UP, first_row)?;
    }
    if let Some(down) = block.down_neighbor() {
        comm.send(down, TAG_GHOST_DOWN, last_row)?;
    }
    // receive phase
    let ghost_above = match block.up_neighbor() {
        Some(up) => Some(comm.recv(up, TAG_GHOST_DOWN)?),
        None => None,
    };
    let ghost_below = match block.down_neighbor() {
        Some(down) => Some(comm.recv(down, TAG_GHOST_UP)?),
        None => None,
    };
    Ok((ghost_above, ghost_below))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    #[test]
    fn ranges_partition_rows() {
        for total in [0usize, 1, 7, 64, 100] {
            for size in 1..6 {
                let mut next = 0;
                let mut sum = 0;
                for rank in 0..size {
                    let b = BlockRows::explicit(total, size, rank);
                    let (s, e) = b.my_range();
                    assert_eq!(s, next);
                    next = e;
                    sum += e - s;
                }
                assert_eq!(sum, total);
            }
        }
    }

    #[test]
    fn owner_of_inverts_ranges() {
        let b = BlockRows::explicit(10, 3, 0);
        for row in 0..10 {
            let owner = b.owner_of(row);
            let (s, e) = b.range_of(owner);
            assert!((s..e).contains(&row));
        }
        assert_eq!(b.owner_of(0), 0);
        assert_eq!(b.owner_of(9), 2);
    }

    #[test]
    fn neighbors_at_edges() {
        let top = BlockRows::explicit(8, 3, 0);
        assert_eq!(top.up_neighbor(), None);
        assert_eq!(top.down_neighbor(), Some(1));
        let mid = BlockRows::explicit(8, 3, 1);
        assert_eq!(mid.up_neighbor(), Some(0));
        assert_eq!(mid.down_neighbor(), Some(2));
        let bottom = BlockRows::explicit(8, 3, 2);
        assert_eq!(bottom.up_neighbor(), Some(1));
        assert_eq!(bottom.down_neighbor(), None);
    }

    #[test]
    fn ghost_exchange_moves_boundary_rows() {
        // each rank's block is filled with its rank id; after exchange,
        // ghosts must carry the neighbour's id
        let got = run(3, |comm| {
            let block = BlockRows::new(comm, 12);
            let my_first = vec![comm.rank() as u32; 4];
            let my_last = vec![comm.rank() as u32 + 100; 4];
            let (above, below) = exchange_rows(comm, &block, &my_first, &my_last)?;
            Ok((above, below))
        })
        .unwrap();
        // rank 0: nothing above, rank 1's first row below
        assert_eq!(got[0].0, None);
        assert_eq!(got[0].1, Some(vec![1, 1, 1, 1]));
        // rank 1: rank 0's last row above, rank 2's first row below
        assert_eq!(got[1].0, Some(vec![100, 100, 100, 100]));
        assert_eq!(got[1].1, Some(vec![2, 2, 2, 2]));
        // rank 2: rank 1's last row above, nothing below
        assert_eq!(got[2].0, Some(vec![101, 101, 101, 101]));
        assert_eq!(got[2].1, None);
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let got = run(1, |comm| {
            let block = BlockRows::new(comm, 8);
            assert_eq!(block.my_rows(), 8);
            exchange_rows(comm, &block, &vec![1u32], &vec![2u32])
        })
        .unwrap();
        assert_eq!(got[0], (None, None));
    }

    #[test]
    fn repeated_exchanges_stay_in_sync() {
        // several iterations of exchange must not cross-talk
        let got = run(2, |comm| {
            let block = BlockRows::new(comm, 8);
            let mut seen = Vec::new();
            for it in 0..5u32 {
                let payload = vec![comm.rank() as u32 * 1000 + it];
                let (above, below) = exchange_rows(comm, &block, &payload, &payload)?;
                seen.push((above, below));
            }
            Ok(seen)
        })
        .unwrap();
        for it in 0..5u32 {
            assert_eq!(got[0][it as usize].1, Some(vec![1000 + it]));
            assert_eq!(got[1][it as usize].0, Some(vec![it]));
        }
    }
}
