//! Tiling-pattern analyzers for the Fig. 8 observations.
//!
//! With `dynamic` scheduling of small tiles on the Mandelbrot kernel,
//! the paper spots two patterns in the Tiling window:
//!
//! * **Pattern 1 — stripes**: "horizontal stripes of the same color
//!   together with a few stripes featuring an alternation of two
//!   colors" where tiles are cheap (one or two threads race through
//!   whole rows while the others are stuck in the expensive area);
//! * **Pattern 2 — cyclic**: "a quasi-perfect cyclic distribution of
//!   colors" where all tiles cost the same (dynamic degenerates into
//!   round-robin).
//!
//! These functions turn those visual observations into numbers, so the
//! Fig. 8 reproduction can *assert* them.

use ezp_core::WorkerId;
use ezp_monitor::TilingSnapshot;

/// Run-length encodes the owner sequence (linear `collapse(2)` order):
/// `(worker, run length)` for every maximal run of computed tiles.
pub fn run_lengths(owners: &[Option<WorkerId>]) -> Vec<(WorkerId, usize)> {
    let mut out: Vec<(WorkerId, usize)> = Vec::new();
    let mut run_open = false;
    for o in owners {
        match o {
            Some(w) => {
                match out.last_mut() {
                    Some((lw, len)) if run_open && lw == w => *len += 1,
                    _ => out.push((*w, 1)),
                }
                run_open = true;
            }
            None => run_open = false, // a hole breaks the current run
        }
    }
    out
}

/// Longest same-worker run.
pub fn max_run_length(owners: &[Option<WorkerId>]) -> usize {
    run_lengths(owners)
        .iter()
        .map(|&(_, l)| l)
        .max()
        .unwrap_or(0)
}

/// Mean same-worker run length.
pub fn mean_run_length(owners: &[Option<WorkerId>]) -> f64 {
    let runs = run_lengths(owners);
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(|&(_, l)| l).sum::<usize>() as f64 / runs.len() as f64
}

/// Fraction of positions `i` with `owners[i + period] == owners[i]`
/// (both computed). 1.0 = perfectly cyclic with that period — the
/// Pattern 2 signature when `period == nb_threads`.
pub fn cyclic_score(owners: &[Option<WorkerId>], period: usize) -> f64 {
    assert!(period > 0, "period must be positive");
    if owners.len() <= period {
        return 0.0;
    }
    let mut matches = 0usize;
    let mut total = 0usize;
    for i in 0..owners.len() - period {
        if let (Some(a), Some(b)) = (owners[i], owners[i + period]) {
            total += 1;
            if a == b {
                matches += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        matches as f64 / total as f64
    }
}

/// Number of grid rows whose computed tiles involve at most
/// `max_workers` distinct workers — the "stripes" count of Pattern 1
/// (`max_workers = 2` matches the paper's "one or two threads").
pub fn striped_rows(snapshot: &TilingSnapshot, max_workers: usize) -> usize {
    let grid = snapshot.grid();
    (0..grid.tiles_y())
        .filter(|&ty| {
            let mut workers: Vec<WorkerId> = (0..grid.tiles_x())
                .filter_map(|tx| snapshot.owner(tx, ty))
                .collect();
            workers.sort_unstable();
            workers.dedup();
            !workers.is_empty() && workers.len() <= max_workers
        })
        .count()
}

/// Number of distinct workers appearing in the snapshot.
pub fn distinct_workers(snapshot: &TilingSnapshot) -> usize {
    let mut workers: Vec<WorkerId> = snapshot.owners().iter().flatten().copied().collect();
    workers.sort_unstable();
    workers.dedup();
    workers.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;
    use ezp_monitor::TileRecord;

    fn snapshot_from_owners(grid: &TileGrid, owners: &[Option<WorkerId>]) -> TilingSnapshot {
        let records: Vec<TileRecord> = owners
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                let t = grid.tile_at(i);
                o.map(|w| TileRecord {
                    iteration: 1,
                    x: t.x,
                    y: t.y,
                    w: t.w,
                    h: t.h,
                    start_ns: i as u64,
                    end_ns: i as u64 + 1,
                    worker: w,
                })
            })
            .collect();
        TilingSnapshot::from_records(grid, records.iter())
    }

    #[test]
    fn run_length_encoding() {
        let owners = [Some(0), Some(0), Some(1), None, Some(1), Some(2)];
        assert_eq!(run_lengths(&owners), vec![(0, 2), (1, 1), (1, 1), (2, 1)]);
        assert_eq!(max_run_length(&owners), 2);
        assert!((mean_run_length(&owners) - 1.25).abs() < 1e-9);
    }

    #[test]
    fn empty_and_hole_only_sequences() {
        assert!(run_lengths(&[]).is_empty());
        assert_eq!(max_run_length(&[None, None]), 0);
        assert_eq!(mean_run_length(&[]), 0.0);
    }

    #[test]
    fn perfect_cycle_scores_one() {
        // 0,1,2,0,1,2,... period 3
        let owners: Vec<Option<WorkerId>> = (0..30).map(|i| Some(i % 3)).collect();
        assert!((cyclic_score(&owners, 3) - 1.0).abs() < 1e-9);
        assert!(cyclic_score(&owners, 2) < 0.5);
    }

    #[test]
    fn stripe_sequence_scores_low_cyclic() {
        // long runs: 0 x10, 1 x10, 2 x10
        let owners: Vec<Option<WorkerId>> = (0..30).map(|i| Some(i / 10)).collect();
        assert_eq!(max_run_length(&owners), 10);
        assert!(cyclic_score(&owners, 3) > 0.5); // within runs, shifts match
                                                 // but the run-length signature separates the two patterns
        let cyclic: Vec<Option<WorkerId>> = (0..30).map(|i| Some(i % 3)).collect();
        assert_eq!(max_run_length(&cyclic), 1);
    }

    #[test]
    fn cyclic_score_degenerate_inputs() {
        let owners = [Some(0usize), Some(1)];
        assert_eq!(cyclic_score(&owners, 5), 0.0);
        assert_eq!(cyclic_score(&[None, None, None], 1), 0.0);
    }

    #[test]
    fn striped_rows_detects_pattern1() {
        let grid = TileGrid::square(40, 10).unwrap(); // 4x4 tiles
                                                      // rows 0-1: single worker each (stripes); rows 2-3: all four
        let owners: Vec<Option<WorkerId>> = vec![
            Some(0),
            Some(0),
            Some(0),
            Some(0), // row 0: stripe
            Some(1),
            Some(2),
            Some(1),
            Some(2), // row 1: two-color stripe
            Some(0),
            Some(1),
            Some(2),
            Some(3), // row 2: mixed
            Some(3),
            Some(2),
            Some(1),
            Some(0), // row 3: mixed
        ];
        let snap = snapshot_from_owners(&grid, &owners);
        assert_eq!(striped_rows(&snap, 1), 1);
        assert_eq!(striped_rows(&snap, 2), 2);
        assert_eq!(distinct_workers(&snap), 4);
    }

    #[test]
    fn striped_rows_ignores_empty_rows() {
        let grid = TileGrid::square(20, 10).unwrap(); // 2x2
        let owners = vec![None, None, Some(1), Some(1)];
        let snap = snapshot_from_owners(&grid, &owners);
        assert_eq!(striped_rows(&snap, 2), 1); // only the computed row counts
    }
}
