//! `parallel for` helpers: scheduled loops over ranges and tile grids.
//!
//! These are the Rust spellings of the paper's Fig. 2:
//!
//! ```c
//! #pragma omp for collapse(2) schedule(static)
//! for (int y = 0; y < DIM; y += TILE_SIZE)
//!   for (int x = 0; x < DIM; x += TILE_SIZE)
//!     do_tile (x, y, TILE_SIZE, TILE_SIZE, omp_get_thread_num ());
//! ```
//!
//! becomes [`parallel_for_tiles`], which linearizes the grid
//! (`collapse(2)`), carves it up with the requested [`Schedule`] and
//! reports every tile to the probe — the instrumentation EASYPAP asks
//! students to insert by hand: stamped in batches for a probe that
//! takes stamps (the monitor), else bracketed by `start_tile`/`end_tile`.

use crate::dispenser::Dispenser;
use crate::img_cell::{ImgCell, TileWriter};
use crate::pool::WorkerPool;
use ezp_core::kernel::{IdleCause, NullProbe, Probe, RuntimeEvent, TileStamp};
use ezp_core::time::now_ns;
use ezp_core::{Img2D, Schedule, Tile, TileGrid, WorkerId};

/// Most tiles [`parallel_for_tiles`] stamps per `tiles_done` call: a
/// 4 KiB array per rank, and how far a live report can lag per worker.
const TILE_STAMP_BATCH: usize = 64;

/// Runs `f(i, rank)` for every `i in 0..n`, scheduled by `schedule`
/// over the pool's workers (`#pragma omp for schedule(...)`).
pub fn parallel_for_range(
    pool: &mut WorkerPool,
    n: usize,
    schedule: Schedule,
    f: impl Fn(usize, WorkerId) + Sync,
) {
    parallel_for_range_probed(pool, n, schedule, &NullProbe, f);
}

/// [`parallel_for_range`] with a probe receiving the scheduler's
/// [`RuntimeEvent`]s (chunks dispensed, idle time, steals). The clock
/// reads feeding `IdleNs` only happen when the probe asks for events,
/// so passing [`NullProbe`] costs one branch per chunk.
pub fn parallel_for_range_probed(
    pool: &mut WorkerPool,
    n: usize,
    schedule: Schedule,
    probe: &dyn Probe,
    f: impl Fn(usize, WorkerId) + Sync,
) {
    let f = &f;
    run_chunks(pool, n, schedule, probe, |rank| {
        move |start, len| (start..start + len).for_each(|i| f(i, rank))
    });
}

/// Runs `f(tile, rank)` for every tile of `grid` (`collapse(2)` order),
/// scheduled by `schedule`, reporting each tile to the probe and
/// [`RuntimeEvent`]s to probes that want them. A stamped tile *i* ends
/// on the clock read tile *i+1* starts on; the clock is read afresh
/// after each `tiles_done` call and at each chunk, so neither the probe
/// nor the dispenser lands inside a tile.
pub fn parallel_for_tiles(
    pool: &mut WorkerPool,
    grid: &TileGrid,
    schedule: Schedule,
    probe: &dyn Probe,
    f: impl Fn(Tile, WorkerId) + Sync,
) {
    let f = &f;
    if !probe.wants_tile_stamps() {
        run_chunks(pool, grid.len(), schedule, probe, |rank| {
            move |start, len| {
                for tile in grid.chunk(start, len) {
                    probe.start_tile(rank);
                    f(tile, rank);
                    probe.end_tile(tile.x, tile.y, tile.w, tile.h, rank);
                }
            }
        });
        return;
    }
    run_chunks(pool, grid.len(), schedule, probe, |rank| {
        let mut batch = [TileStamp::default(); TILE_STAMP_BATCH];
        move |start, len| {
            for at in (start..start + len).step_by(TILE_STAMP_BATCH) {
                let n = TILE_STAMP_BATCH.min(start + len - at);
                let mut start_ns = now_ns();
                for (stamp, tile) in batch[..n].iter_mut().zip(grid.chunk(at, n)) {
                    f(tile, rank);
                    let end_ns = now_ns();
                    *stamp = TileStamp { tile, start_ns, end_ns };
                    start_ns = end_ns;
                }
                probe.tiles_done(rank, &batch[..n]);
            }
        }
    });
}

/// The loop both helpers run: every rank builds its chunk body with
/// `rank_body(rank)`, then takes chunks `(start, len)` of `0..n` from
/// one [`Dispenser`] and runs the body on each until the dispenser is
/// exhausted, reporting each wait to the probe when it wants runtime
/// events.
fn run_chunks<B: FnMut(usize, usize)>(
    pool: &mut WorkerPool,
    n: usize,
    schedule: Schedule,
    probe: &dyn Probe,
    rank_body: impl Fn(WorkerId) -> B + Sync,
) {
    if n == 0 {
        // An empty range is a no-op: dispatching a region anyway would
        // bump `regions_run` and emit per-worker barrier events for a
        // loop that never existed.
        return;
    }
    let disp = Dispenser::new(schedule, n, pool.width());
    let timed = probe.wants_runtime_events();
    run_region_probed(pool, probe, timed, |rank| {
        let mut body = rank_body(rank);
        loop {
            let t0 = if timed { now_ns() } else { 0 };
            let Some((start, len)) = disp.next(rank) else {
                if timed {
                    report_loop_end(probe, &disp, rank, t0);
                }
                break;
            };
            if timed {
                report_chunk(probe, rank, t0, len);
            }
            body(start, len);
        }
    });
}

/// Runs one pool region and, when `timed`, reports the time the pool's
/// epoch protocol spent parked for it as one `pool_park` idle slice
/// (attributed to rank 0: the pool's tally is global, not per-worker).
/// Shared by the probed loop helpers and the task-graph executor.
pub(crate) fn run_region_probed(
    pool: &mut WorkerPool,
    probe: &dyn Probe,
    timed: bool,
    f: impl Fn(WorkerId) + Sync,
) {
    let before = timed.then(|| pool.park_ns());
    pool.run(f);
    if let Some(before) = before {
        let park_ns = pool.park_ns().saturating_sub(before);
        if park_ns > 0 {
            probe.runtime_event(
                0,
                RuntimeEvent::IdleNs {
                    ns: park_ns,
                    cause: IdleCause::PoolPark,
                },
            );
        }
    }
}

/// The wait for the chunk ended in work: report it plus the dispense.
/// The wait is the dispenser's steal/contention path, so the idle slice
/// is attributed to `cause="steal"`.
fn report_chunk(probe: &dyn Probe, rank: WorkerId, t0: u64, len: usize) {
    probe.runtime_event(
        rank,
        RuntimeEvent::IdleNs {
            ns: now_ns().saturating_sub(t0),
            cause: IdleCause::Steal,
        },
    );
    probe.runtime_event(rank, RuntimeEvent::ChunkDispensed { len });
}

/// The wait ended in exhaustion: the rank hits the loop-end barrier,
/// and its steal count for the loop is final, so the rank reports it.
fn report_loop_end(probe: &dyn Probe, disp: &Dispenser, rank: WorkerId, t0: u64) {
    probe.runtime_event(
        rank,
        RuntimeEvent::IdleNs {
            ns: now_ns().saturating_sub(t0),
            cause: IdleCause::Barrier,
        },
    );
    let (attempted, succeeded) = disp.steals(rank);
    if attempted > 0 {
        probe.runtime_event(rank, RuntimeEvent::Steals { attempted, succeeded });
    }
}

/// Tile-parallel write access to an image: `f` gets a bounds-checked
/// [`TileWriter`] for its tile. This is the full `do_tile` idiom — the
/// common body of `mandel`-style kernels that paint the current image in
/// place.
pub fn parallel_for_tiles_img<T: Copy + Send + Sync>(
    pool: &mut WorkerPool,
    grid: &TileGrid,
    schedule: Schedule,
    probe: &dyn Probe,
    img: &mut Img2D<T>,
    f: impl Fn(&TileWriter<'_, '_, T>, WorkerId) + Sync,
) {
    let cell = ImgCell::new(img);
    parallel_for_tiles(pool, grid, schedule, probe, |tile, rank| {
        let writer = cell.tile_writer(tile);
        f(&writer, rank);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::kernel::NullProbe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_covers_all_indices_under_every_schedule() {
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(2),
            Schedule::Guided(1),
            Schedule::NonmonotonicDynamic(1),
        ] {
            let mut pool = WorkerPool::new(4);
            let n = 333;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_range(&mut pool, n, sched, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?} missed or duplicated iterations"
            );
        }
    }

    #[test]
    fn tiles_get_valid_ranks() {
        let mut pool = WorkerPool::new(3);
        let grid = TileGrid::square(32, 8).unwrap();
        let bad_ranks = AtomicUsize::new(0);
        parallel_for_tiles(&mut pool, &grid, Schedule::Dynamic(1), &NullProbe, |_, rank| {
            if rank >= 3 {
                bad_ranks.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(bad_ranks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn probe_sees_one_bracket_per_tile() {
        struct Counter {
            starts: AtomicUsize,
            ends: AtomicUsize,
            pixels: AtomicUsize,
        }
        impl Probe for Counter {
            fn start_tile(&self, _: WorkerId) {
                self.starts.fetch_add(1, Ordering::Relaxed);
            }
            fn end_tile(&self, _: usize, _: usize, w: usize, h: usize, _: WorkerId) {
                self.ends.fetch_add(1, Ordering::Relaxed);
                self.pixels.fetch_add(w * h, Ordering::Relaxed);
            }
            fn tiles_done(&self, _: WorkerId, _: &[TileStamp]) {
                panic!("a probe that does not ask for stamps gets none");
            }
        }
        let mut pool = WorkerPool::new(2);
        let grid = TileGrid::new(20, 12, 8, 8).unwrap(); // ragged: 3x2 tiles
        for sched in [Schedule::Static, Schedule::Dynamic(1)] {
            let probe = Counter {
                starts: AtomicUsize::new(0),
                ends: AtomicUsize::new(0),
                pixels: AtomicUsize::new(0),
            };
            parallel_for_tiles(&mut pool, &grid, sched, &probe, |_, _| {});
            assert_eq!(probe.starts.load(Ordering::Relaxed), 6);
            assert_eq!(probe.ends.load(Ordering::Relaxed), 6);
            assert_eq!(probe.pixels.load(Ordering::Relaxed), 240); // 20*12
        }
    }

    /// Every `tiles_done` batch, in call order, with its worker.
    #[derive(Default)]
    struct StampLog(std::sync::Mutex<Vec<(WorkerId, Vec<TileStamp>)>>);

    impl Probe for StampLog {
        fn wants_tile_stamps(&self) -> bool {
            true
        }
        fn tiles_done(&self, worker: WorkerId, stamps: &[TileStamp]) {
            self.0.lock().unwrap().push((worker, stamps.to_vec()));
        }
    }

    #[test]
    fn stamping_probe_gets_every_tile_once_one_clock_read_per_boundary() {
        let mut pool = WorkerPool::new(2);
        for per_rank in [63, 64, 65, 129] {
            // `static` gives each of the two ranks one chunk of `per_rank` tiles
            let grid = TileGrid::new(per_rank, 2, 1, 1).unwrap();
            let probe = StampLog::default();
            parallel_for_tiles(&mut pool, &grid, Schedule::Static, &probe, |_, _| {
                std::hint::black_box((0..100u64).sum::<u64>());
            });
            let batches = probe.0.into_inner().unwrap();
            let mut seen: Vec<Tile> =
                batches.iter().flat_map(|(_, b)| b.iter().map(|s| s.tile)).collect();
            seen.sort_by_key(|t| (t.y, t.x));
            assert_eq!(seen, grid.iter().collect::<Vec<_>>(), "{per_rank} tiles per rank");
            for rank in 0..2 {
                let mine: Vec<&Vec<TileStamp>> =
                    batches.iter().filter(|(w, _)| *w == rank).map(|(_, b)| b).collect();
                let sizes: Vec<usize> = mine.iter().map(|b| b.len()).collect();
                assert_eq!(sizes.len(), per_rank.div_ceil(TILE_STAMP_BATCH), "{sizes:?}");
                assert!(sizes.iter().all(|&n| (1..=TILE_STAMP_BATCH).contains(&n)), "{sizes:?}");
                for batch in &mine {
                    // tile i ends on the clock read tile i+1 starts on
                    assert!(batch.windows(2).all(|p| p[1].start_ns == p[0].end_ns), "{batch:?}");
                }
                let stamps: Vec<&TileStamp> = mine.into_iter().flatten().collect();
                assert!(stamps.iter().all(|s| s.start_ns <= s.end_ns));
                assert!(stamps.windows(2).all(|p| p[0].end_ns <= p[1].start_ns));
            }
        }
    }

    #[test]
    fn tiles_img_paints_disjointly() {
        let mut pool = WorkerPool::new(4);
        let grid = TileGrid::square(64, 16).unwrap();
        let mut img: Img2D<u32> = Img2D::square(64);
        parallel_for_tiles_img(
            &mut pool,
            &grid,
            Schedule::NonmonotonicDynamic(1),
            &NullProbe,
            &mut img,
            |w, _| {
                let t = w.tile();
                for y in t.y..t.y + t.h {
                    for x in t.x..t.x + t.w {
                        w.set(x, y, (x + 64 * y) as u32);
                    }
                }
            },
        );
        for y in 0..64 {
            for x in 0..64 {
                assert_eq!(img.get(x, y), (x + 64 * y) as u32);
            }
        }
    }

    #[test]
    fn empty_range_does_not_dispatch_a_region() {
        // S2 regression: n == 0 must not run a region (polluting
        // regions_run and per-worker barrier counters) under any policy
        let mut pool = WorkerPool::new(2);
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(2),
            Schedule::Dynamic(1),
            Schedule::Guided(2),
            Schedule::NonmonotonicDynamic(1),
        ] {
            parallel_for_range(&mut pool, 0, sched, |_, _| {
                panic!("no iteration may run for an empty range");
            });
        }
        assert_eq!(pool.regions_run(), 0);
        // pool unaffected: a real loop still works
        let count = AtomicUsize::new(0);
        parallel_for_range(&mut pool, 10, Schedule::Dynamic(2), |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(pool.regions_run(), 1);
    }

    #[test]
    fn single_tile_grid_works() {
        let mut pool = WorkerPool::new(4);
        let grid = TileGrid::square(8, 8).unwrap();
        let count = AtomicUsize::new(0);
        parallel_for_tiles(&mut pool, &grid, Schedule::Guided(1), &NullProbe, |t, _| {
            assert_eq!((t.w, t.h), (8, 8));
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
