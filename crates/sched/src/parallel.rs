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
//! Without a pool the same loop runs the grid in order on the calling
//! thread, as [`for_each_tile`] does: a sequential variant is the
//! parallel one's tile body with no pool, like `mandel_compute_seq`
//! beside Fig. 2.

use crate::dispenser::Dispenser;
use crate::img_cell::{ImgCell, TileWriter};
use crate::pool::WorkerPool;
use ezp_core::kernel::{IdleCause, NullProbe, Probe, RuntimeEvent, TileStamp};
use ezp_core::time::now_ns;
use ezp_core::{Img2D, Schedule, Tile, TileGrid, WorkerId};

/// Most tiles stamped per `tiles_done` call: a 4 KiB array per rank,
/// and how far a live report can lag per worker.
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
/// reporting each tile to the probe as [`for_each_tile`] does: on
/// `pool`, scheduled by `schedule`, with [`RuntimeEvent`]s to probes
/// that want them; with no pool, in grid order on the calling thread
/// as worker 0, with no runtime event.
pub fn parallel_for_tiles(
    pool: Option<&mut WorkerPool>,
    grid: &TileGrid,
    schedule: Schedule,
    probe: &dyn Probe,
    f: impl Fn(Tile, WorkerId) + Sync,
) {
    let f = &f;
    let stamped = probe.wants_tile_stamps();
    let rank_body = |rank| {
        let mut batch = stamped.then(|| [TileStamp::default(); TILE_STAMP_BATCH]);
        move |start, len| {
            report_tiles(probe, rank, batch.as_mut(), grid.chunk(start, len), |t| {
                f(t, rank)
            })
        }
    };
    match pool {
        Some(pool) => run_chunks(pool, grid.len(), schedule, probe, rank_body),
        // The grid as rank 0's one chunk, with no dispenser: the same
        // chunk body as a pool's, so `f` has one caller and inlines into
        // it as it does with a pool (a second caller of `f` left it an
        // out-of-line call per tile).
        None => rank_body(0)(0, grid.len()),
    }
}

/// Runs `f` on every tile of `tiles`, in order, on the calling thread
/// as worker `rank`, reporting each tile to the probe exactly as
/// [`parallel_for_tiles`] does, with or without a pool: how a body that
/// picks its own tiles (a task's, a tile a lazy sweep keeps) reports
/// them.
pub fn for_each_tile(
    probe: &dyn Probe,
    rank: WorkerId,
    tiles: impl IntoIterator<Item = Tile>,
    f: impl FnMut(Tile),
) {
    let mut batch = probe
        .wants_tile_stamps()
        .then(|| [TileStamp::default(); TILE_STAMP_BATCH]);
    report_tiles(probe, rank, batch.as_mut(), tiles.into_iter(), f);
}

/// The one tile-reporting rule. Given a rank's stamp buffer (the probe
/// takes stamps), tile *i* ends on the clock read tile *i+1* starts on,
/// and stamps reach `tiles_done` at most [`TILE_STAMP_BATCH`] at a time;
/// the clock is read afresh after each call and at each chunk, so
/// neither the probe nor the dispenser lands inside a tile. Without a
/// buffer, each tile is bracketed by `start_tile`/`end_tile`.
fn report_tiles(
    probe: &dyn Probe,
    rank: WorkerId,
    batch: Option<&mut [TileStamp; TILE_STAMP_BATCH]>,
    tiles: impl Iterator<Item = Tile>,
    mut f: impl FnMut(Tile),
) {
    let Some(batch) = batch else {
        for tile in tiles {
            probe.start_tile(rank);
            f(tile);
            probe.end_tile(tile.x, tile.y, tile.w, tile.h, rank);
        }
        return;
    };
    let mut tiles = tiles.peekable();
    while tiles.peek().is_some() {
        let mut n = 0;
        let mut start_ns = now_ns();
        for (stamp, tile) in batch.iter_mut().zip(&mut tiles) {
            f(tile);
            let end_ns = now_ns();
            *stamp = TileStamp {
                tile,
                start_ns,
                end_ns,
            };
            start_ns = end_ns;
            n += 1;
        }
        probe.tiles_done(rank, &batch[..n]);
    }
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

/// Runs one pool region and, when `timed`, reports the time each worker
/// spent parked waiting for it to open as a `pool_park` idle slice on
/// that worker's rank. Rank 0, the caller, never waits for a region to
/// open, and its wait for the region to close is no rank's idle time.
/// Shared by the probed loop helpers and the task-graph executor.
pub(crate) fn run_region_probed(
    pool: &mut WorkerPool,
    probe: &dyn Probe,
    timed: bool,
    f: impl Fn(WorkerId) + Sync,
) {
    if timed {
        // what earlier regions parked is theirs, not this one's
        pool.park_ns(|_, _| {});
    }
    pool.run(f);
    if timed {
        pool.park_ns(|rank, ns| {
            if ns > 0 {
                let cause = IdleCause::PoolPark;
                probe.runtime_event(rank, RuntimeEvent::IdleNs { ns, cause });
            }
        });
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
        probe.runtime_event(
            rank,
            RuntimeEvent::Steals {
                attempted,
                succeeded,
            },
        );
    }
}

/// [`parallel_for_tiles`] with write access to an image: `f` gets a
/// bounds-checked [`TileWriter`] for its tile. This is the full
/// `do_tile` idiom, and the only way a kernel writes an image tile by
/// tile, with or without a pool.
pub fn parallel_for_tiles_img<T: Copy + Send + Sync>(
    pool: Option<&mut WorkerPool>,
    grid: &TileGrid,
    schedule: Schedule,
    probe: &dyn Probe,
    img: &mut Img2D<T>,
    f: impl Fn(&TileWriter<'_, '_, T>, WorkerId) + Sync,
) {
    let cell = ImgCell::new(img);
    parallel_for_tiles(pool, grid, schedule, probe, |tile, rank| {
        f(&cell.tile_writer(tile), rank)
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
        parallel_for_tiles(
            Some(&mut pool),
            &grid,
            Schedule::Dynamic(1),
            &NullProbe,
            |_, rank| {
                if rank >= 3 {
                    bad_ranks.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
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
            parallel_for_tiles(Some(&mut pool), &grid, sched, &probe, |_, _| {});
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
            parallel_for_tiles(Some(&mut pool), &grid, Schedule::Static, &probe, |_, _| {
                std::hint::black_box((0..100u64).sum::<u64>());
            });
            let batches = probe.0.into_inner().unwrap();
            let mut seen: Vec<Tile> = batches
                .iter()
                .flat_map(|(_, b)| b.iter().map(|s| s.tile))
                .collect();
            seen.sort_by_key(|t| (t.y, t.x));
            assert_eq!(
                seen,
                grid.iter().collect::<Vec<_>>(),
                "{per_rank} tiles per rank"
            );
            for rank in 0..2 {
                let mine: Vec<&Vec<TileStamp>> = batches
                    .iter()
                    .filter(|(w, _)| *w == rank)
                    .map(|(_, b)| b)
                    .collect();
                let sizes: Vec<usize> = mine.iter().map(|b| b.len()).collect();
                assert_eq!(
                    sizes.len(),
                    per_rank.div_ceil(TILE_STAMP_BATCH),
                    "{sizes:?}"
                );
                assert!(
                    sizes.iter().all(|&n| (1..=TILE_STAMP_BATCH).contains(&n)),
                    "{sizes:?}"
                );
                for batch in &mine {
                    // tile i ends on the clock read tile i+1 starts on
                    assert!(
                        batch.windows(2).all(|p| p[1].start_ns == p[0].end_ns),
                        "{batch:?}"
                    );
                }
                let stamps: Vec<&TileStamp> = mine.into_iter().flatten().collect();
                assert!(stamps.iter().all(|s| s.start_ns <= s.end_ns));
                assert!(stamps.windows(2).all(|p| p[0].end_ns <= p[1].start_ns));
            }
        }
    }

    /// Every bracket edge, in call order: `Some(tile)` ends a tile,
    /// `None` starts one.
    #[derive(Default)]
    struct BracketLog(std::sync::Mutex<Vec<(WorkerId, Option<Tile>)>>);

    impl Probe for BracketLog {
        fn start_tile(&self, worker: WorkerId) {
            self.0.lock().unwrap().push((worker, None));
        }
        fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
            let tile = Tile {
                x,
                y,
                w,
                h,
                ..Tile::default()
            };
            self.0.lock().unwrap().push((worker, Some(tile)));
        }
        fn tiles_done(&self, _: WorkerId, _: &[TileStamp]) {
            panic!("a probe that does not ask for stamps gets none");
        }
    }

    #[test]
    fn for_each_tile_stamps_in_batches_and_brackets_the_same_tiles() {
        let grid = TileGrid::new(130, 1, 1, 1).unwrap();
        let tiles: Vec<Tile> = grid.iter().collect();
        let stamps = StampLog::default();
        for_each_tile(&stamps, 1, grid.iter(), |_| {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        let batches = stamps.0.into_inner().unwrap();
        let sizes: Vec<usize> = batches.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes, [64, 64, 2]);
        for (worker, batch) in &batches {
            assert_eq!(*worker, 1);
            // tile i ends on the clock read tile i+1 starts on
            assert!(
                batch.windows(2).all(|p| p[1].start_ns == p[0].end_ns),
                "{batch:?}"
            );
        }
        let stamped: Vec<Tile> = batches
            .iter()
            .flat_map(|(_, b)| b.iter().map(|s| s.tile))
            .collect();
        assert_eq!(stamped, tiles);

        let brackets = BracketLog::default();
        for_each_tile(&brackets, 1, grid.iter(), |_| {});
        let edges = brackets.0.into_inner().unwrap();
        let expect: Vec<(WorkerId, Option<Tile>)> = tiles
            .iter()
            .flat_map(|t| [(1, None), (1, Some(Tile { tx: 0, ty: 0, ..*t }))])
            .collect();
        assert_eq!(edges, expect);
    }

    #[test]
    fn for_each_tile_over_no_tiles_reports_nothing() {
        let stamps = StampLog::default();
        for_each_tile(&stamps, 0, [], |_| unreachable!());
        assert!(stamps.0.into_inner().unwrap().is_empty());
        let brackets = BracketLog::default();
        for_each_tile(&brackets, 0, [], |_| unreachable!());
        assert!(brackets.0.into_inner().unwrap().is_empty());
    }

    #[test]
    fn without_a_pool_every_tile_runs_once_in_grid_order_on_worker_0() {
        /// Bracket edges as [`BracketLog`] logs them, and every runtime
        /// event, which this probe asks for.
        #[derive(Default)]
        struct Events(BracketLog, std::sync::Mutex<Vec<RuntimeEvent>>);
        impl Probe for Events {
            fn wants_runtime_events(&self) -> bool {
                true
            }
            fn runtime_event(&self, _: WorkerId, event: RuntimeEvent) {
                self.1.lock().unwrap().push(event);
            }
            fn start_tile(&self, worker: WorkerId) {
                self.0.start_tile(worker);
            }
            fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
                self.0.end_tile(x, y, w, h, worker);
            }
        }
        let grid = TileGrid::new(20, 12, 8, 8).unwrap(); // ragged: 3x2 tiles
        let tiles: Vec<Tile> = grid.iter().collect();
        for sched in [Schedule::Static, Schedule::Dynamic(1)] {
            let (probe, ran) = (Events::default(), std::sync::Mutex::new(Vec::new()));
            parallel_for_tiles(None, &grid, sched, &probe, |t, rank| {
                ran.lock().unwrap().push((rank, t));
            });
            let in_order: Vec<(WorkerId, Tile)> = tiles.iter().map(|&t| (0, t)).collect();
            assert_eq!(ran.into_inner().unwrap(), in_order, "{sched:?}");
            let expect: Vec<(WorkerId, Option<Tile>)> = tiles
                .iter()
                .flat_map(|t| [(0, None), (0, Some(Tile { tx: 0, ty: 0, ..*t }))])
                .collect();
            assert_eq!(probe.0 .0.into_inner().unwrap(), expect, "{sched:?}");
            let events = probe.1.into_inner().unwrap();
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, RuntimeEvent::ChunkDispensed { .. })),
                "{sched:?}: {events:?}"
            );
            assert!(events.is_empty(), "{sched:?}: {events:?}");

            let stamps = StampLog::default();
            parallel_for_tiles(None, &grid, sched, &stamps, |_, _| {});
            let batches = stamps.0.into_inner().unwrap();
            assert!(batches.iter().all(|(worker, _)| *worker == 0));
            let stamped: Vec<Tile> = batches
                .iter()
                .flat_map(|(_, b)| b.iter().map(|s| s.tile))
                .collect();
            assert_eq!(stamped, tiles, "{sched:?}");
        }
    }

    #[test]
    fn tiles_img_paints_disjointly() {
        let mut pool = WorkerPool::new(4);
        let grid = TileGrid::square(64, 16).unwrap();
        let mut img: Img2D<u32> = Img2D::square(64);
        parallel_for_tiles_img(
            Some(&mut pool),
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
        parallel_for_tiles(
            Some(&mut pool),
            &grid,
            Schedule::Guided(1),
            &NullProbe,
            |t, _| {
                assert_eq!((t.w, t.h), (8, 8));
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
