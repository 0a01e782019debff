//! End-to-end ezp-check: seeded schedule exploration drives the shadow
//! race detector over tile loops and task graphs.
//!
//! The acceptance contract tested here: a deliberately injected race is
//! *caught* (not sometimes, but under a pinned seed), the catch *replays
//! byte-for-byte* from that seed, correct kernels stay silent under
//! every adversarial strategy, and races surface through the ordinary
//! perf-probe counter like any other runtime event.

#![cfg(feature = "ezp-check")]

use easypap::core::kernel::{NullProbe, RaceKind};
use easypap::core::shadow::{ShadowGrid, ShadowSession};
use easypap::prelude::*;
use easypap::sched::skeleton::{PipeShape, PipeStage};
use easypap::sched::vexec::{
    virtual_deque_taskgraph, virtual_for_tiles, virtual_pipeline, virtual_region_protocol,
    virtual_taskgraph, Reachability,
};
use ezp_testkit::schedule::{RandomWalk, RoundRobin, StarveOne, StrategyKind};

const DIM: usize = 64;
const TILE: usize = 16;

/// The seeded injected race: every tile writes its own pixels plus one
/// pixel past its right edge — a classic off-by-one tile overlap. The
/// shadow detector must flag it, on tile-boundary columns only, and the
/// whole run (races *and* schedule trace) must replay from the seed.
#[test]
fn injected_tile_overlap_is_caught_and_replays_from_its_seed() {
    let seed = 0xEA5E_2024;
    let run = |seed: u64| {
        let grid = TileGrid::square(DIM, TILE).unwrap();
        let shadow = ShadowGrid::new(DIM, DIM);
        let session = ShadowSession::for_chunks(&shadow, &NullProbe);
        let mut strategy = RandomWalk::seeded(seed);
        let trace = virtual_for_tiles(
            &grid,
            Schedule::Dynamic(1),
            4,
            &mut strategy,
            |tile, chunk, rank| {
                let w = session.writer(chunk, rank);
                for y in tile.y..tile.y + tile.h {
                    for x in tile.x..tile.x + tile.w {
                        w.write(x, y);
                    }
                }
                // the injected bug: one pixel beyond the tile's right edge
                if tile.x + tile.w < DIM {
                    w.write(tile.x + tile.w, tile.y);
                }
            },
        );
        (session.races(), trace)
    };

    let (races, trace) = run(seed);
    assert!(!races.is_empty(), "injected tile overlap was not caught");
    for r in &races {
        assert_eq!(r.kind, RaceKind::OverlappingWrite);
        assert_eq!(
            r.x % TILE,
            0,
            "race at ({}, {}) is not on a tile boundary column",
            r.x,
            r.y
        );
        assert_ne!(r.prev_writer, r.writer);
    }

    // byte-for-byte replay from the same seed
    let (races2, trace2) = run(seed);
    assert_eq!(races, races2, "race report did not replay from its seed");
    assert_eq!(trace, trace2, "schedule trace did not replay from its seed");
}

/// The correct version of the same loop stays silent under every
/// strategy family and a sweep of seeds — no false positives.
#[test]
fn disjoint_tiles_are_race_free_under_every_strategy() {
    let grid = TileGrid::square(DIM, TILE).unwrap();
    for kind in StrategyKind::all() {
        for seed in 0..8u64 {
            let shadow = ShadowGrid::new(DIM, DIM);
            let session = ShadowSession::for_chunks(&shadow, &NullProbe);
            let mut strategy = kind.build(seed, 4);
            virtual_for_tiles(
                &grid,
                Schedule::NonmonotonicDynamic(1),
                4,
                &mut *strategy,
                |tile, chunk, rank| {
                    let w = session.writer(chunk, rank);
                    for y in tile.y..tile.y + tile.h {
                        for x in tile.x..tile.x + tile.w {
                            w.write(x, y);
                        }
                    }
                },
            );
            assert!(
                session.races().is_empty(),
                "{kind:?} seed {seed}: false positive {:?}",
                session.races()
            );
        }
    }
}

/// A task graph missing a dependency edge is a lost update: the reader
/// consumes a value whose writer it is not ordered after. Adding the
/// edge makes the identical access pattern legal.
#[test]
fn missing_dependency_edge_is_a_lost_update() {
    let run = |graph: &TaskGraph| {
        let reach = Reachability::of(graph);
        let shadow = ShadowGrid::new(8, 8);
        let session = ShadowSession::new(&shadow, &NullProbe, |a, b| reach.precedes(a, b));
        // RoundRobin + FIFO pick runs task 0 (the writer) first, so the
        // racy read is actually observed
        let mut strategy = RoundRobin::new();
        virtual_taskgraph(graph, 2, &mut strategy, |task, rank| {
            let w = session.writer(task, rank);
            if task == 0 {
                w.write(3, 3);
            } else {
                w.read(3, 3);
            }
        })
        .unwrap();
        session.races()
    };

    // two unordered tasks: the read races
    let buggy = TaskGraph::new(2);
    let races = run(&buggy);
    assert_eq!(races.len(), 1, "missing edge not flagged: {races:?}");
    assert_eq!(races[0].kind, RaceKind::LostUpdate);
    assert_eq!((races[0].prev_writer, races[0].writer), (0, 1));

    // the fixed graph: same accesses, ordered, silent
    let mut fixed = TaskGraph::new(2);
    fixed.add_dep(0, 1);
    assert!(
        run(&fixed).is_empty(),
        "dependency edge did not suppress race"
    );
}

/// The ccomp-style wavefront: every task writes its tile and reads the
/// bordering pixels of its left/up neighbours. With the wavefront's
/// dependency edges as the happens-before oracle, this must be silent
/// under every strategy and seed — the taskgraph equivalent of the
/// conformance matrix passing.
#[test]
fn wavefront_neighbour_reads_are_ordered_under_every_strategy() {
    let grid = TileGrid::square(32, 8).unwrap(); // 4x4 tiles
    let g = TaskGraph::down_right_wavefront(&grid);
    let reach = Reachability::of(&g);
    for kind in StrategyKind::all() {
        for seed in 0..8u64 {
            let shadow = ShadowGrid::new(32, 32);
            let session = ShadowSession::new(&shadow, &NullProbe, |a, b| reach.precedes(a, b));
            let mut strategy = kind.build(seed, 3);
            virtual_taskgraph(&g, 3, &mut *strategy, |task, rank| {
                let w = session.writer(task, rank);
                let t = grid.tile_at(task);
                if t.x > 0 {
                    for y in t.y..t.y + t.h {
                        w.read(t.x - 1, y);
                    }
                }
                if t.y > 0 {
                    for x in t.x..t.x + t.w {
                        w.read(x, t.y - 1);
                    }
                }
                for y in t.y..t.y + t.h {
                    for x in t.x..t.x + t.w {
                        w.write(x, y);
                    }
                }
            })
            .unwrap();
            assert!(
                session.races().is_empty(),
                "{kind:?} seed {seed}: {:?}",
                session.races()
            );
        }
    }
}

/// Shadow races ride the existing observability stack: they land in the
/// perf probe's `shadow_races` counter like steals or idle time do.
#[test]
fn races_land_in_the_perf_probe_counter() {
    let probe = PerfProbe::new(2);
    let shadow = ShadowGrid::new(4, 4);
    let session = ShadowSession::for_chunks(&shadow, &probe);
    session.writer(0, 0).write(1, 1);
    session.writer(1, 1).write(1, 1); // overlap, reported on rank 1
    session.writer(1, 1).write(2, 1); // disjoint, silent
    let snap = probe.snapshot();
    assert_eq!(snap.total(easypap::perf::names::SHADOW_RACES), 1);
    assert_eq!(
        snap.get(easypap::perf::names::SHADOW_RACES)
            .unwrap()
            .per_worker,
        vec![0, 1]
    );
}

/// The deque steal path under every adversarial interleaving family:
/// per-worker deques (owner LIFO, thief FIFO) must hand out every task
/// exactly once and in dependency order, no matter how the strategy
/// interleaves owner pops and thief steals — and each trace must replay
/// byte-for-byte from its seed (per docs/testing.md).
#[test]
fn deque_steal_path_conforms_under_every_strategy() {
    let grid = TileGrid::square(32, 8).unwrap(); // 4x4 wavefront
    let g = TaskGraph::down_right_wavefront(&grid);
    let reach = Reachability::of(&g);
    for kind in StrategyKind::all() {
        for seed in 0..8u64 {
            for workers in [1usize, 2, 4] {
                let mut strategy = kind.build(seed, workers);
                let mut hits = vec![0u32; g.len()];
                let (order, _steals) =
                    virtual_deque_taskgraph(&g, workers, &mut *strategy, |t, _| hits[t] += 1)
                        .unwrap();
                for (t, &h) in hits.iter().enumerate() {
                    assert_eq!(
                        h, 1,
                        "{kind:?} seed {seed} workers {workers}: task {t} ran {h} times"
                    );
                }
                let mut pos = vec![usize::MAX; g.len()];
                for (i, &(t, _)) in order.iter().enumerate() {
                    pos[t] = i;
                }
                for a in 0..g.len() {
                    for b in 0..g.len() {
                        if reach.precedes(a, b) {
                            assert!(
                                pos[a] < pos[b],
                                "{kind:?} seed {seed} workers {workers}: {a} must precede {b}"
                            );
                        }
                    }
                }
                // Replay contract: the same seed reproduces the trace.
                let mut replay = kind.build(seed, workers);
                let (order2, _) =
                    virtual_deque_taskgraph(&g, workers, &mut *replay, |_, _| {}).unwrap();
                assert_eq!(
                    order, order2,
                    "{kind:?} seed {seed} workers {workers}: trace did not replay"
                );
            }
        }
    }
}

/// The pool's atomic region protocol under every interleaving family:
/// `virtual_region_protocol` drives `pool.rs`'s own publish / caller
/// share / close / worker steps and asserts no early unblock,
/// exact per-region panic attribution (the S1 regression class), and
/// shutdown reaching parked workers. Here we sweep strategies, seeds
/// and panic plans; the per-region counts the master observes must
/// match the plan under every schedule.
#[test]
fn region_protocol_conforms_under_every_strategy() {
    // (name, plan): which ranks panic in which 1-based region. Rank 0
    // is the master's own share, so every plan but "clean" and
    // "workers-only" panics on the caller too.
    type Plan = fn(u64, usize) -> bool;
    let plans: [(&str, Plan); 4] = [
        ("clean", |_, _| false),
        ("one-per-odd-region", |seq, rank| seq % 2 == 1 && rank == 0),
        ("burst-then-silent", |seq, rank| seq == 1 && rank != 1),
        ("workers-only", |seq, rank| seq != 2 && rank > 0),
    ];
    for (name, plan) in plans {
        for kind in StrategyKind::all() {
            for seed in 0..8u64 {
                // 1: the caller alone, publishing to nobody
                for threads in [1usize, 2, 3, 4] {
                    // One actor per rank, the master as rank 0.
                    let mut strategy = kind.build(seed, threads);
                    let observed = virtual_region_protocol(4, threads, plan, &mut *strategy);
                    let expected: Vec<usize> = (1..=4u64)
                        .map(|seq| (0..threads).filter(|&r| plan(seq, r)).count())
                        .collect();
                    assert_eq!(
                        observed, expected,
                        "plan {name}, {kind:?} seed {seed} threads {threads}"
                    );
                }
            }
        }
    }
}

/// The streaming pipeline (the task-graph step over the compiled shape,
/// emission through the engine's `EmitTracker`) under every
/// interleaving family: for a
/// shape mixing farm and serial stages, ordered emission must be
/// exactly `0..frames` (frame `n + 1` never leaves the reorder buffer
/// before `n`), unordered emission must be a permutation of it, and
/// every run must replay byte-for-byte from its `(strategy, seed)`.
#[test]
fn virtual_pipeline_conforms_under_every_strategy() {
    let shape = PipeShape::new(vec![
        PipeStage::farm(3),
        PipeStage::serial(),
        PipeStage::farm(2),
    ]);
    let frames = 24;
    for kind in StrategyKind::all() {
        for seed in 0..8u64 {
            for workers in [1usize, 2, 4] {
                for ordered in [true, false] {
                    let mut strategy = kind.build(seed, workers);
                    let v =
                        virtual_pipeline(&shape, frames, workers, ordered, &mut *strategy).unwrap();
                    let mut sorted = v.emitted.clone();
                    sorted.sort_unstable();
                    assert_eq!(
                        sorted,
                        (0..frames).collect::<Vec<_>>(),
                        "{kind:?} seed {seed} workers {workers}: frames lost or duplicated"
                    );
                    if ordered {
                        assert_eq!(
                            v.emitted, sorted,
                            "{kind:?} seed {seed} workers {workers}: \
                             ordered emission left frame order"
                        );
                    }
                    // Replay contract.
                    let mut replay = kind.build(seed, workers);
                    let v2 =
                        virtual_pipeline(&shape, frames, workers, ordered, &mut *replay).unwrap();
                    assert_eq!(
                        v, v2,
                        "{kind:?} seed {seed} workers {workers}: run did not replay"
                    );
                }
            }
        }
    }
}

/// Bounded stages must be deadlock-free even when the strategy starves
/// one worker: capacity edges throttle admission but never wedge the
/// graph, because every capacity edge points backward in frame-major
/// order. A deadlock would surface as the executor's cycle error or a
/// short emission list.
#[test]
fn virtual_pipeline_bounded_stages_survive_starvation() {
    let shape = PipeShape::new(vec![
        PipeStage::farm(2).capacity(1),
        PipeStage::serial().capacity(1),
        PipeStage::serial().capacity(1),
    ]);
    let frames = 16;
    for seed in 0..16u64 {
        for workers in [2usize, 3, 4] {
            let mut strategy = StarveOne::seeded(seed, workers);
            let v = virtual_pipeline(&shape, frames, workers, true, &mut strategy)
                .expect("bounded pipeline deadlocked (cycle reported)");
            assert_eq!(
                v.emitted,
                (0..frames).collect::<Vec<_>>(),
                "seed {seed} workers {workers}: starved run lost frames"
            );
        }
    }
}

/// The streamed payload slots are race-free by construction: every
/// stage of frame `f` writes the same cell, and the pipeline's data
/// edges order those writes. With the compiled graph's reachability as
/// the happens-before oracle, the shadow detector must stay silent
/// under every strategy — and flag a lost update the moment a stage
/// reads a *neighbouring* frame's slot it is not ordered after.
#[test]
fn virtual_pipeline_payload_slots_are_race_free() {
    let shape = PipeShape::new(vec![PipeStage::farm(3), PipeStage::serial()]);
    let frames = 12;
    let graph = shape.graph(frames);
    let reach = Reachability::of(&graph);
    for kind in StrategyKind::all() {
        for seed in 0..8u64 {
            let shadow = ShadowGrid::new(frames, 1);
            let session = ShadowSession::new(&shadow, &NullProbe, |a, b| reach.precedes(a, b));
            let mut strategy = kind.build(seed, 3);
            virtual_pipeline(&shape, frames, 3, true, &mut *strategy).unwrap();
            // Re-run the schedule substrate with shadow instrumentation:
            // every node touches its own frame's payload slot.
            let mut strategy = kind.build(seed, 3);
            virtual_deque_taskgraph(&graph, 3, &mut *strategy, |t, rank| {
                let w = session.writer(t, rank);
                let f = shape.frame_of(t);
                if shape.stage_of(t) > 0 {
                    w.read(f, 0); // take the payload the previous stage left
                }
                w.write(f, 0);
            })
            .unwrap();
            assert!(
                session.races().is_empty(),
                "{kind:?} seed {seed}: payload slots raced: {:?}",
                session.races()
            );
        }
    }

    // The injected bug: the serial stage also reads the *next* frame's
    // slot, which nothing orders it after — a lost update, caught.
    let shadow = ShadowGrid::new(frames, 1);
    let session = ShadowSession::new(&shadow, &NullProbe, |a, b| reach.precedes(a, b));
    let mut strategy = RoundRobin::new();
    virtual_deque_taskgraph(&graph, 3, &mut strategy, |t, rank| {
        let w = session.writer(t, rank);
        let f = shape.frame_of(t);
        w.write(f, 0);
        if shape.stage_of(t) == 1 && f + 1 < frames {
            w.read(f + 1, 0);
        }
    })
    .unwrap();
    assert!(
        !session.races().is_empty(),
        "cross-frame read without an edge was not flagged"
    );
}

/// The shutdown-during-park schedule on real threads: let workers burn
/// through their spin budget and park between regions, then drop the
/// pool while they sleep. Drop must wake and join every worker — a lost
/// shutdown notify hangs this test. Repeated rounds vary the timing.
#[test]
fn shutdown_reaches_parked_workers() {
    for round in 0..10 {
        let mut pool = WorkerPool::new(3);
        pool.run(|_| {});
        // Long enough on any machine to exhaust the spin budget, so the
        // workers are parked (or parking) when the pool drops.
        std::thread::sleep(std::time::Duration::from_millis(2 + (round % 3)));
        if round % 2 == 0 {
            // Half the rounds publish a second region first, proving a
            // parked worker wakes for work as well as for shutdown.
            pool.run(|_| {});
            assert_eq!(pool.regions_run(), 2);
        }
        drop(pool); // hangs here if shutdown misses a parked worker
    }
}
