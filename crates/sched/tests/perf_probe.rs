//! The scheduling layer feeding `ezp-perf`: counters accumulated through
//! the real worker pool must add up exactly, and every dispenser event
//! (chunks, idle, barrier, steals) must land in the right counter.

use ezp_core::kernel::IdleCause;
use ezp_core::{Schedule, TileGrid};
use ezp_perf::{names, PerfProbe};
use ezp_sched::{
    parallel_for_range, parallel_for_range_probed, parallel_for_tiles, Dispenser, TaskGraph,
    WorkerPool,
};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn tile_loop_counts_sum_to_total_tasks() {
    // satellite check: concurrent increments through the pool lose
    // nothing — per-worker task counts sum to the exact tile count
    let threads = 4;
    let mut pool = WorkerPool::new(threads);
    let probe = PerfProbe::new(threads);
    let grid = TileGrid::square(64, 4).unwrap(); // 16x16 = 256 tiles
    let executed = AtomicUsize::new(0);
    for _ in 0..3 {
        parallel_for_tiles(
            Some(&mut pool),
            &grid,
            Schedule::Dynamic(2),
            &probe,
            |_, _| {
                executed.fetch_add(1, Ordering::Relaxed);
            },
        );
    }
    let snap = probe.snapshot();
    assert_eq!(executed.load(Ordering::Relaxed), 3 * 256);
    assert_eq!(snap.total(names::TASKS_EXECUTED), 3 * 256);
    assert_eq!(
        snap.get(names::TASKS_EXECUTED).unwrap().per_worker.len(),
        threads
    );
    // the workers' end-of-loop waits land in the barrier idle slice
    assert!(snap.total(names::idle_cause_counter(IdleCause::Barrier)) > 0);
    // dynamic,2 over 256 tiles: at least 128 dispenses per loop
    assert!(snap.total(names::CHUNKS_DISPENSED) >= 3 * 128);
    assert_eq!(pool.regions_run(), 3);
}

#[test]
fn fine_dynamic_loop_claims_in_batches_that_taper() {
    // the machine-independent guard of what `dispatch_fine` gains: 16 384
    // units of `dynamic,1` on 2 workers are at most 300 claims on the
    // shared cursor per loop (512 units at first, 1/(16·P) of what is
    // left each time), not 16 384 — and the tail is still at least
    // 16·P = 32 single units, so the loop ends balanced to one unit
    let mut pool = WorkerPool::new(2);
    let probe = PerfProbe::new(2);
    let executed = AtomicUsize::new(0);
    parallel_for_range_probed(&mut pool, 16_384, Schedule::Dynamic(1), &probe, |_, _| {
        executed.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(executed.load(Ordering::Relaxed), 16_384);
    let chunks = probe.snapshot().total(names::CHUNKS_DISPENSED);
    assert!(chunks <= 300, "{chunks} chunks dispensed");
    // a claim is sized from the cursor alone, so whichever rank makes it
    // the pool saw exactly the sequence one rank drains
    let disp = Dispenser::new(Schedule::Dynamic(1), 16_384, 2);
    let mut claims = Vec::new();
    while let Some(claim) = disp.next(0) {
        claims.push(claim);
    }
    assert_eq!(chunks, claims.len() as u64);
    let singles = claims
        .iter()
        .rev()
        .take_while(|&&(_, len)| len == 1)
        .count();
    assert!(singles >= 32, "{singles} single-unit claims at the tail");
}

#[test]
fn range_loop_reports_chunks_and_idle() {
    let mut pool = WorkerPool::new(2);
    let probe = PerfProbe::new(2);
    let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
    parallel_for_range_probed(&mut pool, 100, Schedule::Guided(1), &probe, |i, _| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    let snap = probe.snapshot();
    // range loops have no tile brackets, but chunk/barrier events flow
    assert_eq!(snap.total(names::TASKS_EXECUTED), 0);
    assert!(snap.total(names::CHUNKS_DISPENSED) > 0);
    // idle_ns was measured (waiting for the dispenser takes > 0 ns),
    // the loop-end waits included
    assert!(snap.total(names::IDLE_NS) > 0);
    assert!(snap.total(names::idle_cause_counter(IdleCause::Barrier)) > 0);
}

#[test]
fn uninstrumented_range_loop_still_works() {
    let mut pool = WorkerPool::new(3);
    let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
    parallel_for_range(&mut pool, 50, Schedule::Static, |i, _| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn stealing_loop_reports_steals_to_the_probe() {
    // Make rank 0's static half slow so rank 1 finishes its own block
    // and has to steal: the dispenser's counters must reach the probe.
    let mut pool = WorkerPool::new(2);
    let probe = PerfProbe::new(2);
    parallel_for_range_probed(
        &mut pool,
        8,
        Schedule::NonmonotonicDynamic(1),
        &probe,
        |i, _| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        },
    );
    let snap = probe.snapshot();
    let attempted = snap.total(names::STEALS_ATTEMPTED);
    let succeeded = snap.total(names::STEALS_SUCCEEDED);
    // both ranks attempt at least once (each ends on an empty space)
    assert!(attempted >= 2, "attempted = {attempted}");
    assert!(succeeded >= 1, "rank 1 should have stolen slow work");
    assert!(succeeded <= attempted);
}

#[test]
fn task_graph_reports_one_dispense_per_task() {
    let grid = TileGrid::square(40, 10).unwrap(); // 4x4 tasks
    let graph = TaskGraph::down_right_wavefront(&grid);
    let mut pool = WorkerPool::new(3);
    let probe = PerfProbe::new(3);
    let done = AtomicUsize::new(0);
    graph
        .run_probed(&mut pool, &probe, |_, _| {
            done.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
    let snap = probe.snapshot();
    assert_eq!(done.load(Ordering::Relaxed), 16);
    assert_eq!(snap.total(names::CHUNKS_DISPENSED), 16);
    // the wavefront forces workers to park while the frontier is narrow
    // (not asserted > 0: with a fast body the queue may never be empty)
    assert!(snap.total(names::TASK_WAITS) <= 1000);
}
