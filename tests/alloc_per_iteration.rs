//! Heap allocations per iteration of every registered (kernel, variant)
//! row, counted by this binary's own global allocator. A row's steady
//! state allocates nothing that grows with its tile count, and a row
//! that runs on the calling thread allocates nothing at all.
//!
//! One `#[test]` fn: the counter sees every thread of the process, so
//! no other test may allocate while a row is measured.

mod common;

use easypap::prelude::*;
use easypap::sched::PoolMux;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees are this allocator's; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Iterations of the first counted `compute` call; the second runs twice
/// as many.
const ITERS: u32 = 4;
const THREADS: usize = 2;
/// Ranks of `life mpi_omp`: three, so a middle rank exchanges both ways.
const RANKS: usize = 3;
/// What `life mpi_omp` may allocate more per iteration on the larger
/// image. Its ranks send each neighbour a ghost row and the steadiness
/// flags of a boundary tile row every iteration; a message boxes a clone
/// of the value, the same count whatever its length. What is left is when
/// a `std::sync::mpsc` mailbox allocates its next block of slots:
/// 42.75 -> 42.75–43 here, over 4 runs.
const MPI_MESSAGE_GROWTH: f64 = 1.0;

/// Allocations per iteration of `kernel variant` on a `dim`² image of
/// `tile`² tiles, after one warm-up iteration: what a `compute` call of
/// `2 * ITERS` iterations costs more than one of [`ITERS`] (each the
/// least of three calls), per iteration it ran more, which cancels what
/// a call pays once (`life mpi_omp` spawns its ranks). A run that converges
/// may run as many iterations in both calls; then it is the second
/// call's count per iteration. Pool rows run on an installed pool, so
/// its threads are spawned once, before anything is counted.
fn per_iteration(mux: &PoolMux, kernel: &str, variant: &str, dim: usize, tile: usize) -> f64 {
    let reg = easypap::kernels::registry();
    let mut cfg = RunConfig::new(kernel)
        .variant(variant)
        .size(dim)
        .tile(tile)
        .threads(THREADS);
    cfg.mpi_ranks = RANKS;
    let mut k = reg.create_variant(kernel, variant).unwrap();
    let mut ctx = KernelCtx::new(cfg).unwrap();
    k.init(&mut ctx).unwrap();
    let mut lease = mux.lease();
    lease.install(THREADS, || {
        let mut counted = |n: u32| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let ran = k.compute(&mut ctx, variant, n).unwrap().unwrap_or(n);
            ((ALLOCS.load(Ordering::Relaxed) - before) as f64, ran as f64)
        };
        counted(1);
        // another thread's allocation can only add to a window, and a row
        // that allocates per iteration does so in every window: keep the
        // least of three
        let mut least = |n: u32| {
            (0..3)
                .map(|_| counted(n))
                .min_by(|x, y| x.0.total_cmp(&y.0))
                .unwrap()
        };
        let (a, ran_a) = least(ITERS);
        let (b, ran_b) = least(2 * ITERS);
        if ran_b > ran_a {
            (b - a) / (ran_b - ran_a)
        } else {
            b / ran_b
        }
    })
}

#[test]
fn no_row_allocates_more_per_iteration_with_more_tiles() {
    let reg = easypap::kernels::registry();
    let mux = PoolMux::new(1, THREADS);
    // a worker allocates what a thread allocates once when it first
    // runs, which must not land inside a measured row
    mux.lease().run(|_| {});
    let mut faults = Vec::new();
    for case in common::cases() {
        for variant in reg.create(case.kernel).unwrap().variants() {
            let row = format!("{} {variant}", case.kernel);
            let (dim, tile) = (case.dim, case.tile);
            let base = per_iteration(&mux, case.kernel, variant, dim, tile);
            // twice the side, the same tiles: four times as many
            let more = per_iteration(&mux, case.kernel, variant, 2 * dim, tile);
            let allowed = match (case.kernel, variant) {
                ("life", "mpi_omp") => base + MPI_MESSAGE_GROWTH,
                _ => base,
            };
            if more > allowed {
                faults.push(format!("{row}: {base} -> {more} allocations per iteration"));
            }
            let on_caller = ["seq", "tiled", "async", "gpu"].contains(&variant);
            if on_caller && (base > 0.0 || more > 0.0) {
                faults.push(format!(
                    "{row} runs on the calling thread and allocates {base} / {more} per iteration"
                ));
            }
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
