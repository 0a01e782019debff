//! # ezp-sched — the OpenMP-substrate: thread pool, loop scheduling, tasks
//!
//! EASYPAP assignments revolve around OpenMP's `parallel for`,
//! `schedule(...)` clauses and task dependencies. This crate rebuilds that
//! runtime from scratch on plain threads, so that the framework has the
//! same knobs the paper teaches:
//!
//! * [`WorkerPool`] — a persistent pool of worker threads executing
//!   parallel regions (`#pragma omp parallel`);
//! * [`dispenser`] — the OpenMP loop-scheduling policies (`static`,
//!   `static,k`, `dynamic,k`, `guided,k`, `nonmonotonic:dynamic`) as one
//!   concurrent chunk [`Dispenser`] over three sources: per-rank range
//!   words, per-rank cyclic cursors and one shared cursor;
//! * [`parallel`] — `parallel_for`-style helpers over index ranges and
//!   tile grids, with the paper's `monitoring_start_tile`/`end_tile`
//!   instrumentation built in (§II-B);
//! * [`img_cell`] — the disjoint-tile shared-image wrapper that lets
//!   worker threads write their own tiles of one image concurrently;
//! * [`taskgraph`] — OpenMP-style tasks with dependencies, used by the
//!   connected-components wavefront of Fig. 11/12, and [`vclock`], which
//!   runs them and the dispensers on virtual workers.
//!
//! The per-policy *behaviour* (who computes which tile) is exactly what
//! the Tiling window of Fig. 4 visualizes; `ezp-simsched` replays the
//! same code in virtual time for deterministic analysis.

#![warn(missing_docs)]
// `unsafe_code` is deliberately NOT denied here: `pool` (lifetime-erased
// closure dispatch), `img_cell` (disjoint-tile aliasing), `affinity` (CPU
// binding) and `huge_pages` (the binaries' allocator) are four of the five
// sanctioned unsafe islands of the workspace (the fifth is
// `ezp-chan`'s SPSC ring slots). Every `unsafe` block in them carries a
// `SAFETY:` argument, enforced by clippy's `undocumented_unsafe_blocks`
// (`[workspace.lints.clippy]` in the root manifest).
#![deny(unsafe_op_in_unsafe_fn)]

mod affinity;
pub mod deque;
pub mod dispenser;
mod huge_pages;
pub mod img_cell;
pub mod mux;
pub mod parallel;
pub use ezp_core::park;
pub mod pool;
pub mod skeleton;
pub mod taskgraph;
pub mod vclock;
#[cfg(feature = "ezp-check")]
pub mod vexec;

pub use deque::{Steal, TaskDeque};
pub use dispenser::Dispenser;
pub use huge_pages::HugePageAlloc;
pub use img_cell::{ImgCell, TileWriter};
pub use mux::{acquire_pool, MuxStats, PoolHandle, PoolLease, PoolMux};
pub use parallel::{
    for_each_tile, parallel_for_range, parallel_for_range_probed, parallel_for_tiles,
    parallel_for_tiles_img,
};
pub use park::ParkLot;
pub use pool::WorkerPool;
pub use skeleton::{EmitTracker, PipeShape, PipeStage};
pub use taskgraph::TaskGraph;
#[cfg(feature = "ezp-check")]
pub use vexec::{
    virtual_drain, virtual_for_range, virtual_for_tiles, virtual_taskgraph, Reachability, VStep,
};
