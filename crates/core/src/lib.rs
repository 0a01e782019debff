//! # ezp-core — the EASYPAP framework spine
//!
//! This crate provides the pieces every other crate of the workspace builds
//! on: square (and rectangular) 2D image buffers with double buffering, the
//! tile-grid geometry used to decompose images into units of parallel work,
//! run-time configuration mirroring the `easypap` command line of the paper,
//! the kernel/variant registry, the performance-mode timing and CSV output,
//! and small shared vocabulary types (`Schedule`, `WorkerId`, colors).
//!
//! The original EASYPAP is a C framework where `easypap --kernel mandel
//! --variant omp_tiled --tile-size 16 --iterations 50 --no-display` runs a
//! kernel variant to completion and reports wall-clock time plus a CSV row.
//! `ezp-core` reproduces that contract as a library: [`RunConfig`] is the
//! parsed command line, [`registry::Registry`] maps `(kernel, variant)`
//! pairs to implementations, and [`perf`] produces the same observable
//! output (`50 iterations completed in 579 ms` + CSV).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod color;
pub mod csv;
pub mod error;
pub mod grid;
pub mod img;
pub mod json;
pub mod kernel;
pub mod log;
pub mod park;
pub mod params;
pub mod perf;
pub mod registry;
#[cfg(feature = "ezp-check")]
pub mod shadow;
pub mod svg;
pub mod time;

pub use color::Rgba;
pub use error::{Error, Result};
pub use grid::{Tile, TileChunk, TileGrid};
pub use img::{Img2D, ImagePair};
pub use kernel::{Kernel, KernelCtx};
pub use params::{ChanBackendKind, ChanTuning, EmitMode, RunConfig, Schedule, WaitPolicy};
pub use registry::Registry;

/// Rank of a worker thread (0-based), mirroring `omp_get_thread_num()` in
/// the paper's instrumented `do_tile` function.
pub type WorkerId = usize;

/// Default image dimension when `--size` is not given, as in EASYPAP.
pub const DEFAULT_DIM: usize = 1024;

/// Default tile edge when `--tile-size` is not given.
pub const DEFAULT_TILE_SIZE: usize = 32;
