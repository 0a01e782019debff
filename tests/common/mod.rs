//! Shared conformance-matrix infrastructure for the integration tests.
//!
//! One table of per-kernel parameters ([`cases`]), one list of
//! scheduling policies ([`policies`]), one list of worker counts
//! ([`WORKER_COUNTS`]) and one runner ([`final_image`]) — so
//! `conformance.rs` and `variants_consistency.rs` provably exercise the
//! same ground truth, and a new kernel only needs one new table row.

#![allow(dead_code)]

use easypap::core::kernel::NullProbe;
use easypap::core::perf::run_kernel;
use easypap::prelude::*;
use std::sync::Arc;

/// Per-kernel parameters that make every variant's output comparable to
/// the sequential reference in a test-sized run.
#[derive(Clone, Copy, Debug)]
pub struct KernelCase {
    /// Registry name.
    pub kernel: &'static str,
    /// Image dimension (square).
    pub dim: usize,
    /// Tile edge.
    pub tile: usize,
    /// Iteration count (or budget, for kernels run to convergence).
    pub iters: u32,
}

/// One case per registered kernel. `conformance.rs` asserts this table
/// stays exhaustive, so adding a kernel without a row here fails CI.
pub fn cases() -> Vec<KernelCase> {
    [
        ("mandel", 64, 16, 2),
        ("blur", 64, 16, 2),
        ("life", 64, 16, 5),
        ("ccomp", 64, 16, 20),
        // run to convergence: the async (Gauss-Seidel) variant only has
        // to match seq at the stable fixed point (abelian property)
        ("sandpile", 32, 16, 5000),
        ("heat", 48, 16, 10),
        ("rotate90", 48, 16, 2),
        ("scrollup", 48, 16, 3),
        ("transpose", 48, 16, 1),
        ("invert", 48, 16, 1),
        ("pixelize", 48, 16, 1),
        ("spin", 48, 16, 2),
    ]
    .iter()
    .map(|&(kernel, dim, tile, iters)| KernelCase {
        kernel,
        dim,
        tile,
        iters,
    })
    .collect()
}

/// The scheduling policies the conformance matrix sweeps — all five
/// dispenser families.
pub fn policies() -> [Schedule; 5] {
    [
        Schedule::Static,
        Schedule::StaticChunk(3),
        Schedule::Dynamic(1),
        Schedule::Guided(1),
        Schedule::NonmonotonicDynamic(1),
    ]
}

/// Worker counts for the full matrix (tier-2, `--features ezp-check`).
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `kernel/variant` and returns the final image.
pub fn final_image(
    kernel: &str,
    variant: &str,
    dim: usize,
    tile: usize,
    iters: u32,
    threads: usize,
    schedule: Schedule,
) -> Vec<Rgba> {
    let reg = easypap::kernels::registry();
    let mut cfg = RunConfig::new(kernel)
        .variant(variant)
        .size(dim)
        .tile(tile)
        .iterations(iters)
        .threads(threads)
        .schedule(schedule);
    if variant == "mpi_omp" {
        cfg.mpi_ranks = 2;
    }
    let (_, ctx) = run_kernel(&reg, cfg, Arc::new(NullProbe)).unwrap();
    ctx.images.cur().as_slice().to_vec()
}

/// The sequential golden image for a case.
pub fn golden(case: &KernelCase) -> Vec<Rgba> {
    final_image(
        case.kernel,
        "seq",
        case.dim,
        case.tile,
        case.iters,
        1,
        Schedule::Static,
    )
}

/// The registered variants of a kernel.
pub fn variants_of(kernel: &str) -> Vec<&'static str> {
    easypap::kernels::registry()
        .create(kernel)
        .unwrap()
        .variants()
}

/// Per-kernel parameters of the *streaming* conformance dimension.
#[derive(Clone, Copy, Debug)]
pub struct StreamCase {
    /// Streaming-registry name.
    pub kernel: &'static str,
    /// Frame dimension (meaning is kernel-defined; `wordcount` scales
    /// words per frame off it).
    pub dim: usize,
    /// Frames pushed through the pipeline.
    pub frames: usize,
}

/// One case per streaming kernel. `conformance.rs` asserts this table
/// matches `ezp_stream::stream_registry()` exactly, mirroring the
/// classic table's exhaustiveness guard.
pub fn stream_cases() -> Vec<StreamCase> {
    [
        ("mandel_zoom", 16, 10),
        ("frame_diff", 24, 12),
        ("wordcount", 8, 10),
    ]
    .iter()
    .map(|&(kernel, dim, frames)| StreamCase {
        kernel,
        dim,
        frames,
    })
    .collect()
}

/// Farm widths the streaming matrix sweeps.
pub const FARM_WIDTHS: [usize; 3] = [1, 2, 4];

/// Runs the streaming conformance matrix: every streamed kernel ×
/// {Ordered, Unordered} × the given farm widths × the given worker
/// counts, against the sequential one-frame-at-a-time baseline.
///
/// Ordered runs must equal the baseline byte-for-byte *in order*;
/// Unordered runs must be the same multiset keyed by frame id (sorted
/// by id, then byte-equal). Returns one `(kernel, mode, width,
/// workers)` line per divergence.
pub fn run_stream_matrix(widths: &[usize], workers: &[usize]) -> Vec<String> {
    use easypap::stream::{stream_kernel, EmitMode};
    let mut failures = Vec::new();
    for case in stream_cases() {
        let kernel = stream_kernel(case.kernel).expect("case has no streaming kernel");
        let baseline = kernel.run_seq(case.dim, case.frames);
        for &width in widths {
            for &w in workers {
                let mut pool = WorkerPool::new(w);
                for mode in [EmitMode::Ordered, EmitMode::Unordered] {
                    let (mut got, stats) = kernel
                        .run(case.dim, case.frames, mode, width, &mut pool, &NullProbe)
                        .unwrap();
                    if mode == EmitMode::Unordered {
                        got.sort_by_key(|&(f, _)| f);
                    }
                    if got != baseline || stats.frames != case.frames {
                        failures.push(format!(
                            "({}, {mode}, width {width}, {w} workers)",
                            case.kernel
                        ));
                    }
                }
            }
        }
    }
    failures
}

/// Runs the conformance matrix restricted to the given policies and
/// worker counts, returning one `(kernel, variant, policy, workers)`
/// line per divergence from the sequential golden image.
pub fn run_matrix(policies: &[Schedule], workers: &[usize]) -> Vec<String> {
    let mut failures = Vec::new();
    for case in cases() {
        let reference = golden(&case);
        for variant in variants_of(case.kernel) {
            if variant == "seq" {
                continue;
            }
            for &schedule in policies {
                for &w in workers {
                    let got = final_image(
                        case.kernel,
                        variant,
                        case.dim,
                        case.tile,
                        case.iters,
                        w,
                        schedule,
                    );
                    if got != reference {
                        failures.push(format!(
                            "({}, {}, {}, {} workers)",
                            case.kernel,
                            variant,
                            schedule.as_omp_str(),
                            w
                        ));
                    }
                }
            }
        }
    }
    failures
}
