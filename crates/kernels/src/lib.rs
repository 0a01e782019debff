//! # ezp-kernels — the kernel library (paper §II-A, §III)
//!
//! "EASYPAP comes with a large set of predefined kernels (e.g. Transpose,
//! Invert, Blur, Pixelize, Game Of Life, Mandelbrot, Abelian SandPile)."
//! This crate implements them all, each with several *variants* students
//! would write during the lab sessions the paper describes:
//!
//! | kernel | §      | variants |
//! |--------|--------|----------|
//! | [`mandel`]    | III-A | `seq`, `tiled`, `omp`, `omp_tiled`, `gpu` |
//! | [`blur`]      | III-B | `seq`, `omp_tiled` (border tests everywhere), `omp_tiled_opt` (specialized inner tiles) |
//! | [`life`]      | III-D | `seq`, `omp`, `omp_tiled`, `lazy`, `mpi_omp` — bit-packed low-memory boards |
//! | [`ccomp`]     | III-C | `seq`, `taskdep` (OpenMP-style task dependencies, Fig. 11) |
//! | [`sandpile`]  | II-A  | `seq` (synchronous), `async` (Gauss-Seidel, abelian-equal), `omp_tiled` |
//! | [`heat`]      | III-B | `seq`, `omp_tiled` — f32 Jacobi diffusion stencil |
//! | [`rotate90`](rotate) | II-A | `seq`, `omp_tiled` — quarter-turn per iteration |
//! | [`scrollup`]  | II-A  | `seq`, `omp_tiled` — the first-session animated kernel |
//! | [`transpose`] | II-A  | `seq`, `omp_tiled` |
//! | [`invert`]    | II-A  | `seq`, `omp`, `gpu` |
//! | [`pixelize`]  | II-A  | `seq`, `omp_tiled` |
//! | [`spin`]      | II-A  | `seq`, `omp_tiled` — compute-bound trigonometry |
//!
//! Variant names keep the paper's OpenMP-flavoured spelling (`omp`,
//! `omp_tiled`...) even though the runtime is this workspace's own
//! `ezp-sched` pool, so command lines from the paper work verbatim.
//!
//! *Adding a variant* is one row in the kernel's `VARIANTS` table. A
//! kernel has one step (one iteration) and one tile body; a row names
//! the grid the step runs over (the whole image, the run's tiles, rows
//! or bands: `variant::Grid`) and whether it runs on the pool
//! (`Body::Par`) or on the calling thread (`Body::Seq`). A parallel
//! variant is the sequential row with a pool, as
//! `mandel_compute_omp_tiled` is `mandel_compute_seq` with a `parallel
//! for` around the same `do_tile` (Fig. 1/2). The framework runs the
//! loop around the step (the grid, iteration spans, the pool, the
//! unknown-variant error). The step hands its tile body and the pool it
//! got, if any, to `ezp_sched::parallel_for_tiles_img` (or
//! `parallel_for_tiles` when it writes no image), which reports every
//! tile, never EASYPAP's hand-written
//! `monitoring_start_tile`/`end_tile`, and returns `Ok(true)` to stop
//! early once the state is stable. Only a row whose loop differs keeps
//! a body of its own: `sandpile async`, `ccomp`'s two, and `life
//! omp_tiled`, `lazy` and `mpi_omp`. A body that writes the next image
//! (`ctx.images.rw()`, `swap()`) needs its kernel's `init` to claim it
//! with `ctx.images.next_mut()`: `next` is created on first use, and
//! `init` runs before the clock starts. An in-place kernel never touches
//! it and holds one image.
//!
//! Each module also exposes a *cost model* (`tile_cost`) used by
//! `ezp-simsched` to regenerate the paper's figures deterministically.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod blur;
pub mod ccomp;
mod gpu;
pub mod heat;
pub mod invert;
pub mod life;
pub mod mandel;
pub mod pixelize;
pub mod rotate;
pub mod sandpile;
pub mod scrollup;
pub mod shapes;
pub mod spin;
pub mod transpose;
mod variant;

use ezp_core::Registry;

/// Builds the registry of every predefined kernel — the equivalent of
/// linking all kernels into the `easypap` binary.
pub fn registry() -> Registry {
    let mut reg = Registry::new();
    reg.register("mandel", || Box::new(mandel::Mandel::default()));
    reg.register("blur", || Box::new(blur::Blur));
    reg.register("life", || Box::new(life::Life::default()));
    reg.register("ccomp", || Box::new(ccomp::CComp::default()));
    reg.register("sandpile", || Box::new(sandpile::Sandpile::default()));
    reg.register("heat", || Box::new(heat::Heat::default()));
    reg.register("rotate90", || Box::new(rotate::Rotate90));
    reg.register("scrollup", || Box::new(scrollup::Scrollup));
    reg.register("transpose", || Box::new(transpose::Transpose));
    reg.register("invert", || Box::new(invert::Invert));
    reg.register("pixelize", || Box::new(pixelize::Pixelize));
    reg.register("spin", || Box::new(spin::Spin::default()));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The variant table in this crate's docs is the first thing a
    /// reader sees; a row that drifts from `variants()` fails here.
    #[test]
    fn every_row_of_the_variant_table_matches_the_registry() {
        let reg = registry();
        let rows: Vec<Vec<&str>> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | [`"))
            .map(|l| l.split('|').collect())
            .collect();
        let mut documented: Vec<&str> = Vec::new();
        for cells in &rows {
            let name = cells[0].split('`').next().unwrap();
            let kernel = reg
                .create(name)
                .unwrap_or_else(|e| panic!("table row `{name}`: {e}"));
            // the variants are the backticked words of the third cell
            let variants: Vec<&str> = cells[2].split('`').skip(1).step_by(2).collect();
            assert_eq!(variants, kernel.variants(), "variants of `{name}`");
            documented.push(name);
        }
        documented.sort_unstable();
        assert_eq!(
            documented,
            reg.kernel_names(),
            "kernels without a table row"
        );
    }

    #[test]
    fn an_unknown_variant_is_refused_by_kernel_and_name() {
        let reg = registry();
        for name in reg.kernel_names() {
            let mut kernel = reg.create(name).unwrap();
            let mut ctx =
                ezp_core::KernelCtx::new(ezp_core::RunConfig::new(name).size(16)).unwrap();
            match kernel.compute(&mut ctx, "nope", 1) {
                Err(ezp_core::Error::UnknownKernel { kernel, variant }) => {
                    assert_eq!((kernel.as_str(), variant.as_str()), (name, "nope"));
                }
                other => panic!("{name}: {other:?}"),
            }
            let mut variants = kernel.variants();
            let listed = variants.len();
            variants.sort_unstable();
            variants.dedup();
            assert_eq!(variants.len(), listed, "{name} lists a variant twice");
        }
    }

    #[test]
    fn registry_contains_all_paper_kernels() {
        let reg = registry();
        for k in [
            "mandel",
            "blur",
            "life",
            "ccomp",
            "sandpile",
            "heat",
            "rotate90",
            "scrollup",
            "transpose",
            "invert",
            "pixelize",
            "spin",
        ] {
            assert!(reg.contains(k), "missing kernel {k}");
            let kernel = reg.create(k).unwrap();
            assert_eq!(kernel.name(), k);
            assert!(
                kernel.variants().contains(&"seq"),
                "{k} must have a seq variant"
            );
        }
    }
}
