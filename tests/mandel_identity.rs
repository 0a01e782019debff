//! Value identity of the Mandelbrot kernel: the lane-parallel row
//! routine and the palette table must reproduce scalar
//! `escape_iterations` and `mandel_color` count for count and byte for
//! byte. The cross-variant tests only compare a variant with `seq` of
//! the *same* tree, so a change that moved every variant together would
//! pass them; the digests below were computed from frames dumped by the
//! commit *before* `escape_row` existed and pin the pixels themselves.

use easypap::core::error::Error;
use easypap::core::kernel::NullProbe;
use easypap::core::perf::run_kernel;
use easypap::kernels::mandel::{
    escape_iterations, escape_row, tile_cost, Viewport, MAX_ITER_LIMIT,
};
use easypap::prelude::*;
use ezp_serve::proto::fnv1a;
use ezp_testkit::ezp_proptest;
use ezp_testkit::prop::select;
use std::sync::Arc;

/// The caps of the value-identity tests: the degenerate ones, both
/// sides of the default, and one far above it.
const CAPS: [u32; 6] = [0, 1, 2, 255, 256, 1000];

fn assert_row_matches_scalar(view: &Viewport, y: usize, x0: usize, dim: usize, cap: u32, w: usize) {
    let mut got = vec![u32::MAX; w];
    escape_row(view, y, x0, dim, cap, &mut got);
    for (i, &n) in got.iter().enumerate() {
        let (cx, cy) = view.pixel_to_complex(x0 + i, y, dim);
        assert_eq!(
            n,
            escape_iterations(cx, cy, cap),
            "pixel ({},{y}) of {dim}, cap {cap}, row from {x0} of width {w}, {view:?}",
            x0 + i
        );
    }
}

#[test]
fn escape_row_matches_scalar_over_the_full_view() {
    // every row of the full view (its corners have |c| = 2.48); of the
    // widths 64, 63, 61, 60 and 58 all but the first leave a scalar tail
    // for some lane count, and 61 is odd so no row mirrors another
    let view = Viewport::default();
    for dim in [61, 64] {
        for y in 0..dim {
            for x0 in [0, 1, 3] {
                for cap in CAPS {
                    assert_row_matches_scalar(&view, y, x0, dim, cap, dim - x0);
                }
            }
        }
    }
    // the middle rows cross the cardioid and the bulb, so both answers of
    // the interior pre-test occur next to each other within a group
    let mut row = [0u32; 64];
    escape_row(&view, 32, 0, 64, 1000, &mut row);
    let interior = row.iter().filter(|&&n| n == 1000).count();
    assert!(
        interior > 8 && interior < 56,
        "{interior} of 64 pixels interior"
    );
}

/// A row of a `dim`-pixel image picked by three numbers: any row, any
/// start column, any width that fits (0 included).
fn pick_row(dim: usize, y: usize, x0: usize, w: usize) -> (usize, usize, usize) {
    let x0 = x0 % dim;
    (y % dim, x0, w % (dim - x0 + 1))
}

ezp_proptest! {
    fn prop_escape_row_equals_scalar_along_the_zoom(
        zooms in 0usize..150,
        dim in 1usize..80,
        y in 0usize..10_000,
        x0 in 0usize..10_000,
        w in 0usize..10_000,
        cap in select(CAPS.to_vec()),
    ) {
        let mut view = Viewport::default();
        for _ in 0..zooms {
            view.zoom();
        }
        let (y, x0, w) = pick_row(dim, y, x0, w);
        assert_row_matches_scalar(&view, y, x0, dim, cap, w);
    }

    fn prop_escape_row_equals_scalar_in_any_window(
        center_x in -2.3f64..1.0,
        center_y in -1.6f64..1.6,
        halvings in 0u32..30,
        dim in 1usize..80,
        pick in 0usize..1_000_000_000,
        cap in select(CAPS.to_vec()),
    ) {
        let half = 1.5 / f64::from(1u32 << halvings);
        let view = Viewport {
            xmin: center_x - half,
            xmax: center_x + half,
            ymin: center_y - half,
            ymax: center_y + half,
        };
        let (y, x0, w) = pick_row(dim, pick, pick / 1_000, pick / 1_000_000);
        assert_row_matches_scalar(&view, y, x0, dim, cap, w);
    }
}

#[test]
fn tile_cost_on_ragged_tiles_is_the_per_pixel_sum() {
    // 50 = 3 * 13 + 11: every tile row has a scalar tail and the edge
    // tiles are narrower and shorter
    let mut view = Viewport::default();
    view.zoom();
    let grid = TileGrid::square(50, 13).unwrap();
    for t in grid.iter() {
        let mut manual = 0u64;
        for y in t.y..t.y + t.h {
            for x in t.x..t.x + t.w {
                let (cx, cy) = view.pixel_to_complex(x, y, 50);
                manual += escape_iterations(cx, cy, 300) as u64;
            }
        }
        assert_eq!(tile_cost(&view, t, 50, 300), manual, "tile {t:?}");
    }
}

fn mandel(variant: &str, dim: usize, tile: usize, iters: u32, arg: Option<&str>) -> RunConfig {
    let mut cfg = RunConfig::new("mandel")
        .variant(variant)
        .size(dim)
        .tile(tile)
        .iterations(iters)
        .threads(2);
    cfg.kernel_arg = arg.map(str::to_string);
    cfg
}

fn frame_digest(cfg: RunConfig) -> u64 {
    let what = format!("{} {:?} {:?}", cfg.variant, cfg.schedule, cfg.kernel_arg);
    let (_, ctx) = run_kernel(&easypap::kernels::registry(), cfg, Arc::new(NullProbe))
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    fnv1a(&ctx.images.cur().to_ppm())
}

/// FNV-1a of the final-frame PPM the parent commit's `easypap` wrote for
/// `--kernel mandel --size 64 --tile-size 16 --iterations 3`, variants
/// `seq` and `tiled` (one digest: they agreed there too).
const PARENT_64_X3: u64 = 0x8ea2_0d0e_e33b_bc51;
/// Same for `--variant omp_tiled --size 200 --tile-size 8 --iterations 7
/// --arg 1000 --threads 2`: ragged tiles, a cap above the default.
const PARENT_200_T8_X7_CAP1000: u64 = 0x23dc_6b7f_c1e3_269c;

#[test]
fn frames_match_the_digests_pinned_at_the_parent() {
    let schedules = [
        Schedule::Static,
        Schedule::Dynamic(1),
        Schedule::Guided(1),
        Schedule::NonmonotonicDynamic(1),
    ];
    let variants = easypap::kernels::registry()
        .create("mandel")
        .unwrap()
        .variants();
    assert_eq!(variants, ["seq", "tiled", "omp", "omp_tiled", "gpu"]);
    for variant in variants {
        for schedule in schedules {
            assert_eq!(
                frame_digest(mandel(variant, 64, 16, 3, None).schedule(schedule)),
                PARENT_64_X3,
                "{variant} under {schedule:?}, 64x64"
            );
            assert_eq!(
                frame_digest(mandel(variant, 200, 8, 7, Some("1000")).schedule(schedule)),
                PARENT_200_T8_X7_CAP1000,
                "{variant} under {schedule:?}, 200x200 tile 8 cap 1000"
            );
        }
    }
}

/// Same as [`PARENT_64_X3`] with `--arg 64 --threads 2`.
const PARENT_64_X3_CAP64: u64 = 0x38f9_bd63_1229_3595;

#[test]
fn the_shared_palette_is_keyed_by_the_cap() {
    // the default cap's palette is built once per process: a run at
    // another cap between two default runs must neither reuse it nor
    // leave its own behind (`--arg 256` is the default cap, spelled out)
    for (arg, want) in [
        (None, PARENT_64_X3),
        (Some("64"), PARENT_64_X3_CAP64),
        (None, PARENT_64_X3),
        (Some("256"), PARENT_64_X3),
        (Some("64"), PARENT_64_X3_CAP64),
    ] {
        assert_eq!(
            frame_digest(mandel("seq", 64, 16, 3, arg)),
            want,
            "--arg {arg:?}"
        );
    }
}

#[test]
fn max_iter_from_the_command_line_is_bounded() {
    // the cap sizes the palette table: refused before anything is sized by it
    for arg in ["1048577", "4294967295"] {
        let cfg = mandel("seq", 32, 8, 1, Some(arg));
        match run_kernel(&easypap::kernels::registry(), cfg, Arc::new(NullProbe)) {
            Err(Error::Config(msg)) => {
                assert!(msg.contains("1048576"), "limit not named in `{msg}`")
            }
            Err(e) => panic!("--arg {arg}: expected a configuration error, got {e}"),
            Ok(_) => panic!("--arg {arg} was accepted"),
        }
    }
    assert_eq!(MAX_ITER_LIMIT, 1_048_576);
}

#[test]
fn degenerate_caps_paint_black_frames() {
    // cap 0: every count is 0 = max_iter (a one-entry table); cap 1: every
    // orbit starts at |z| = 0 < 2, so every count is 1 = max_iter
    for arg in ["0", "1"] {
        for variant in ["seq", "tiled", "omp", "omp_tiled", "gpu"] {
            let cfg = mandel(variant, 32, 8, 2, Some(arg));
            let (_, ctx) =
                run_kernel(&easypap::kernels::registry(), cfg, Arc::new(NullProbe)).unwrap();
            assert!(
                ctx.images
                    .cur()
                    .as_slice()
                    .iter()
                    .all(|&p| p == Rgba::BLACK),
                "--arg {arg}, {variant}"
            );
        }
    }
}
