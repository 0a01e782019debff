//! The display-substitution pipeline end to end: real kernel runs feed
//! the off-screen renderers that replace EASYPAP's SDL window.

use easypap::core::kernel::Probe;
use easypap::core::perf::run_kernel;
use easypap::prelude::*;
use easypap::render::FrameSink;
use std::sync::Arc;

#[test]
fn life_animation_frames_show_the_glider_moving() {
    let dir = std::env::temp_dir().join(format!("ezp_it_anim_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let reg = easypap::kernels::registry();
    let mut cfg = RunConfig::new("life").size(32).tile(8).iterations(1);
    cfg.kernel_arg = Some("empty".into());

    // drive the kernel one iteration at a time, dumping frames, exactly
    // like `easypap --frames`
    let mut kernel = reg.create("life").unwrap();
    let mut ctx = easypap::core::KernelCtx::new(cfg).unwrap();
    kernel.init(&mut ctx).unwrap();
    // place a glider by painting the current image is not possible (the
    // kernel owns its own bit-board), so use the pattern argument instead
    let mut cfg2 = RunConfig::new("life").size(32).tile(8).iterations(1);
    cfg2.kernel_arg = Some("gliders:16".into());
    let mut ctx = easypap::core::KernelCtx::new(cfg2).unwrap();
    let mut kernel = reg.create("life").unwrap();
    kernel.init(&mut ctx).unwrap();

    let mut sink = FrameSink::new(&dir).unwrap();
    let mut previous: Vec<Rgba> = Vec::new();
    for _ in 0..4 {
        kernel.refresh_image(&mut ctx).unwrap();
        sink.present(ctx.images.cur()).unwrap();
        let now = ctx.images.cur().as_slice().to_vec();
        if !previous.is_empty() {
            assert_ne!(now, previous, "the glider must move between frames");
        }
        previous = now;
        kernel.compute(&mut ctx, "seq", 1).unwrap();
    }
    assert_eq!(sink.frames().len(), 4);
    for f in sink.frames() {
        let bytes = std::fs::read(f).unwrap();
        assert!(bytes.starts_with(b"P6"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mandel_thumbnail_and_overlay_pipeline() {
    // run mandel, downscale the frame to an EASYVIEW-style thumbnail,
    // highlight the tiles of the longest tasks over it
    let reg = easypap::kernels::registry();
    let cfg = RunConfig::new("mandel")
        .variant("omp_tiled")
        .size(128)
        .tile(16)
        .iterations(1)
        .threads(2)
        .schedule(Schedule::Dynamic(1));
    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid().unwrap()));
    let (_, ctx) = run_kernel(&reg, cfg.clone(), monitor.clone() as Arc<dyn Probe>).unwrap();

    let mut thumb = easypap::render::downscale(ctx.images.cur(), 64, 64);
    let before = thumb.clone();
    let report = monitor.report();
    let grid = cfg.grid().unwrap();
    // the 3 most expensive tiles = the Mandelbrot interior
    let mut records = report.records.clone();
    records.sort_by_key(|r| std::cmp::Reverse(r.duration_ns()));
    let tiles: Vec<Tile> = records
        .iter()
        .take(3)
        .map(|r| grid.tile_of_pixel(r.x, r.y))
        .collect();
    easypap::render::highlight_tiles(&mut thumb, 128, &tiles, Rgba::GREEN);
    assert_ne!(thumb, before, "highlights must be visible");
    // ANSI rendering of the overlay works (one row per 2 pixels)
    let ansi = easypap::render::to_ansi(&thumb);
    assert_eq!(ansi.lines().count(), 32);
}

#[test]
fn tiling_window_image_upscales_for_display() {
    // the tiling snapshot's per-tile image, blown up for viewing
    let grid = TileGrid::square(64, 16).unwrap();
    let monitor = Monitor::new(2, grid);
    monitor.iteration_start(1);
    for (i, t) in grid.iter().enumerate() {
        monitor.start_tile(i % 2);
        monitor.end_tile(t.x, t.y, t.w, t.h, i % 2);
    }
    monitor.iteration_end(1);
    let snap = monitor.report().tiling_snapshot(1);
    let small = snap.to_image(1); // 4x4 pixels
    let big = easypap::render::upscale_nearest(&small, 16);
    assert_eq!((big.width(), big.height()), (64, 64));
    // block structure preserved
    assert_eq!(big.get(0, 0), small.get(0, 0));
    assert_eq!(big.get(15, 15), small.get(0, 0));
    assert_eq!(big.get(16, 0), small.get(1, 0));
}
