//! Fig. 9 — heat-map mode: (a) mandel, (b) blur.
//!
//! "The brighter an area is, the more time-consuming it is. On picture
//! (a) we can distinguish the shape of the Mandelbrot set... On picture
//! (b), border tiles take a longer time to be processed than inner
//! tiles." Both panels are reproduced from *real measured* kernel runs
//! (wall-clock per-tile durations), rendered as ASCII heat maps, and
//! quantified.

use ezp_bench::banner;
use ezp_core::kernel::Probe;
use ezp_core::perf::run_kernel;
use ezp_core::{RunConfig, Schedule};
use ezp_monitor::{HeatMap, Monitor};
use std::sync::Arc;

fn measured_heat(kernel: &str, variant: &str, dim: usize, tile: usize) -> HeatMap {
    let cfg = RunConfig::new(kernel)
        .variant(variant)
        .size(dim)
        .tile(tile)
        .iterations(2)
        .threads(2)
        .schedule(Schedule::Dynamic(2));
    let reg = ezp_kernels::registry();
    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid().unwrap()));
    run_kernel(&reg, cfg, monitor.clone() as Arc<dyn Probe>).unwrap();
    monitor.report().heat_map(2)
}

fn main() {
    banner(
        "Fig. 9",
        "heat maps: (a) mandel set shape, (b) blur borders",
    );

    // (a) mandel: the set's interior glows
    println!("--- (a) mandel omp_tiled, 256x256, tiles 16x16 ---");
    let mandel = measured_heat("mandel", "omp_tiled", 256, 16);
    print!("{}", mandel.to_ascii());
    let img = mandel.to_image(4);
    std::fs::write("fig09a_mandel_heat.ppm", img.to_ppm()).unwrap();
    println!(
        "max tile {:.1}x the mean — the bright region IS the Mandelbrot set\n-> fig09a_mandel_heat.ppm\n",
        mandel.max_duration() as f64 / mandel.mean_duration().max(1.0)
    );

    // (b) the *optimized* blur: the paper's panel shows the heat map
    // "after implementing this optimization" — inner tiles now run the
    // branch-free fast path, so the borders glow
    println!("--- (b) blur omp_tiled_opt (border-specialized), 256x256, tiles 32x32 ---");
    let opt = measured_heat("blur", "omp_tiled_opt", 256, 32);
    print!("{}", opt.to_ascii());
    match opt.border_inner_ratio() {
        Some(r) => println!("border/inner mean duration: x{r:.2} (paper: borders slower)"),
        None => println!("grid too small for inner tiles"),
    }
    std::fs::write("fig09b_blur_heat.ppm", opt.to_image(4).to_ppm()).unwrap();
    println!("-> fig09b_blur_heat.ppm\n");

    // contrast with the unoptimized variant, whose map is flat-ish
    let basic = measured_heat("blur", "omp_tiled", 256, 32);
    if let (Some(basic_r), Some(opt_r)) = (basic.border_inner_ratio(), opt.border_inner_ratio()) {
        println!(
            "border/inner ratio, basic vs optimized: x{basic_r:.2} -> x{opt_r:.2}\n\
             (before the optimization every tile runs the same branchy code, so\n\
             the map is nearly flat; specializing the inner tiles makes the\n\
             borders stand out — exactly what students check in Fig. 9b)"
        );
    }
}
