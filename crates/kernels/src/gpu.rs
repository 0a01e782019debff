//! The `gpu` variants' launch (paper §V): an OpenCL-style per-work-item
//! function over the image, `ctx.grid`'s tiles as work-groups. There is
//! no device on this host (DESIGN.md), so the host computes the groups
//! one after another and brackets each as a tile on worker 0: the
//! monitor, the heat map and `.ezv` traces see a `gpu` run like any
//! other, and what P compute units would do with those measured groups
//! is the replay `--explain` prints (`ezp-simsched`).

use ezp_core::{Img2D, KernelCtx, Rgba};

/// Runs `f(x, y, src)` for every pixel, work-group by work-group, then
/// makes the result the current image.
pub(crate) fn launch(ctx: &mut KernelCtx, f: impl Fn(usize, usize, &Img2D<Rgba>) -> Rgba) {
    let (src, dst) = ctx.images.rw();
    for t in ctx.grid.iter() {
        ctx.probe.start_tile(0);
        for y in t.y..t.y + t.h {
            for x in t.x..t.x + t.w {
                dst.set(x, y, f(x, y, src));
            }
        }
        ctx.probe.end_tile(t.x, t.y, t.w, t.h, 0);
    }
    ctx.images.swap();
}
