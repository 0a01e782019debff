//! The `gpu` variants' launch (paper §V): an OpenCL-style per-work-item
//! function over the image, `ctx.grid`'s tiles as work-groups. There is
//! no device on this host (DESIGN.md), so the host computes the groups
//! one after another and reports each as worker 0's tile: the
//! monitor, the heat map and `.ezv` traces see a `gpu` run like any
//! other, and what P compute units would do with those measured groups
//! is the replay `--explain` prints (`ezp-simsched`).

use ezp_core::{Img2D, KernelCtx, Rgba, TileGrid};
use ezp_sched::parallel_for_tiles_img;

/// Claims the next image [`launch`] writes when the run's variant is
/// `gpu`, so its allocation lands in `init`, not on the clock.
pub(crate) fn claim_next(ctx: &mut KernelCtx) {
    if ctx.cfg.variant == "gpu" {
        ctx.images.next_mut();
    }
}

/// Runs `f(x, y, src)` for every pixel, work-group (tile of `groups`)
/// by work-group, then makes the result the current image.
pub(crate) fn launch(
    ctx: &mut KernelCtx,
    groups: &TileGrid,
    f: impl Fn(usize, usize, &Img2D<Rgba>) -> Rgba + Sync,
) {
    let (src, dst) = ctx.images.rw();
    parallel_for_tiles_img(None, groups, ctx.cfg.schedule, &*ctx.probe, dst, |w, _| {
        crate::variant::paint(w, |x, y| f(x, y, src));
    });
    ctx.images.swap();
}
