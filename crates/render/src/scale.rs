//! Image scaling: box-filter thumbnails and nearest-neighbour zoom.

use ezp_core::{Img2D, Rgba};

/// Downscales `img` to `out_w`×`out_h` with an area-weighted box filter
/// — EASYVIEW's "reduced view of the surface computed" thumbnail.
pub fn downscale(img: &Img2D<Rgba>, out_w: usize, out_h: usize) -> Img2D<Rgba> {
    assert!(out_w > 0 && out_h > 0, "empty output size");
    assert!(
        out_w <= img.width() && out_h <= img.height(),
        "downscale cannot enlarge"
    );
    let mut out = Img2D::new(out_w, out_h);
    let sx = img.width() as f64 / out_w as f64;
    let sy = img.height() as f64 / out_h as f64;
    for oy in 0..out_h {
        let y0 = (oy as f64 * sy) as usize;
        let y1 = (((oy + 1) as f64 * sy).ceil() as usize).min(img.height()).max(y0 + 1);
        for ox in 0..out_w {
            let x0 = (ox as f64 * sx) as usize;
            let x1 = (((ox + 1) as f64 * sx).ceil() as usize).min(img.width()).max(x0 + 1);
            let (mut r, mut g, mut b, mut a) = (0u64, 0u64, 0u64, 0u64);
            for y in y0..y1 {
                for x in x0..x1 {
                    let p = img.get(x, y);
                    r += p.r() as u64;
                    g += p.g() as u64;
                    b += p.b() as u64;
                    a += p.a() as u64;
                }
            }
            let n = ((x1 - x0) * (y1 - y0)) as u64;
            out.set(
                ox,
                oy,
                Rgba::new((r / n) as u8, (g / n) as u8, (b / n) as u8, (a / n) as u8),
            );
        }
    }
    out
}

/// Upscales `img` by an integer `factor` with nearest-neighbour
/// sampling — used to blow tiny tiling maps up to viewable sizes.
pub fn upscale_nearest(img: &Img2D<Rgba>, factor: usize) -> Img2D<Rgba> {
    assert!(factor > 0, "zero scale factor");
    let mut out = Img2D::new(img.width() * factor, img.height() * factor);
    for y in 0..out.height() {
        for x in 0..out.width() {
            out.set(x, y, img.get(x / factor, y / factor));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::any_u64;

    #[test]
    fn downscale_uniform_image_is_uniform() {
        let img: Img2D<Rgba> = Img2D::filled(16, 16, Rgba::new(10, 20, 30, 255));
        let thumb = downscale(&img, 4, 4);
        assert_eq!(thumb.width(), 4);
        assert!(thumb.as_slice().iter().all(|&p| p == Rgba::new(10, 20, 30, 255)));
    }

    #[test]
    fn downscale_averages_blocks() {
        // 2x2 -> 1x1: checkerboard of black and white averages to gray
        let mut img: Img2D<Rgba> = Img2D::new(2, 2);
        img.set(0, 0, Rgba::WHITE);
        img.set(1, 1, Rgba::WHITE);
        img.set(1, 0, Rgba::new(0, 0, 0, 255));
        img.set(0, 1, Rgba::new(0, 0, 0, 255));
        let t = downscale(&img, 1, 1);
        let p = t.get(0, 0);
        assert_eq!(p.r(), 127);
        assert_eq!(p.a(), 255);
    }

    #[test]
    fn downscale_non_divisible_sizes() {
        let img: Img2D<Rgba> = Img2D::filled(10, 7, Rgba::RED);
        let t = downscale(&img, 3, 2);
        assert_eq!((t.width(), t.height()), (3, 2));
        assert!(t.as_slice().iter().all(|&p| p == Rgba::RED));
    }

    #[test]
    fn upscale_replicates_pixels() {
        let mut img: Img2D<Rgba> = Img2D::new(2, 1);
        img.set(0, 0, Rgba::RED);
        img.set(1, 0, Rgba::BLUE);
        let big = upscale_nearest(&img, 3);
        assert_eq!((big.width(), big.height()), (6, 3));
        assert_eq!(big.get(0, 0), Rgba::RED);
        assert_eq!(big.get(2, 2), Rgba::RED);
        assert_eq!(big.get(3, 0), Rgba::BLUE);
        assert_eq!(big.get(5, 2), Rgba::BLUE);
    }

    #[test]
    #[should_panic(expected = "cannot enlarge")]
    fn downscale_rejects_enlarging() {
        let img: Img2D<Rgba> = Img2D::filled(4, 4, Rgba::RED);
        drop(downscale(&img, 8, 2));
    }

    ezp_proptest! {
        #![cases(24)]

        fn prop_downscale_preserves_mean_within_rounding(
            w in 2usize..32,
            h in 2usize..32,
            ow in 1usize..8,
            oh in 1usize..8,
            seed in any_u64(),
        ) {
            let ow = ow.min(w);
            let oh = oh.min(h);
            let mut state = seed;
            let mut img: Img2D<Rgba> = Img2D::new(w, h);
            img.for_each_mut(|_, _, p| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *p = Rgba::new((state >> 33) as u8, (state >> 41) as u8, (state >> 49) as u8, 255);
            });
            let t = downscale(&img, ow, oh);
            let mean = |i: &Img2D<Rgba>| {
                i.as_slice().iter().map(|p| p.r() as f64).sum::<f64>() / (i.width() * i.height()) as f64
            };
            // box filtering keeps the global mean within rounding error +
            // a small imbalance term from non-uniform block sizes
            assert!((mean(&img) - mean(&t)).abs() < 24.0);
        }
    }
}
