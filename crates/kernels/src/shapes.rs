//! Deterministic input generators for kernels and tests.
//!
//! EASYPAP ships images and datasets with its kernels (the transparent
//! shapes `ccomp` labels, the sparse spaceship dataset of Fig. 13);
//! these generators produce equivalent inputs procedurally so every run
//! is reproducible from a seed.

use ezp_core::{Img2D, Rgba};
use ezp_testkit::Rng;

/// Paints a colorful deterministic test card: RGB gradients with a
/// bright disc and a dark square, exercising every channel.
pub fn test_card(img: &mut Img2D<Rgba>) {
    let w = img.width().max(1);
    let h = img.height().max(1);
    // red depends on x only, green on y only, blue on x + y: three small
    // tables instead of three divisions per pixel
    let red: Vec<u8> = (0..w).map(|x| (255 * x / w) as u8).collect();
    let blue: Vec<u8> = (0..w + h).map(|s| (255 * s / (w + h)) as u8).collect();
    for y in 0..img.height() {
        let g = (255 * y / h) as u8;
        for (x, p) in img.row_mut(y).iter_mut().enumerate() {
            *p = Rgba::new(red[x], g, blue[x + y], 255);
        }
    }
    // bright disc in the upper-left quadrant
    let (cx, cy, rad) = (w / 4, h / 4, (w.min(h) / 6).max(1));
    fill_disc(img, cx, cy, rad, Rgba::WHITE);
    // dark square in the lower-right quadrant
    let side = (w.min(h) / 5).max(1);
    fill_rect(
        img,
        3 * w / 5,
        3 * h / 5,
        side,
        side,
        Rgba::new(10, 10, 10, 255),
    );
}

/// Fills the disc of radius `r` centered at `(cx, cy)`.
pub fn fill_disc(img: &mut Img2D<Rgba>, cx: usize, cy: usize, r: usize, color: Rgba) {
    let r2 = (r * r) as i64;
    let (w, h) = (img.width() as i64, img.height() as i64);
    for y in (cy as i64 - r as i64).max(0)..(cy as i64 + r as i64 + 1).min(h) {
        for x in (cx as i64 - r as i64).max(0)..(cx as i64 + r as i64 + 1).min(w) {
            let dx = x - cx as i64;
            let dy = y - cy as i64;
            if dx * dx + dy * dy <= r2 {
                img.set(x as usize, y as usize, color);
            }
        }
    }
}

/// Fills the axis-aligned rectangle (clipped to the image).
pub fn fill_rect(img: &mut Img2D<Rgba>, x0: usize, y0: usize, w: usize, h: usize, color: Rgba) {
    for y in y0..(y0 + h).min(img.height()) {
        for x in x0..(x0 + w).min(img.width()) {
            img.set(x, y, color);
        }
    }
}

/// The `ccomp` input: a transparent background with opaque shapes
/// (discs and rectangles) — "separated by transparent pixels" (§III-C).
/// Returns the number of shapes drawn.
pub fn ccomp_scene(img: &mut Img2D<Rgba>, seed: u64) -> usize {
    img.fill(Rgba::TRANSPARENT);
    let dim = img.width().min(img.height());
    if dim < 8 {
        return 0;
    }
    let mut rng = Rng::seed(seed);
    // place non-overlapping discs on a coarse grid so components stay
    // separated (a margin of >= 1 transparent pixel between shapes)
    let cells = (dim / 8).clamp(2, 8);
    let cell = dim / cells;
    let mut shapes = 0;
    for gy in 0..cells {
        for gx in 0..cells {
            if !rng.gen_bool(0.5) {
                continue;
            }
            let r = cell / 4;
            if r == 0 {
                continue;
            }
            let cx = gx * cell + cell / 2;
            let cy = gy * cell + cell / 2;
            let color = Rgba::new(
                rng.gen_range(30u8..=255),
                rng.gen_range(30u8..=255),
                rng.gen_range(30u8..=255),
                255,
            );
            if rng.gen_bool(0.5) {
                fill_disc(img, cx, cy, r, color);
            } else {
                fill_rect(img, cx - r, cy - r, 2 * r, 2 * r, color);
            }
            shapes += 1;
        }
    }
    shapes
}

/// A glider (the classic 5-cell spaceship) stamped with its top-left
/// corner at `(x, y)`, travelling down-right.
pub const GLIDER: [(usize, usize); 5] = [(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)];

/// Stamps a glider into a boolean cell closure (used by `life`).
pub fn stamp_glider(mut set: impl FnMut(usize, usize), x: usize, y: usize) {
    for &(dx, dy) in &GLIDER {
        set(x + dx, y + dy);
    }
}

/// Positions for the Fig. 13 dataset: gliders "evolving along the
/// diagonals of the image" — one every `spacing` cells down both
/// diagonals of a `dim`×`dim` board.
pub fn diagonal_glider_positions(dim: usize, spacing: usize) -> Vec<(usize, usize)> {
    let spacing = spacing.max(8);
    let mut out = Vec::new();
    let mut d = spacing / 2;
    while d + 8 < dim {
        out.push((d, d)); // main diagonal
        if dim - d >= 12 && d + 8 < dim {
            out.push((dim - d - 10, d)); // anti-diagonal
        }
        d += spacing;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_card_fills_every_pixel_opaquely() {
        let mut img = Img2D::square(32);
        test_card(&mut img);
        assert!(img.as_slice().iter().all(|p| p.a() == 255));
        // gradients: corners differ
        assert_ne!(img.get(0, 0), img.get(31, 31));
    }

    #[test]
    fn test_card_gradient_is_the_per_pixel_formula() {
        for (w, h) in [(29, 17), (64, 64)] {
            let mut img = Img2D::new(w, h);
            test_card(&mut img);
            let mut old = Img2D::new(w, h);
            old.for_each_mut(|x, y, p| {
                let r = (255 * x / w) as u8;
                let g = (255 * y / h) as u8;
                let b = (255 * (x + y) / (w + h)) as u8;
                *p = Rgba::new(r, g, b, 255);
            });
            let (cx, cy, rad) = (w / 4, h / 4, (w.min(h) / 6).max(1));
            fill_disc(&mut old, cx, cy, rad, Rgba::WHITE);
            let side = (w.min(h) / 5).max(1);
            fill_rect(
                &mut old,
                3 * w / 5,
                3 * h / 5,
                side,
                side,
                Rgba::new(10, 10, 10, 255),
            );
            assert!(img == old, "{w}x{h} test card moved");
        }
    }

    #[test]
    fn disc_is_inside_bounding_box_and_filled() {
        let mut img = Img2D::square(32);
        fill_disc(&mut img, 16, 16, 5, Rgba::RED);
        assert_eq!(img.get(16, 16), Rgba::RED);
        assert_eq!(img.get(16, 11), Rgba::RED); // on the radius
        assert_eq!(img.get(25, 16), Rgba::TRANSPARENT);
        // clipping: disc at the border must not panic
        fill_disc(&mut img, 0, 0, 10, Rgba::BLUE);
        assert_eq!(img.get(0, 0), Rgba::BLUE);
    }

    #[test]
    fn rect_clips_to_image() {
        let mut img = Img2D::square(16);
        fill_rect(&mut img, 12, 12, 100, 100, Rgba::GREEN);
        assert_eq!(img.get(15, 15), Rgba::GREEN);
        assert_eq!(img.get(11, 11), Rgba::TRANSPARENT);
    }

    #[test]
    fn ccomp_scene_is_reproducible_and_sparse() {
        let mut a = Img2D::square(64);
        let mut b = Img2D::square(64);
        let na = ccomp_scene(&mut a, 7);
        let nb = ccomp_scene(&mut b, 7);
        assert_eq!(na, nb);
        assert_eq!(a, b);
        assert!(na > 0, "seed 7 must draw something");
        let occ = a.occupancy();
        assert!(occ > 0.0 && occ < 0.5, "scene should be sparse, got {occ}");
        // a different seed gives a different scene
        let mut c = Img2D::square(64);
        ccomp_scene(&mut c, 8);
        assert_ne!(a, c);
    }

    /// Pins the PRNG-dependent output of the seeded scene generator: the
    /// first 16 opaque pixels (in row-major order) of `ccomp_scene` with
    /// the default seed must never change, or saved traces and recorded
    /// benchmarks stop being comparable across versions.
    #[test]
    fn ccomp_scene_first_cells_are_pinned() {
        let mut img = Img2D::square(64);
        ccomp_scene(&mut img, 42);
        let mut first: Vec<(usize, usize, [u8; 4])> = Vec::new();
        'scan: for y in 0..64 {
            for x in 0..64 {
                let p = img.get(x, y);
                if p.a() != 0 {
                    first.push((x, y, [p.r(), p.g(), p.b(), p.a()]));
                    if first.len() == 16 {
                        break 'scan;
                    }
                }
            }
        }
        let expected = vec![
            (10, 2, [116, 40, 159, 255]),
            (11, 2, [116, 40, 159, 255]),
            (12, 2, [116, 40, 159, 255]),
            (13, 2, [116, 40, 159, 255]),
            (18, 2, [224, 189, 62, 255]),
            (19, 2, [224, 189, 62, 255]),
            (20, 2, [224, 189, 62, 255]),
            (21, 2, [224, 189, 62, 255]),
            (44, 2, [95, 228, 254, 255]),
            (58, 2, [220, 189, 201, 255]),
            (59, 2, [220, 189, 201, 255]),
            (60, 2, [220, 189, 201, 255]),
            (61, 2, [220, 189, 201, 255]),
            (10, 3, [116, 40, 159, 255]),
            (11, 3, [116, 40, 159, 255]),
            (12, 3, [116, 40, 159, 255]),
        ];
        assert_eq!(first, expected);
    }

    #[test]
    fn tiny_ccomp_scene_is_empty_not_panicking() {
        let mut img = Img2D::square(4);
        assert_eq!(ccomp_scene(&mut img, 1), 0);
    }

    #[test]
    fn glider_positions_stay_in_bounds() {
        for dim in [64, 128, 256] {
            let pos = diagonal_glider_positions(dim, 16);
            assert!(!pos.is_empty());
            for &(x, y) in &pos {
                assert!(
                    x + 3 <= dim && y + 3 <= dim,
                    "glider at ({x},{y}) exceeds {dim}"
                );
            }
        }
    }

    #[test]
    fn glider_positions_follow_diagonals() {
        let dim = 128;
        for &(x, y) in &diagonal_glider_positions(dim, 16) {
            let on_main = x == y;
            let on_anti = (x as i64 - (dim as i64 - y as i64 - 10)).abs() <= 1;
            assert!(on_main || on_anti, "({x},{y}) is on neither diagonal");
        }
    }

    #[test]
    fn stamp_glider_sets_five_cells() {
        let mut cells = std::collections::HashSet::new();
        stamp_glider(
            |x, y| {
                cells.insert((x, y));
            },
            10,
            20,
        );
        assert_eq!(cells.len(), 5);
        assert!(cells.contains(&(11, 20)));
        assert!(cells.contains(&(12, 22)));
    }
}
