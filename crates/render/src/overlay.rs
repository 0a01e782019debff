//! Tile highlighting over a thumbnail — the Fig. 7 interaction.
//!
//! "Whenever the x-axis of the mouse intersects tasks in the Gantt
//! chart, the corresponding tiles are highlighted over this reduced
//! image, helping to localize computations." [`highlight_tiles`] takes
//! the reduced image, the original image dimension and the tile
//! rectangles to highlight, and paints translucent fills plus a solid
//! outline in the highlight color.

use ezp_core::{Img2D, Rgba, Tile};

/// Alpha-blends `top` (with weight `alpha` in 0..=255) over `bottom`.
fn blend(bottom: Rgba, top: Rgba, alpha: u8) -> Rgba {
    let a = alpha as u32;
    let inv = 255 - a;
    Rgba::new(
        ((top.r() as u32 * a + bottom.r() as u32 * inv) / 255) as u8,
        ((top.g() as u32 * a + bottom.g() as u32 * inv) / 255) as u8,
        ((top.b() as u32 * a + bottom.b() as u32 * inv) / 255) as u8,
        255,
    )
}

/// Paints `tiles` (given in original `dim`-pixel coordinates) over
/// `thumb`, scaled to the thumbnail size: 40 % translucent fill plus a
/// 1-pixel solid border, both in `color`.
pub fn highlight_tiles(thumb: &mut Img2D<Rgba>, dim: usize, tiles: &[Tile], color: Rgba) {
    assert!(dim > 0, "original dimension must be positive");
    let sx = thumb.width() as f64 / dim as f64;
    let sy = thumb.height() as f64 / dim as f64;
    for t in tiles {
        let x0 = (t.x as f64 * sx).floor() as usize;
        let y0 = (t.y as f64 * sy).floor() as usize;
        let x1 = (((t.x + t.w) as f64 * sx).ceil() as usize).min(thumb.width());
        let y1 = (((t.y + t.h) as f64 * sy).ceil() as usize).min(thumb.height());
        if x0 >= x1 || y0 >= y1 {
            continue;
        }
        for y in y0..y1 {
            for x in x0..x1 {
                let border = x == x0 || x + 1 == x1 || y == y0 || y + 1 == y1;
                let alpha = if border { 255 } else { 102 };
                let p = thumb.get(x, y);
                thumb.set(x, y, blend(p, color, alpha));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;

    fn tile(x: usize, y: usize, w: usize, h: usize) -> Tile {
        Tile {
            x,
            y,
            w,
            h,
            tx: 0,
            ty: 0,
        }
    }

    #[test]
    fn blend_extremes() {
        assert_eq!(blend(Rgba::BLACK, Rgba::WHITE, 255), Rgba::WHITE);
        assert_eq!(
            blend(Rgba::new(1, 2, 3, 255), Rgba::WHITE, 0),
            Rgba::new(1, 2, 3, 255)
        );
        let half = blend(Rgba::BLACK, Rgba::WHITE, 128);
        assert!(half.r() > 120 && half.r() < 135);
    }

    #[test]
    fn highlight_draws_border_and_fill() {
        let mut thumb: Img2D<Rgba> = Img2D::filled(16, 16, Rgba::BLACK);
        // thumbnail is 16, original 64: tile (16,16,16,16) -> (4,4)..(8,8)
        highlight_tiles(&mut thumb, 64, &[tile(16, 16, 16, 16)], Rgba::RED);
        assert_eq!(thumb.get(4, 4), Rgba::RED); // border solid
        assert_eq!(thumb.get(7, 7), Rgba::RED);
        let fill = thumb.get(5, 5); // interior translucent
        assert!(fill.r() > 0 && fill.r() < 255);
        assert_eq!(thumb.get(0, 0), Rgba::BLACK); // outside untouched
        assert_eq!(thumb.get(8, 8), Rgba::BLACK);
    }

    #[test]
    fn tiny_tiles_still_visible_on_small_thumbnails() {
        // a 8x8 tile of a 512 image on a 32-pixel thumbnail covers <1px;
        // ceil() guarantees at least one painted pixel
        let mut thumb: Img2D<Rgba> = Img2D::filled(32, 32, Rgba::BLACK);
        highlight_tiles(&mut thumb, 512, &[tile(256, 256, 8, 8)], Rgba::GREEN);
        let painted = thumb
            .as_slice()
            .iter()
            .filter(|&&p| p != Rgba::BLACK)
            .count();
        assert!(painted >= 1);
    }

    #[test]
    fn full_grid_highlight_covers_everything() {
        let grid = TileGrid::square(64, 16).unwrap();
        let tiles: Vec<Tile> = grid.iter().collect();
        let mut thumb: Img2D<Rgba> = Img2D::filled(32, 32, Rgba::BLACK);
        highlight_tiles(&mut thumb, 64, &tiles, Rgba::BLUE);
        assert!(thumb.as_slice().iter().all(|&p| p != Rgba::BLACK));
    }

    #[test]
    fn clipping_at_thumbnail_edges() {
        let mut thumb: Img2D<Rgba> = Img2D::filled(10, 10, Rgba::BLACK);
        // tile extends beyond the original image edge mapping
        highlight_tiles(&mut thumb, 32, &[tile(24, 24, 16, 16)], Rgba::RED);
        // must not panic and must paint the bottom-right corner
        assert_ne!(thumb.get(9, 9), Rgba::BLACK);
    }
}
