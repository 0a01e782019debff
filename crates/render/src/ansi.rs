//! True-color terminal rendering with half-block glyphs.
//!
//! Each character cell shows two vertically stacked pixels: the upper
//! one as the foreground color of `▀` (U+2580), the lower one as the
//! background. A 64×64 image therefore needs 64×32 cells — small
//! enough for a terminal, sharp enough to recognize the Mandelbrot set.

use ezp_core::{Img2D, Rgba};

/// The glyph whose foreground paints the upper pixel.
const UPPER_HALF: char = '\u{2580}';

/// Renders `img` as ANSI true-color text (rows of half-blocks, reset at
/// each line end). Odd heights get a black bottom pixel on the last row.
pub fn to_ansi(img: &Img2D<Rgba>) -> String {
    let w = img.width();
    let h = img.height();
    let mut out = String::with_capacity(w * h * 20);
    let mut y = 0;
    while y < h {
        for x in 0..w {
            let top = img.get(x, y);
            let bottom = if y + 1 < h { img.get(x, y + 1) } else { Rgba::BLACK };
            out.push_str(&format!(
                "\x1b[38;2;{};{};{}m\x1b[48;2;{};{};{}m{}",
                top.r(),
                top.g(),
                top.b(),
                bottom.r(),
                bottom.g(),
                bottom.b(),
                UPPER_HALF
            ));
        }
        out.push_str("\x1b[0m\n");
        y += 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ansi_has_one_row_per_two_pixel_rows() {
        let img: Img2D<Rgba> = Img2D::filled(4, 6, Rgba::RED);
        let s = to_ansi(&img);
        assert_eq!(s.lines().count(), 3);
        assert_eq!(s.matches(UPPER_HALF).count(), 12);
        assert!(s.contains("\x1b[38;2;255;0;0m"));
        assert!(s.ends_with("\x1b[0m\n"));
    }

    #[test]
    fn odd_height_padded_with_black() {
        let img: Img2D<Rgba> = Img2D::filled(2, 3, Rgba::WHITE);
        let s = to_ansi(&img);
        assert_eq!(s.lines().count(), 2);
        // last row's background is black padding
        assert!(s.contains("\x1b[48;2;0;0;0m"));
    }
}
