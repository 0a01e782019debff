//! A dependency-free 24-bit BMP encoder.
//!
//! BMP (`BITMAPINFOHEADER`, bottom-up, BGR, rows padded to 4 bytes) is
//! the simplest format every image viewer opens, making it the default
//! export of the CLI alongside PPM.

use ezp_core::{Img2D, Rgba};

/// Encodes `img` as a BMP byte stream (alpha dropped).
pub fn to_bmp(img: &Img2D<Rgba>) -> Vec<u8> {
    let w = img.width();
    let h = img.height();
    let row_bytes = w * 3;
    let padding = (4 - row_bytes % 4) % 4;
    let pixel_bytes = (row_bytes + padding) * h;
    let file_size = 14 + 40 + pixel_bytes;

    let mut out = Vec::with_capacity(file_size);
    // BITMAPFILEHEADER
    out.extend_from_slice(b"BM");
    out.extend_from_slice(&(file_size as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&54u32.to_le_bytes()); // pixel data offset
    // BITMAPINFOHEADER
    out.extend_from_slice(&40u32.to_le_bytes());
    out.extend_from_slice(&(w as i32).to_le_bytes());
    out.extend_from_slice(&(h as i32).to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // planes
    out.extend_from_slice(&24u16.to_le_bytes()); // bpp
    out.extend_from_slice(&0u32.to_le_bytes()); // BI_RGB
    out.extend_from_slice(&(pixel_bytes as u32).to_le_bytes());
    out.extend_from_slice(&2835u32.to_le_bytes()); // 72 dpi
    out.extend_from_slice(&2835u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // palette
    out.extend_from_slice(&0u32.to_le_bytes());
    // pixel data, bottom-up, BGR
    for y in (0..h).rev() {
        for x in 0..w {
            let p = img.get(x, y);
            out.extend_from_slice(&[p.b(), p.g(), p.r()]);
        }
        out.extend(std::iter::repeat_n(0u8, padding));
    }
    debug_assert_eq!(out.len(), file_size);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u32_at(b: &[u8], i: usize) -> u32 {
        u32::from_le_bytes(b[i..i + 4].try_into().unwrap())
    }

    #[test]
    fn header_fields() {
        let img: Img2D<Rgba> = Img2D::filled(5, 3, Rgba::GREEN); // 5*3=15 bytes/row + 1 pad
        let bmp = to_bmp(&img);
        assert_eq!(&bmp[..2], b"BM");
        assert_eq!(u32_at(&bmp, 2) as usize, bmp.len());
        assert_eq!(u32_at(&bmp, 10), 54);
        assert_eq!(u32_at(&bmp, 14), 40);
        assert_eq!(u32_at(&bmp, 18), 5); // width
        assert_eq!(u32_at(&bmp, 22), 3); // height
        assert_eq!(bmp.len(), 54 + (15 + 1) * 3);
    }

    #[test]
    fn pixels_are_bottom_up_bgr() {
        let mut img: Img2D<Rgba> = Img2D::new(2, 2);
        img.set(0, 0, Rgba::RED); // top-left
        img.set(1, 1, Rgba::BLUE); // bottom-right
        let bmp = to_bmp(&img);
        let data = &bmp[54..];
        // first stored row = image bottom row: [black, blue]
        assert_eq!(&data[0..3], &[0, 0, 0]);
        assert_eq!(&data[3..6], &[255, 0, 0]); // blue in BGR
        // second stored row = image top row: [red, black]
        assert_eq!(&data[8..11], &[0, 0, 255]); // red in BGR
    }

    #[test]
    fn row_padding_multiple_of_four() {
        for w in 1..=8 {
            let img: Img2D<Rgba> = Img2D::filled(w, 2, Rgba::WHITE);
            let bmp = to_bmp(&img);
            let row = (w * 3).div_ceil(4) * 4;
            assert_eq!(bmp.len(), 54 + row * 2, "width {w}");
        }
    }
}
