//! 2D image buffers and the double-buffering scheme used by stencil kernels.
//!
//! EASYPAP exposes images through the `cur_img(y, x)` / `next_img(y, x)`
//! macros and swaps the two buffers between iterations (see the `blur`
//! kernel, §III-B of the paper). [`Img2D`] is the generic buffer and
//! [`ImagePair`] is the swap-able current/next pair.

use crate::color::Rgba;
use crate::error::{Error, Result};

/// Bytes in a cache line: where row 0 of every [`Img2D`] starts.
pub const CACHE_LINE: usize = 64;

/// A dense row-major 2D buffer of `T`.
///
/// EASYPAP "works on square shape images" but nothing in the framework
/// actually requires squareness, so width and height are kept separate;
/// the [`Img2D::square`] constructor covers the common case.
///
/// Row 0 starts on a [`CACHE_LINE`] boundary (the allocation is one line
/// longer than the pixels and indexed from its first aligned element),
/// so when a row is a whole number of lines, a tile row of a whole
/// number of lines shares none with its neighbours, and an 8-pixel
/// `Rgba` row never straddles two. Cloning re-places the pixels and
/// equality compares pixels only: where the line falls in the
/// allocation is not part of an image's value.
pub struct Img2D<T> {
    width: usize,
    height: usize,
    /// The pixels are `buf[off..]`.
    buf: Vec<T>,
    off: usize,
}

impl<T: std::fmt::Debug> std::fmt::Debug for Img2D<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Img2D({}x{})", self.width, self.height)
    }
}

impl<T: Copy> Clone for Img2D<T> {
    fn clone(&self) -> Self {
        Self::placed(self.width, self.height, self.as_slice())
    }
}

impl<T: Copy + PartialEq> PartialEq for Img2D<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.width, self.height) == (other.width, other.height)
            && self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq> Eq for Img2D<T> {}

/// Elements of `T` in one cache line: the most [`aligned_offset`] skips.
fn line_elems<T>() -> usize {
    CACHE_LINE / std::mem::size_of::<T>().max(1)
}

/// Index of the first element of the allocation at `start` that sits on
/// a cache line, or 0 when none within one line of it does (a `T` whose
/// size does not divide the line).
fn aligned_offset<T>(start: *const T) -> usize {
    let off = start.align_offset(CACHE_LINE);
    if off <= line_elems::<T>() {
        off
    } else {
        0
    }
}

impl<T: Copy + Default> Img2D<T> {
    /// Creates a `width`×`height` buffer filled with `T::default()`.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, T::default())
    }

    /// Creates a `dim`×`dim` buffer, the shape used by every paper kernel.
    pub fn square(dim: usize) -> Self {
        Self::new(dim, dim)
    }
}

impl<T: Copy> Img2D<T> {
    /// Creates a buffer filled with `value`.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        let len = width * height;
        // `vec![v; n]`, not `resize`: a zero integer `v` is a zeroed allocation
        let mut buf = vec![value; len + line_elems::<T>()];
        let off = aligned_offset(buf.as_ptr());
        buf.truncate(off + len);
        Img2D { width, height, buf, off }
    }

    /// A `width`×`height` image of `pixels`, copied behind an aligned
    /// offset of a fresh allocation.
    fn placed(width: usize, height: usize, pixels: &[T]) -> Self {
        debug_assert_eq!(pixels.len(), width * height);
        let mut buf = Vec::with_capacity(pixels.len() + line_elems::<T>());
        let off = pixels.first().map_or(0, |&first| {
            let off = aligned_offset(buf.as_ptr());
            // within capacity, so the allocation `off` was taken from stays
            buf.resize(off, first);
            off
        });
        buf.extend_from_slice(pixels);
        Img2D { width, height, buf, off }
    }

    /// Builds an image from an existing row-major vector.
    ///
    /// Returns [`Error::Geometry`] when `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != width * height {
            return Err(Error::Geometry(format!(
                "buffer length {} does not match {}x{}",
                data.len(),
                width,
                height
            )));
        }
        Ok(Self::placed(width, height, &data))
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// For square images, the dimension (`DIM` in the paper). Panics in
    /// debug builds when the image is not square.
    #[inline]
    pub fn dim(&self) -> usize {
        debug_assert_eq!(self.width, self.height, "dim() on a non-square image");
        self.width
    }

    /// Reads pixel `(x, y)` — column then row, like `cur_img(y, x)` reversed.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.buf[self.off + y * self.width + x]
    }

    /// Writes pixel `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.buf[self.off + y * self.width + x] = v;
    }

    /// Bounds-checked read returning `None` outside the image. Handy for
    /// stencil border handling ("pixels located on the borders have less
    /// than 9 neighbours", §III-B).
    #[inline]
    pub fn try_get(&self, x: isize, y: isize) -> Option<T> {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            None
        } else {
            Some(self.buf[self.off + y as usize * self.width + x as usize])
        }
    }

    /// Borrow of row `y`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        &self.buf[self.off + y * self.width..self.off + (y + 1) * self.width]
    }

    /// Mutable borrow of row `y`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        &mut self.buf[self.off + y * self.width..self.off + (y + 1) * self.width]
    }

    /// The whole buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[self.off..]
    }

    /// Mutable access to the whole buffer in row-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[self.off..]
    }

    /// Fills the whole image with `value`.
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }

    /// Copies the contents of `src` (same geometry required).
    pub fn copy_from(&mut self, src: &Img2D<T>) {
        assert_eq!(
            (self.width, self.height),
            (src.width, src.height),
            "copy_from: geometry mismatch"
        );
        self.as_mut_slice().copy_from_slice(src.as_slice());
    }

    /// Splits the image into non-overlapping mutable horizontal bands of
    /// `rows_per_band` rows (the last band may be shorter). This is the
    /// safe entry point for row-parallel kernels: each band can be handed
    /// to a different worker.
    pub fn bands_mut(&mut self, rows_per_band: usize) -> Vec<&mut [T]> {
        assert!(rows_per_band > 0, "bands_mut: zero rows per band");
        let width = self.width;
        self.as_mut_slice().chunks_mut(rows_per_band * width).collect()
    }

    /// Applies `f` to every pixel coordinate in row-major order.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, usize, &mut T)) {
        for y in 0..self.height {
            for x in 0..self.width {
                f(x, y, &mut self.buf[self.off + y * self.width + x]);
            }
        }
    }
}

impl Img2D<Rgba> {
    /// Encodes the image as a binary PPM (P6) byte stream, dropping alpha.
    /// This replaces the SDL window of the original framework: examples
    /// and the CLI dump frames to `.ppm` files instead of a screen.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.width * self.height * 3 + 32);
        self.write_ppm(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Streams the [`to_ppm`](Self::to_ppm) encoding into `out`: the
    /// header, then one reused `3 * width` buffer per image row, so a
    /// frame goes to a file without first existing whole in memory.
    pub fn write_ppm(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        write!(out, "P6\n{} {}\n255\n", self.width, self.height)?;
        let mut rgb = vec![0u8; self.width * 3];
        for y in 0..self.height {
            for (dst, px) in rgb.chunks_exact_mut(3).zip(self.row(y)) {
                dst.copy_from_slice(&[px.r(), px.g(), px.b()]);
            }
            out.write_all(&rgb)?;
        }
        Ok(())
    }

    /// Fraction of non-transparent pixels, used by sparse `life` datasets.
    pub fn occupancy(&self) -> f64 {
        let pixels = self.as_slice();
        if pixels.is_empty() {
            return 0.0;
        }
        let live = pixels.iter().filter(|p| !p.is_transparent()).count();
        live as f64 / pixels.len() as f64
    }
}

/// The current/next image pair with O(1) swap, mirroring EASYPAP's
/// `cur_img`/`next_img` globals and the inter-iteration swap of the
/// `blur` kernel.
#[derive(Clone, Debug)]
pub struct ImagePair {
    cur: Img2D<Rgba>,
    next: Img2D<Rgba>,
}

impl ImagePair {
    /// Creates a pair of `dim`×`dim` transparent images.
    pub fn square(dim: usize) -> Self {
        ImagePair {
            cur: Img2D::square(dim),
            next: Img2D::square(dim),
        }
    }

    /// Creates a pair whose *current* image is `cur`; the next image
    /// starts out as an identical copy so that untouched border pixels
    /// stay meaningful after a swap.
    pub fn from_image(cur: Img2D<Rgba>) -> Self {
        let next = cur.clone();
        ImagePair { cur, next }
    }

    /// Current image (what the display would show).
    #[inline]
    pub fn cur(&self) -> &Img2D<Rgba> {
        &self.cur
    }

    /// Mutable current image (for in-place kernels like `mandel`).
    #[inline]
    pub fn cur_mut(&mut self) -> &mut Img2D<Rgba> {
        &mut self.cur
    }

    /// Next image (what stencil kernels write).
    #[inline]
    pub fn next(&self) -> &Img2D<Rgba> {
        &self.next
    }

    /// Mutable next image.
    #[inline]
    pub fn next_mut(&mut self) -> &mut Img2D<Rgba> {
        &mut self.next
    }

    /// Simultaneous `(read, write)` borrow used by stencil kernels:
    /// reads come from `cur`, writes go to `next`.
    #[inline]
    pub fn rw(&mut self) -> (&Img2D<Rgba>, &mut Img2D<Rgba>) {
        (&self.cur, &mut self.next)
    }

    /// Swaps current and next in O(1) ("the two images are swapped
    /// between iterations", §III-B).
    #[inline]
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Dimension of the (square) pair.
    #[inline]
    pub fn dim(&self) -> usize {
        self.cur.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_default_filled() {
        let img: Img2D<u32> = Img2D::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert!(img.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn get_set_round_trip() {
        let mut img: Img2D<u32> = Img2D::square(8);
        img.set(3, 5, 42);
        assert_eq!(img.get(3, 5), 42);
        assert_eq!(img.get(5, 3), 0, "x/y must not be transposed");
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Img2D::from_vec(2, 2, vec![1u8; 4]).is_ok());
        assert!(matches!(
            Img2D::from_vec(2, 2, vec![1u8; 5]),
            Err(Error::Geometry(_))
        ));
    }

    fn line_offset<T: Copy>(img: &Img2D<T>) -> usize {
        img.as_slice().as_ptr() as usize % CACHE_LINE
    }

    #[test]
    fn row_zero_starts_on_a_cache_line_after_every_constructor() {
        // sizes on both sides of malloc's mmap threshold, and ragged ones
        for (w, h) in [(1usize, 1usize), (8, 8), (29, 17), (64, 64), (512, 512)] {
            let new: Img2D<Rgba> = Img2D::new(w, h);
            assert_eq!(line_offset(&new), 0, "new {w}x{h}");
            assert_eq!(line_offset(&Img2D::filled(w, h, Rgba::RED)), 0, "filled {w}x{h}");
            assert_eq!(line_offset(&Img2D::filled(w, h, 7u8)), 0, "filled u8 {w}x{h}");
            let from = Img2D::from_vec(w, h, vec![3u16; w * h]).unwrap();
            assert_eq!(line_offset(&from), 0, "from_vec {w}x{h}");
            assert_eq!(from.as_slice(), vec![3u16; w * h]);
            assert_eq!(line_offset(&new.clone()), 0, "clone {w}x{h}");
            let mut pair = ImagePair::from_image(new);
            pair.swap();
            assert_eq!(line_offset(pair.cur()), 0, "swap cur {w}x{h}");
            assert_eq!(line_offset(pair.next()), 0, "swap next {w}x{h}");
        }
        // nothing to place: an empty image is an empty slice
        let empty: Img2D<Rgba> = Img2D::new(0, 3);
        assert!(empty.clone().as_slice().is_empty());
        assert!(Img2D::<u8>::from_vec(0, 0, Vec::new()).unwrap().as_slice().is_empty());
        // a size that does not divide the line falls back to offset 0, intact
        let odd = Img2D::filled(5, 5, [1u8, 2, 3]);
        assert_eq!(odd.clone().as_slice(), [[1u8, 2, 3]; 25]);
    }

    #[test]
    fn equality_is_over_pixels_not_over_padding() {
        let mut a: Img2D<u32> = Img2D::new(3, 3);
        a.set(1, 2, 9);
        // the same pixels behind one more element of (different) padding
        let off = a.off + 1;
        let b = Img2D { width: 3, height: 3, buf: [&vec![77; off][..], a.as_slice()].concat(), off };
        assert_eq!(a, b);
        let mut c = b.clone();
        c.set(0, 0, 1);
        assert_ne!(a, c);
        assert_ne!(a, Img2D::new(9, 1), "same pixels, other geometry");
    }

    #[test]
    fn try_get_handles_borders() {
        let img: Img2D<u8> = Img2D::filled(2, 2, 7);
        assert_eq!(img.try_get(0, 0), Some(7));
        assert_eq!(img.try_get(-1, 0), None);
        assert_eq!(img.try_get(0, -1), None);
        assert_eq!(img.try_get(2, 0), None);
        assert_eq!(img.try_get(0, 2), None);
    }

    #[test]
    fn rows_are_contiguous() {
        let mut img: Img2D<u16> = Img2D::new(3, 2);
        img.row_mut(1).copy_from_slice(&[4, 5, 6]);
        assert_eq!(img.row(0), &[0, 0, 0]);
        assert_eq!(img.row(1), &[4, 5, 6]);
        assert_eq!(img.get(0, 1), 4);
    }

    #[test]
    fn bands_mut_partitions_rows() {
        let mut img: Img2D<u8> = Img2D::new(4, 10);
        let bands = img.bands_mut(4);
        assert_eq!(bands.len(), 3); // 4 + 4 + 2 rows
        assert_eq!(bands[0].len(), 16);
        assert_eq!(bands[2].len(), 8);
    }

    #[test]
    fn for_each_mut_visits_every_pixel_once() {
        let mut img: Img2D<u32> = Img2D::new(5, 7);
        img.for_each_mut(|_, _, p| *p += 1);
        assert!(img.as_slice().iter().all(|&v| v == 1));
        let mut count = 0;
        img.for_each_mut(|_, _, _| count += 1);
        assert_eq!(count, 35);
    }

    #[test]
    fn ppm_header_and_size() {
        let img: Img2D<Rgba> = Img2D::filled(2, 2, Rgba::RED);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(ppm.len(), b"P6\n2 2\n255\n".len() + 4 * 3);
        assert_eq!(&ppm[ppm.len() - 3..], &[255, 0, 0]);
    }

    #[test]
    fn write_ppm_bytes_equal_the_per_pixel_encoder() {
        // ragged: width != height, neither a power of two; 0x0 and 0-wide too
        for (w, h) in [(29usize, 17usize), (1, 5), (0, 0), (0, 3)] {
            let mut img: Img2D<Rgba> = Img2D::new(w, h);
            img.for_each_mut(|x, y, p| {
                *p = Rgba::new((x * 7) as u8, (y * 13) as u8, (x ^ y) as u8, (x + y) as u8);
            });
            let mut old = format!("P6\n{w} {h}\n255\n").into_bytes();
            for px in img.as_slice() {
                old.extend_from_slice(&[px.r(), px.g(), px.b()]);
            }
            let mut streamed = Vec::new();
            img.write_ppm(&mut streamed).unwrap();
            assert_eq!(streamed, old, "{w}x{h}");
            assert_eq!(img.to_ppm(), old, "{w}x{h}");
        }
    }

    #[test]
    fn occupancy_counts_opaque_pixels() {
        let mut img: Img2D<Rgba> = Img2D::square(2);
        assert_eq!(img.occupancy(), 0.0);
        img.set(0, 0, Rgba::WHITE);
        assert_eq!(img.occupancy(), 0.25);
        let empty: Img2D<Rgba> = Img2D::new(0, 0);
        assert_eq!(empty.occupancy(), 0.0);
    }

    #[test]
    fn pair_swap_is_o1_and_correct() {
        let mut pair = ImagePair::square(2);
        pair.cur_mut().set(0, 0, Rgba::RED);
        pair.next_mut().set(0, 0, Rgba::BLUE);
        pair.swap();
        assert_eq!(pair.cur().get(0, 0), Rgba::BLUE);
        assert_eq!(pair.next().get(0, 0), Rgba::RED);
        pair.swap();
        assert_eq!(pair.cur().get(0, 0), Rgba::RED);
    }

    #[test]
    fn pair_rw_gives_disjoint_views() {
        let mut pair = ImagePair::square(2);
        pair.cur_mut().set(1, 1, Rgba::GREEN);
        let (r, w) = pair.rw();
        let v = r.get(1, 1);
        w.set(0, 0, v);
        assert_eq!(pair.next().get(0, 0), Rgba::GREEN);
    }

    #[test]
    fn from_image_clones_into_next() {
        let mut img = Img2D::square(2);
        img.set(0, 1, Rgba::YELLOW);
        let pair = ImagePair::from_image(img);
        assert_eq!(pair.next().get(0, 1), Rgba::YELLOW);
    }

    #[test]
    fn copy_from_copies_everything() {
        let src: Img2D<u8> = Img2D::filled(3, 3, 9);
        let mut dst: Img2D<u8> = Img2D::new(3, 3);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn copy_from_rejects_mismatched_geometry() {
        let src: Img2D<u8> = Img2D::new(2, 3);
        let mut dst: Img2D<u8> = Img2D::new(3, 2);
        dst.copy_from(&src);
    }
}
