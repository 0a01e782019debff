//! Shared-image access for tile-parallel kernels.
//!
//! A tiled kernel has many workers writing *disjoint tiles* of the same
//! image concurrently. That is data-race-free by construction (the tile
//! grid partitions the image — a property-tested invariant of
//! `ezp_core::TileGrid`), but the borrow checker cannot see it across a
//! stride-y 2D layout. [`ImgCell`] encapsulates the one `unsafe` spot:
//! it erases a `&mut Img2D<T>` into a shared handle, and only exposes
//! writes through [`TileWriter`], which bounds-checks every access
//! against its tile rectangle. As long as each in-flight `TileWriter`
//! covers a distinct tile — which the dispensers guarantee by handing
//! each tile out exactly once — all writes are disjoint.
//!
//! The checks sit on every row ([`TileWriter::write_row`]) and every
//! pixel ([`TileWriter::set`]) a kernel writes, so they must cost a
//! compare and a branch. The rule: a `#[cold]` check on a per-row or
//! per-pixel path takes scalars, never a struct by value. A `Tile` is a
//! 48-byte aggregate, passed in memory, and the caller stores its fields
//! to the stack on every row even though the panic never runs
//! (`docs/profiling.md`, *Hot path*; `ci/verify.sh` greps for it).

use ezp_core::img::CACHE_LINE;
use ezp_core::{Img2D, Tile};
use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A shared, tile-writable view of an `Img2D<T>`.
pub struct ImgCell<'a, T> {
    data: &'a UnsafeCell<[T]>,
    width: usize,
    height: usize,
    _marker: PhantomData<&'a mut Img2D<T>>,
}

// SAFETY: concurrent access is restricted to disjoint tile rectangles via
// `TileWriter` (bounds-checked); reads via `get` may race with writes to
// *other tiles* only, never with writes to the same pixel.
unsafe impl<'a, T: Send + Sync> Sync for ImgCell<'a, T> {}

impl<'a, T: Copy> ImgCell<'a, T> {
    /// Wraps an exclusively borrowed image. The wrapper holds the borrow
    /// for `'a`, so no other access to the image can happen meanwhile.
    pub fn new(img: &'a mut Img2D<T>) -> Self {
        let width = img.width();
        let height = img.height();
        let slice: &'a mut [T] = img.as_mut_slice();
        // SAFETY: `UnsafeCell<[T]>` has the same layout as `[T]`.
        let data = unsafe { &*(slice as *mut [T] as *const UnsafeCell<[T]>) };
        ImgCell {
            data,
            width,
            height,
            _marker: PhantomData,
        }
    }

    /// Image width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    fn ptr(&self) -> *mut T {
        self.data.get() as *mut T
    }

    /// Reads pixel `(x, y)`.
    ///
    /// Reading is safe for pixels that no concurrent `TileWriter` covers
    /// (e.g. reading the *current* image while writers fill the *next*
    /// one, or reading your own tile). Racing a read with a write to the
    /// same pixel yields an unspecified—but not undefined, `T: Copy` and
    /// the slot is always initialized—stale-or-fresh value; kernels in
    /// this workspace never do that.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(x < self.width && y < self.height, "pixel out of image");
        // SAFETY: in-bounds (checked above); disjointness per type docs.
        unsafe { *self.ptr().add(y * self.width + x) }
    }

    /// A writer restricted to `tile`'s rectangle.
    pub fn tile_writer(&self, tile: Tile) -> TileWriter<'_, 'a, T> {
        assert!(
            tile.x + tile.w <= self.width && tile.y + tile.h <= self.height,
            "tile exceeds image bounds"
        );
        // `Img2D` starts row 0 on a cache line, so a tile whose rows are
        // whole lines (16 `Rgba` pixels) a whole number of lines into the
        // image starts on one too, and shares no line with a neighbour
        let size = std::mem::size_of::<T>();
        let whole_lines = |pixels: usize| (pixels * size).is_multiple_of(CACHE_LINE);
        debug_assert!(
            !(whole_lines(tile.w) && whole_lines(tile.y * self.width + tile.x))
                || (self.ptr() as usize).is_multiple_of(CACHE_LINE)
                || CACHE_LINE.checked_rem(size) != Some(0),
            "a line-wide tile row straddles cache lines: the image is not line-aligned"
        );
        TileWriter { cell: self, tile }
    }
}

/// Write access limited to one tile rectangle; every access is checked.
pub struct TileWriter<'c, 'a, T> {
    cell: &'c ImgCell<'a, T>,
    tile: Tile,
}

impl<'c, 'a, T: Copy> TileWriter<'c, 'a, T> {
    /// The tile this writer covers.
    #[inline]
    pub fn tile(&self) -> Tile {
        self.tile
    }

    /// Writes pixel `(x, y)` (absolute image coordinates).
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` lies outside this writer's tile — the guard
    /// that turns a would-be data race into a loud failure.
    #[inline]
    pub fn set(&self, x: usize, y: usize, v: T) {
        let t = self.tile;
        if !t.contains(x, y) {
            pixel_outside_tile(x, y, t.x, t.y, t.w, t.h);
        }
        // SAFETY: (x,y) is inside this writer's tile; tiles of in-flight
        // writers are disjoint (see type-level docs), so no other thread
        // writes this slot.
        unsafe {
            *self.cell.ptr().add(y * self.cell.width + x) = v;
        }
    }

    /// Writes `src` into image row `y` from column `x` on — the
    /// `memcpy` a copying kernel would otherwise spell as `src.len()`
    /// checked [`set`](Self::set)s.
    ///
    /// # Panics
    ///
    /// Panics when the span `x..x + src.len()` of row `y` does not lie
    /// inside this writer's tile.
    #[inline]
    pub fn write_row(&self, x: usize, y: usize, src: &[T]) {
        let t = self.tile;
        // offsets into the tile: a coordinate left of or above it wraps
        // to a huge offset, so each bound is one compare
        let (dx, dy) = (x.wrapping_sub(t.x), y.wrapping_sub(t.y));
        if dy >= t.h || dx > t.w || src.len() > t.w - dx {
            span_outside_tile(x, y, src.len(), t.x, t.y, t.w, t.h);
        }
        // SAFETY: the destination `[x, x + src.len())` of row `y` lies
        // inside this writer's tile (checked above, tile inside the
        // image by `tile_writer`), so it is in bounds and, as for `set`,
        // no other in-flight writer touches it. `src` cannot overlap it:
        // the cell holds the image's only borrow and never lends a
        // reference into it. No `&mut [T]` over the image is formed.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.cell.ptr().add(y * self.cell.width + x),
                src.len(),
            );
        }
    }

    /// Reads pixel `(x, y)` from anywhere in the image (stencils read
    /// neighbours outside their own tile).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        self.cell.get(x, y)
    }
}

// The panics behind `TileWriter`'s checks, kept out of line: each check
// inlines as one compare and branch, not as a formatted `assert!`. They
// take the tile's fields, not the `Tile` (the rule in the module doc).

#[cold]
#[inline(never)]
fn pixel_outside_tile(x: usize, y: usize, x0: usize, y0: usize, w: usize, h: usize) -> ! {
    panic!("write to ({x},{y}) outside tile ({x0},{y0},{w}x{h})")
}

#[cold]
#[inline(never)]
fn span_outside_tile(
    x: usize,
    y: usize,
    len: usize,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
) -> ! {
    let end = x.saturating_add(len);
    panic!("row {y} span {x}..{end} outside tile ({x0},{y0},{w}x{h})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;

    #[test]
    fn sequential_tile_writes_land() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        {
            let cell = ImgCell::new(&mut img);
            for t in grid.iter() {
                let w = cell.tile_writer(t);
                for y in t.y..t.y + t.h {
                    for x in t.x..t.x + t.w {
                        w.set(x, y, (t.tx + 10 * t.ty) as u32);
                    }
                }
            }
        }
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(7, 0), 1);
        assert_eq!(img.get(0, 7), 10);
        assert_eq!(img.get(7, 7), 11);
    }

    #[test]
    #[should_panic(expected = "write to (4,0) outside tile (0,0,4x4)")]
    fn out_of_tile_write_panics() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        let cell = ImgCell::new(&mut img);
        let w = cell.tile_writer(grid.tile(0, 0));
        w.set(4, 0, 1); // first pixel of the neighbouring tile
    }

    #[test]
    #[should_panic(expected = "exceeds image bounds")]
    fn oversized_tile_rejected() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let cell = ImgCell::new(&mut img);
        let bad = Tile {
            x: 4,
            y: 4,
            w: 8,
            h: 8,
            tx: 1,
            ty: 1,
        };
        let _ = cell.tile_writer(bad);
    }

    #[test]
    fn concurrent_disjoint_tiles() {
        let mut img: Img2D<u32> = Img2D::square(64);
        let grid = TileGrid::square(64, 16).unwrap();
        {
            let cell = ImgCell::new(&mut img);
            std::thread::scope(|s| {
                for t in grid.iter() {
                    let cell = &cell;
                    s.spawn(move || {
                        let w = cell.tile_writer(t);
                        for y in t.y..t.y + t.h {
                            for x in t.x..t.x + t.w {
                                w.set(x, y, grid.linear_index(t.tx, t.ty) as u32 + 1);
                            }
                        }
                    });
                }
            });
        }
        // every pixel got its tile's id
        for t in grid.iter() {
            let want = grid.linear_index(t.tx, t.ty) as u32 + 1;
            for y in t.y..t.y + t.h {
                for x in t.x..t.x + t.w {
                    assert_eq!(img.get(x, y), want);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 4 span 0..4 outside tile (0,0,4x4)")]
    fn out_of_tile_row_panics() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        let cell = ImgCell::new(&mut img);
        let w = cell.tile_writer(grid.tile(0, 0));
        w.write_row(0, 4, &[1; 4]); // first row of the tile below
    }

    #[test]
    #[should_panic(expected = "row 0 span 5..9 outside tile (4,0,4x4)")]
    fn row_span_past_the_tile_panics() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        let cell = ImgCell::new(&mut img);
        let w = cell.tile_writer(grid.tile(1, 0));
        w.write_row(4, 0, &[1; 4]); // fits
        w.write_row(5, 0, &[1; 3]); // fits, ends at the tile's edge
        w.write_row(5, 0, &[1; 4]); // would spill into the next row
    }

    #[test]
    #[should_panic(expected = "row 0 span 3..5 outside tile (4,0,4x4)")]
    fn row_span_left_of_the_tile_panics() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        let cell = ImgCell::new(&mut img);
        let w = cell.tile_writer(grid.tile(1, 0));
        w.write_row(3, 0, &[1; 2]); // starts in the tile to the left
    }

    #[test]
    fn concurrent_disjoint_row_writes_land() {
        // ragged grid: edge tiles are narrower and shorter
        let mut img: Img2D<u32> = Img2D::new(50, 21);
        let grid = TileGrid::new(50, 21, 16, 8).unwrap();
        {
            let cell = ImgCell::new(&mut img);
            std::thread::scope(|s| {
                for t in grid.iter() {
                    let cell = &cell;
                    s.spawn(move || {
                        let w = cell.tile_writer(t);
                        let id = grid.linear_index(t.tx, t.ty) as u32 + 1;
                        let src: Vec<u32> = (0..t.w as u32).map(|i| id * 100 + i).collect();
                        for y in t.y..t.y + t.h {
                            // the row in two spans, the second possibly empty
                            let half = t.w / 2;
                            w.write_row(t.x, y, &src[..half]);
                            w.write_row(t.x + half, y, &src[half..]);
                        }
                    });
                }
            });
        }
        for y in 0..21 {
            for x in 0..50 {
                let t = grid.tile_of_pixel(x, y);
                let id = grid.linear_index(t.tx, t.ty) as u32 + 1;
                assert_eq!(img.get(x, y), id * 100 + (x - t.x) as u32);
            }
        }
    }

    #[test]
    fn reads_see_prior_writes() {
        let mut img: Img2D<u32> = Img2D::filled(4, 4, 7);
        let cell = ImgCell::new(&mut img);
        assert_eq!(cell.get(3, 3), 7);
        let grid = TileGrid::square(4, 2).unwrap();
        let w = cell.tile_writer(grid.tile(0, 0));
        w.set(0, 0, 99);
        assert_eq!(w.get(0, 0), 99);
        assert_eq!(w.get(3, 3), 7); // cross-tile read
    }
}
