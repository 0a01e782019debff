//! Tile-grid geometry: decomposing a 2D image into rectangular tiles.
//!
//! Tiles are the unit of parallel work throughout the paper: loops iterate
//! `for (y..; y += TILE_SIZE) for (x..; x += TILE_SIZE) do_tile(x, y, ...)`
//! and OpenMP's `collapse(2)` flattens the two loops into one linear
//! iteration space that the scheduling policies then carve up. [`TileGrid`]
//! captures that geometry once so that the scheduler, the simulator, the
//! monitor and the viewers all agree on tile numbering.

use crate::error::{Error, Result};

/// One rectangular chunk of image, `(x, y)` top-left corner plus size —
/// exactly the quadruple EASYPAP passes to `do_tile(x, y, width, height)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Tile {
    /// Left pixel column.
    pub x: usize,
    /// Top pixel row.
    pub y: usize,
    /// Width in pixels (may be smaller than the nominal tile width on the
    /// right edge when the tile size does not divide the image width).
    pub w: usize,
    /// Height in pixels (clipped on the bottom edge likewise).
    pub h: usize,
    /// Horizontal tile coordinate (column index in the grid).
    pub tx: usize,
    /// Vertical tile coordinate (row index in the grid).
    pub ty: usize,
}

impl Tile {
    /// Number of pixels covered.
    #[inline]
    pub fn pixels(&self) -> usize {
        self.w * self.h
    }

    /// True when the tile touches any image edge — the `blur` assignment
    /// (§III-B) specializes "outer" tiles versus "inner" tiles.
    #[inline]
    pub fn is_border(&self, grid: &TileGrid) -> bool {
        self.tx == 0
            || self.ty == 0
            || self.tx == grid.tiles_x() - 1
            || self.ty == grid.tiles_y() - 1
    }

    /// True when pixel `(px, py)` falls inside this tile.
    #[inline]
    pub fn contains(&self, px: usize, py: usize) -> bool {
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }
}

/// The decomposition of a `width`×`height` image into tiles of nominal
/// size `tile_w`×`tile_h` (edge tiles clipped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGrid {
    width: usize,
    height: usize,
    tile_w: usize,
    tile_h: usize,
    tiles_x: usize,
    tiles_y: usize,
}

impl TileGrid {
    /// Builds a grid. Fails when any dimension or tile size is zero.
    pub fn new(width: usize, height: usize, tile_w: usize, tile_h: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::Geometry(format!("empty image {width}x{height}")));
        }
        if tile_w == 0 || tile_h == 0 {
            return Err(Error::Geometry(format!("empty tile {tile_w}x{tile_h}")));
        }
        Ok(TileGrid {
            width,
            height,
            tile_w,
            tile_h,
            tiles_x: width.div_ceil(tile_w),
            tiles_y: height.div_ceil(tile_h),
        })
    }

    /// Square image, square tiles — the `--size` / `--tile-size` case.
    pub fn square(dim: usize, tile_size: usize) -> Result<Self> {
        Self::new(dim, dim, tile_size, tile_size)
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

    /// Nominal tile width.
    #[inline]
    pub fn tile_w(&self) -> usize {
        self.tile_w
    }

    /// Nominal tile height.
    #[inline]
    pub fn tile_h(&self) -> usize {
        self.tile_h
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> usize {
        self.tiles_y
    }

    /// Total number of tiles — the length of the `collapse(2)` iteration
    /// space.
    #[inline]
    pub fn len(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// True when the grid contains no tiles (never, by construction, but
    /// kept for API completeness alongside `len`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tile at grid coordinates `(tx, ty)`.
    #[inline]
    pub fn tile(&self, tx: usize, ty: usize) -> Tile {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of grid");
        let x = tx * self.tile_w;
        let y = ty * self.tile_h;
        Tile {
            x,
            y,
            w: self.tile_w.min(self.width - x),
            h: self.tile_h.min(self.height - y),
            tx,
            ty,
        }
    }

    /// The tile at linear index `i`, in `collapse(2)` row-major order:
    /// `i = ty * tiles_x + tx`, matching the paper's
    /// `for (y ...) for (x ...)` loop nest.
    #[inline]
    pub fn tile_at(&self, i: usize) -> Tile {
        assert!(i < self.len(), "linear tile index out of range");
        self.tile(i % self.tiles_x, i / self.tiles_x)
    }

    /// Inverse of [`TileGrid::tile_at`].
    #[inline]
    pub fn linear_index(&self, tx: usize, ty: usize) -> usize {
        debug_assert!(tx < self.tiles_x && ty < self.tiles_y);
        ty * self.tiles_x + tx
    }

    /// The tile containing pixel `(px, py)`.
    pub fn tile_of_pixel(&self, px: usize, py: usize) -> Tile {
        assert!(px < self.width && py < self.height, "pixel out of image");
        self.tile(px / self.tile_w, py / self.tile_h)
    }

    /// Linear index of the tile containing pixel `(px, py)`, or `None`
    /// when the pixel lies outside the image: the checked lookup for
    /// positions read from a record or a trace file.
    #[inline]
    pub fn index_of_pixel(&self, px: usize, py: usize) -> Option<usize> {
        (px < self.width && py < self.height)
            .then(|| self.linear_index(px / self.tile_w, py / self.tile_h))
    }

    /// Iterates over every tile in `collapse(2)` order.
    pub fn iter(&self) -> TileChunk<'_> {
        self.chunk(0, self.len())
    }

    /// Iterates over the `len` tiles from linear index `start`, in
    /// `collapse(2)` order — one scheduler chunk. Equal to
    /// `(start..start + len).map(|i| self.tile_at(i))`, but divides once
    /// for the whole chunk and then steps `tx`/`ty`.
    #[inline]
    pub fn chunk(&self, start: usize, len: usize) -> TileChunk<'_> {
        assert!(
            start <= self.len() && len <= self.len() - start,
            "tile chunk out of range"
        );
        TileChunk {
            grid: self,
            tx: start % self.tiles_x,
            ty: start / self.tiles_x,
            left: len,
        }
    }

    /// Iterates over the tiles of grid row `ty`, left to right — the unit
    /// of work of row-scheduled (non-collapsed) OpenMP variants.
    pub fn row(&self, ty: usize) -> impl Iterator<Item = Tile> + '_ {
        (0..self.tiles_x).map(move |tx| self.tile(tx, ty))
    }

    /// Neighbouring tile in direction `(dx, dy)` if it exists. Used by the
    /// `ccomp` task graph (a tile depends on its left/upper neighbours
    /// during the down-right phase, Fig. 11).
    pub fn neighbor(&self, tile: &Tile, dx: isize, dy: isize) -> Option<Tile> {
        let ntx = tile.tx as isize + dx;
        let nty = tile.ty as isize + dy;
        if ntx < 0 || nty < 0 || ntx as usize >= self.tiles_x || nty as usize >= self.tiles_y {
            None
        } else {
            Some(self.tile(ntx as usize, nty as usize))
        }
    }
}

/// The tiles of one contiguous run of linear indices; see
/// [`TileGrid::chunk`].
#[derive(Clone, Debug)]
pub struct TileChunk<'g> {
    grid: &'g TileGrid,
    tx: usize,
    ty: usize,
    left: usize,
}

impl Iterator for TileChunk<'_> {
    type Item = Tile;

    #[inline]
    fn next(&mut self) -> Option<Tile> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let tile = self.grid.tile(self.tx, self.ty);
        self.tx += 1;
        if self.tx == self.grid.tiles_x {
            self.tx = 0;
            self.ty += 1;
        }
        Some(tile)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;

    #[test]
    fn rejects_degenerate_geometry() {
        assert!(TileGrid::new(0, 4, 2, 2).is_err());
        assert!(TileGrid::new(4, 0, 2, 2).is_err());
        assert!(TileGrid::new(4, 4, 0, 2).is_err());
        assert!(TileGrid::new(4, 4, 2, 0).is_err());
        assert!(TileGrid::square(1, 1).is_ok());
    }

    #[test]
    fn exact_division() {
        let g = TileGrid::square(64, 16).unwrap();
        assert_eq!(g.tiles_x(), 4);
        assert_eq!(g.tiles_y(), 4);
        assert_eq!(g.len(), 16);
        let t = g.tile(3, 2);
        assert_eq!((t.x, t.y, t.w, t.h), (48, 32, 16, 16));
    }

    #[test]
    fn ragged_edges_are_clipped() {
        let g = TileGrid::new(10, 7, 4, 3).unwrap();
        assert_eq!(g.tiles_x(), 3); // 4 + 4 + 2
        assert_eq!(g.tiles_y(), 3); // 3 + 3 + 1
        let right = g.tile(2, 0);
        assert_eq!((right.w, right.h), (2, 3));
        let bottom = g.tile(0, 2);
        assert_eq!((bottom.w, bottom.h), (4, 1));
        let corner = g.tile(2, 2);
        assert_eq!((corner.w, corner.h), (2, 1));
    }

    #[test]
    fn tiles_partition_the_image() {
        // every pixel covered exactly once, for an awkward geometry
        let g = TileGrid::new(13, 9, 5, 4).unwrap();
        let mut cover = [0u8; 13 * 9];
        for t in g.iter() {
            for y in t.y..t.y + t.h {
                for x in t.x..t.x + t.w {
                    cover[y * 13 + x] += 1;
                }
            }
        }
        assert!(cover.iter().all(|&c| c == 1));
    }

    #[test]
    fn linear_order_is_collapse2_row_major() {
        let g = TileGrid::square(8, 4).unwrap();
        let order: Vec<(usize, usize)> = g.iter().map(|t| (t.tx, t.ty)).collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        for (i, t) in g.iter().enumerate() {
            assert_eq!(g.linear_index(t.tx, t.ty), i);
            assert_eq!(g.tile_at(i), t);
        }
    }

    #[test]
    #[should_panic(expected = "tile chunk out of range")]
    fn chunk_past_the_grid_is_rejected() {
        let g = TileGrid::square(8, 4).unwrap();
        let _ = g.chunk(3, 2);
    }

    ezp_proptest! {
        fn prop_chunk_equals_tile_at_on_ragged_grids(
            width in 1usize..70,
            height in 1usize..70,
            tile_w in 1usize..20,
            tile_h in 1usize..20,
            a in 0usize..5000,
            b in 0usize..5000,
        ) {
            let g = TileGrid::new(width, height, tile_w, tile_h).unwrap();
            let start = a % (g.len() + 1);
            let len = b % (g.len() - start + 1);
            let stepped: Vec<Tile> = g.chunk(start, len).collect();
            let divided: Vec<Tile> = (start..start + len).map(|i| g.tile_at(i)).collect();
            assert_eq!(stepped, divided);
        }
    }

    #[test]
    fn tile_of_pixel_inverts_contains() {
        let g = TileGrid::new(10, 10, 3, 3).unwrap();
        for py in 0..10 {
            for px in 0..10 {
                let t = g.tile_of_pixel(px, py);
                assert!(t.contains(px, py));
                assert_eq!(g.index_of_pixel(px, py), Some(g.linear_index(t.tx, t.ty)));
            }
        }
        assert_eq!(g.index_of_pixel(10, 0), None);
        assert_eq!(g.index_of_pixel(0, 1 << 20), None);
    }

    #[test]
    fn border_detection() {
        let g = TileGrid::square(64, 16).unwrap(); // 4x4 tiles
        let inner: Vec<Tile> = g.iter().filter(|t| !t.is_border(&g)).collect();
        assert_eq!(inner.len(), 4); // the central 2x2 block
        assert!(inner
            .iter()
            .all(|t| (1..=2).contains(&t.tx) && (1..=2).contains(&t.ty)));
        // on a 1x1 tile grid, the single tile is a border tile
        let g1 = TileGrid::square(8, 8).unwrap();
        assert!(g1.tile(0, 0).is_border(&g1));
    }

    #[test]
    fn neighbor_lookup() {
        let g = TileGrid::square(9, 3).unwrap(); // 3x3 tiles
        let c = g.tile(1, 1);
        assert_eq!(g.neighbor(&c, -1, 0).unwrap().tx, 0);
        assert_eq!(g.neighbor(&c, 0, -1).unwrap().ty, 0);
        assert_eq!(g.neighbor(&c, 1, 1).map(|t| (t.tx, t.ty)), Some((2, 2)));
        let corner = g.tile(0, 0);
        assert!(g.neighbor(&corner, -1, 0).is_none());
        assert!(g.neighbor(&corner, 0, -1).is_none());
        let far = g.tile(2, 2);
        assert!(g.neighbor(&far, 1, 0).is_none());
        assert!(g.neighbor(&far, 0, 1).is_none());
    }

    #[test]
    fn row_iterates_one_grid_row() {
        let g = TileGrid::new(12, 6, 4, 3).unwrap();
        let row: Vec<Tile> = g.row(1).collect();
        assert_eq!(row.len(), 3);
        assert!(row.iter().all(|t| t.ty == 1));
        assert_eq!(row[2].x, 8);
    }

    #[test]
    fn tile_pixels_accounts_for_clipping() {
        let g = TileGrid::new(5, 5, 4, 4).unwrap();
        assert_eq!(g.tile(0, 0).pixels(), 16);
        assert_eq!(g.tile(1, 1).pixels(), 1);
        let total: usize = g.iter().map(|t| t.pixels()).sum();
        assert_eq!(total, 25);
    }
}
