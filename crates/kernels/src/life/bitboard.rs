//! Bit-packed Game-of-Life boards.
//!
//! The paper asks students to use "their own, low memory footprint data
//! structures for computations" (§III-D). This board stores one cell per
//! bit (64× smaller than a pixel board) and steps whole 64-cell words at
//! a time with a bit-sliced neighbour counter — the carry-save adder
//! trick — while a per-cell path handles arbitrary tile rectangles. The
//! two paths are property-tested against each other.
//!
//! Words are `AtomicU64` so that tile-parallel variants can write
//! *disjoint column masks* of a shared word concurrently (the only
//! contended case is a tile boundary crossing a word); all accesses use
//! relaxed ordering — synchronization between iterations comes from the
//! scheduler's barriers, not from the board.

use ezp_core::{Img2D, Rgba, Tile};
use std::sync::atomic::{AtomicU64, Ordering};

/// A `width`×`height` one-bit-per-cell board. Cells outside the board
/// are permanently dead (no wrap-around).
pub struct BitBoard {
    width: usize,
    height: usize,
    words_per_row: usize,
    /// Cell storage. Tiles own disjoint rows within an iteration and
    /// cross-iteration ordering rides the scheduler's region barrier —
    /// synchronizing via the spine (via-the-spine), hence `Relaxed`.
    words: Vec<AtomicU64>,
}

impl Clone for BitBoard {
    fn clone(&self) -> Self {
        BitBoard {
            width: self.width,
            height: self.height,
            words_per_row: self.words_per_row,
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl std::fmt::Debug for BitBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BitBoard({}x{}, {} live)",
            self.width,
            self.height,
            self.live_count()
        )
    }
}

impl PartialEq for BitBoard {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.height == other.height
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
    }
}

impl BitBoard {
    /// An empty `width`×`height` board.
    pub fn new(width: usize, height: usize) -> Self {
        let words_per_row = width.div_ceil(64).max(1);
        BitBoard {
            width,
            height,
            words_per_row,
            words: (0..words_per_row * height.max(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// An empty square board — the EASYPAP default shape.
    pub fn square(dim: usize) -> Self {
        Self::new(dim, dim)
    }

    /// Board width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Board height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    #[inline]
    fn idx(&self, y: usize, wx: usize) -> usize {
        y * self.words_per_row + wx
    }

    /// Mask of valid column bits for word `wx`.
    #[inline]
    fn col_mask(&self, wx: usize) -> u64 {
        let lo = wx * 64;
        if lo + 64 <= self.width {
            u64::MAX
        } else if lo >= self.width {
            0
        } else {
            (1u64 << (self.width - lo)) - 1
        }
    }

    /// Reads cell `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        debug_assert!(x < self.width && y < self.height);
        let w = self.words[self.idx(y, x / 64)].load(Ordering::Relaxed);
        (w >> (x % 64)) & 1 == 1
    }

    /// Like [`BitBoard::get`] but dead outside the board.
    #[inline]
    pub fn get_or_dead(&self, x: isize, y: isize) -> bool {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            false
        } else {
            self.get(x as usize, y as usize)
        }
    }

    /// Writes cell `(x, y)` (atomic RMW: safe for disjoint bits).
    #[inline]
    pub fn set(&self, x: usize, y: usize, alive: bool) {
        debug_assert!(x < self.width && y < self.height);
        let bit = 1u64 << (x % 64);
        let w = &self.words[self.idx(y, x / 64)];
        if alive {
            w.fetch_or(bit, Ordering::Relaxed);
        } else {
            w.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// Reads the raw word `(row y, word wx)` (0 when out of range — the
    /// dead border).
    #[inline]
    pub fn word_or_zero(&self, y: isize, wx: isize) -> u64 {
        if y < 0 || wx < 0 || y as usize >= self.height || wx as usize >= self.words_per_row {
            0
        } else {
            self.words[self.idx(y as usize, wx as usize)].load(Ordering::Relaxed)
        }
    }

    /// Overwrites the masked bits of word `(y, wx)` with `bits` (only
    /// bits under `mask` are affected). Two RMWs; safe when no other
    /// thread touches the same mask bits.
    #[inline]
    pub fn store_masked(&self, y: usize, wx: usize, mask: u64, bits: u64) {
        let w = &self.words[self.idx(y, wx)];
        w.fetch_and(!mask, Ordering::Relaxed);
        w.fetch_or(bits & mask, Ordering::Relaxed);
    }

    /// Full-word store (row stepping owns whole rows).
    #[inline]
    pub fn store_word(&self, y: usize, wx: usize, bits: u64) {
        self.words[self.idx(y, wx)].store(bits & self.col_mask(wx), Ordering::Relaxed);
    }

    /// Number of live cells.
    pub fn live_count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Clears the board.
    pub fn clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Copies the full contents of `src` (same geometry required).
    pub fn copy_from(&self, src: &BitBoard) {
        assert_eq!(
            (self.width, self.height),
            (src.width, src.height),
            "geometry mismatch"
        );
        for (d, s) in self.words.iter().zip(&src.words) {
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Extracts row `y` as words (for MPI ghost exchange).
    pub fn row_words(&self, y: usize) -> Vec<u64> {
        (0..self.words_per_row)
            .map(|wx| self.words[self.idx(y, wx)].load(Ordering::Relaxed))
            .collect()
    }

    /// Overwrites row `y` from words.
    pub fn set_row_words(&self, y: usize, words: &[u64]) {
        assert_eq!(words.len(), self.words_per_row, "row width mismatch");
        for (wx, &w) in words.iter().enumerate() {
            self.store_word(y, wx, w);
        }
    }

    /// Paints the board into an RGBA image (live = `live_color`,
    /// dead = transparent) — the "update the current image when a
    /// graphical refresh is needed" hook.
    pub fn paint(&self, img: &mut Img2D<Rgba>, live_color: Rgba) {
        assert!(img.width() >= self.width && img.height() >= self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                img.set(
                    x,
                    y,
                    if self.get(x, y) {
                        live_color
                    } else {
                        Rgba::TRANSPARENT
                    },
                );
            }
        }
    }

    /// Steps rows `[y0, y1)` of `src` into `self` using the bit-sliced
    /// word-parallel rule; returns true when any cell changed. All
    /// columns are computed (whole rows).
    pub fn step_rows_from(&self, src: &BitBoard, y0: usize, y1: usize) -> bool {
        debug_assert_eq!((self.width, self.height), (src.width, src.height));
        let mut changed = false;
        for y in y0..y1.min(self.height) {
            for wx in 0..self.words_per_row {
                let new = step_word(src, y, wx) & self.col_mask(wx);
                let old = src.word_or_zero(y as isize, wx as isize);
                if new != old {
                    changed = true;
                }
                self.store_word(y, wx, new);
            }
        }
        changed
    }

    /// Steps the cells of `tile` from `src` into `self` (per-cell rule),
    /// returning true when any cell changed. Uses masked word stores, so
    /// concurrent calls on disjoint tiles are safe.
    pub fn step_tile_from(&self, src: &BitBoard, tile: Tile) -> bool {
        debug_assert_eq!((self.width, self.height), (src.width, src.height));
        let mut changed = false;
        for y in tile.y..(tile.y + tile.h).min(self.height) {
            let mut wx = tile.x / 64;
            let mut mask = 0u64;
            let mut bits = 0u64;
            for x in tile.x..(tile.x + tile.w).min(self.width) {
                if x / 64 != wx {
                    self.store_masked(y, wx, mask, bits);
                    wx = x / 64;
                    mask = 0;
                    bits = 0;
                }
                let mut neighbours = 0u8;
                for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        if (dx != 0 || dy != 0) && src.get_or_dead(x as isize + dx, y as isize + dy)
                        {
                            neighbours += 1;
                        }
                    }
                }
                let cur = src.get(x, y);
                let alive = neighbours == 3 || (cur && neighbours == 2);
                let bit = 1u64 << (x % 64);
                mask |= bit;
                if alive {
                    bits |= bit;
                }
                if alive != cur {
                    changed = true;
                }
            }
            self.store_masked(y, wx, mask, bits);
        }
        changed
    }
}

/// Computes the next generation of word `(y, wx)` with the bit-sliced
/// carry-save neighbour counter (8 neighbour bitmaps summed in 4 bit
/// planes, ~40 logic ops for 64 cells).
#[inline]
fn step_word(src: &BitBoard, y: usize, wx: usize) -> u64 {
    let y = y as isize;
    let wx = wx as isize;
    // the three rows, with horizontal-shift neighbours (cross-word carry)
    let row = |dy: isize| -> (u64, u64, u64) {
        let c = src.word_or_zero(y + dy, wx);
        let prev = src.word_or_zero(y + dy, wx - 1);
        let next = src.word_or_zero(y + dy, wx + 1);
        let left = (c << 1) | (prev >> 63); // bit j = cell at column j-1
        let right = (c >> 1) | (next << 63); // bit j = cell at column j+1
        (left, c, right)
    };
    let (al, ac, ar) = row(-1);
    let (bl, b, br) = row(0);
    let (cl, cc, cr) = row(1);

    // carry-save accumulation of the 8 neighbour bitmaps
    let mut ones = 0u64;
    let mut twos = 0u64;
    let mut fours = 0u64;
    let mut add = |x: u64| {
        let c1 = ones & x;
        ones ^= x;
        let c2 = twos & c1;
        twos ^= c1;
        fours |= c2; // counts >= 8 impossible to matter: saturate at 4+
    };
    add(al);
    add(ac);
    add(ar);
    add(bl);
    add(br);
    add(cl);
    add(cc);
    add(cr);

    // exactly 3 = ones & twos & !fours ; exactly 2 = !ones & twos & !fours
    let three = ones & twos & !fours;
    let two = !ones & twos & !fours;
    three | (b & two)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::any_u64;
    use ezp_testkit::Rng;

    fn random_board(dim: usize, density: f64, seed: u64) -> BitBoard {
        let b = BitBoard::square(dim);
        let mut rng = Rng::seed(seed);
        for y in 0..dim {
            for x in 0..dim {
                if rng.gen_bool(density) {
                    b.set(x, y, true);
                }
            }
        }
        b
    }

    /// Reference implementation: textbook per-cell rule.
    fn reference_step(src: &BitBoard) -> BitBoard {
        let dim = src.width();
        let out = BitBoard::square(dim);
        for y in 0..dim {
            for x in 0..dim {
                let mut n = 0;
                for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        if (dx != 0 || dy != 0) && src.get_or_dead(x as isize + dx, y as isize + dy)
                        {
                            n += 1;
                        }
                    }
                }
                out.set(x, y, n == 3 || (src.get(x, y) && n == 2));
            }
        }
        out
    }

    #[test]
    fn get_set_round_trip() {
        let b = BitBoard::square(100);
        b.set(63, 0, true);
        b.set(64, 0, true);
        b.set(99, 99, true);
        assert!(b.get(63, 0) && b.get(64, 0) && b.get(99, 99));
        assert!(!b.get(0, 0));
        b.set(64, 0, false);
        assert!(!b.get(64, 0));
        assert_eq!(b.live_count(), 2);
        assert!(!b.get_or_dead(-1, 0));
        assert!(!b.get_or_dead(100, 5));
    }

    #[test]
    fn blinker_oscillates() {
        // vertical blinker at (5, 4..6) becomes horizontal (4..6, 5)
        let b = random_board(10, 0.0, 0);
        for y in 4..7 {
            b.set(5, y, true);
        }
        let next = BitBoard::square(10);
        next.step_rows_from(&b, 0, 10);
        assert_eq!(next.live_count(), 3);
        for x in 4..7 {
            assert!(next.get(x, 5), "expected horizontal blinker");
        }
        let back = BitBoard::square(10);
        back.step_rows_from(&next, 0, 10);
        assert_eq!(back, b, "blinker must have period 2");
    }

    #[test]
    fn block_is_still_life() {
        let b = BitBoard::square(8);
        for (x, y) in [(3, 3), (4, 3), (3, 4), (4, 4)] {
            b.set(x, y, true);
        }
        let next = BitBoard::square(8);
        let changed = next.step_rows_from(&b, 0, 8);
        assert!(!changed, "a block is a still life");
        assert_eq!(next, b);
    }

    #[test]
    fn glider_moves_down_right() {
        let b = BitBoard::square(16);
        crate::shapes::stamp_glider(|x, y| b.set(x, y, true), 2, 2);
        let mut cur = b.clone();
        for _ in 0..4 {
            let next = BitBoard::square(16);
            next.step_rows_from(&cur, 0, 16);
            cur = next;
        }
        // after 4 generations a glider translates by (1, 1)
        let expected = BitBoard::square(16);
        crate::shapes::stamp_glider(|x, y| expected.set(x, y, true), 3, 3);
        assert_eq!(cur, expected);
    }

    #[test]
    fn word_and_cell_paths_agree_across_word_boundaries() {
        // 130 columns -> 3 words, exercises both cross-word shifts
        let src = random_board(130, 0.35, 42);
        let by_words = BitBoard::square(130);
        by_words.step_rows_from(&src, 0, 130);
        let by_cells = BitBoard::square(130);
        let grid = TileGrid::square(130, 33).unwrap(); // deliberately unaligned tiles
        for t in grid.iter() {
            by_cells.step_tile_from(&src, t);
        }
        assert_eq!(by_words, by_cells);
        assert_eq!(by_words, reference_step(&src));
    }

    #[test]
    fn changed_flags_are_accurate() {
        let still = BitBoard::square(8);
        for (x, y) in [(3, 3), (4, 3), (3, 4), (4, 4)] {
            still.set(x, y, true);
        }
        let dst = BitBoard::square(8);
        assert!(!dst.step_rows_from(&still, 0, 8));
        let blinker = BitBoard::square(8);
        for y in 2..5 {
            blinker.set(4, y, true);
        }
        let dst2 = BitBoard::square(8);
        assert!(dst2.step_rows_from(&blinker, 0, 8));
        // tile path agrees
        let grid = TileGrid::square(8, 4).unwrap();
        let dst3 = BitBoard::square(8);
        let mut any = false;
        for t in grid.iter() {
            any |= dst3.step_tile_from(&still, t);
        }
        assert!(!any);
    }

    #[test]
    fn concurrent_tile_steps_are_race_free() {
        let src = random_board(128, 0.3, 7);
        let seq = BitBoard::square(128);
        seq.step_rows_from(&src, 0, 128);
        let par = BitBoard::square(128);
        let grid = TileGrid::square(128, 24).unwrap(); // unaligned -> shared words
        std::thread::scope(|s| {
            for t in grid.iter() {
                let src = &src;
                let par = &par;
                s.spawn(move || {
                    par.step_tile_from(src, t);
                });
            }
        });
        assert_eq!(par, seq);
    }

    #[test]
    fn row_words_round_trip() {
        let b = random_board(70, 0.5, 3);
        let row = b.row_words(10);
        assert_eq!(row.len(), 2);
        let c = BitBoard::square(70);
        c.set_row_words(10, &row);
        for x in 0..70 {
            assert_eq!(c.get(x, 10), b.get(x, 10));
        }
    }

    #[test]
    fn paint_marks_live_cells() {
        let b = BitBoard::square(4);
        b.set(1, 2, true);
        let mut img = Img2D::square(4);
        b.paint(&mut img, Rgba::YELLOW);
        assert_eq!(img.get(1, 2), Rgba::YELLOW);
        assert_eq!(img.get(0, 0), Rgba::TRANSPARENT);
    }

    #[test]
    fn edge_cells_have_dead_outside() {
        // a full 3x3 board: center survives? center has 8 neighbours ->
        // dies (overpopulation); corners have 3 -> live
        let b = BitBoard::square(3);
        for y in 0..3 {
            for x in 0..3 {
                b.set(x, y, true);
            }
        }
        let next = BitBoard::square(3);
        next.step_rows_from(&b, 0, 3);
        assert!(next.get(0, 0) && next.get(2, 0) && next.get(0, 2) && next.get(2, 2));
        assert!(!next.get(1, 1));
    }

    ezp_proptest! {
        #![cases(24)]

        fn prop_word_path_equals_reference(
            dim in 3usize..80,
            density in 0.05f64..0.6,
            seed in any_u64(),
        ) {
            let src = random_board(dim, density, seed);
            let fast = BitBoard::square(dim);
            fast.step_rows_from(&src, 0, dim);
            assert_eq!(&fast, &reference_step(&src));
        }

        fn prop_tile_path_equals_reference(
            dim in 3usize..70,
            tile in 1usize..40,
            density in 0.05f64..0.6,
            seed in any_u64(),
        ) {
            let tile = tile.min(dim);
            let src = random_board(dim, density, seed);
            let out = BitBoard::square(dim);
            let grid = TileGrid::square(dim, tile).unwrap();
            for t in grid.iter() {
                out.step_tile_from(&src, t);
            }
            assert_eq!(&out, &reference_step(&src));
        }
    }
}
