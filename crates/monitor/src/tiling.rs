//! The Tiling window: tile→thread maps and duration heat maps.
//!
//! "The Tiling window reflects the way tiles have been assigned to
//! threads at each iteration. Each thread is assigned a different color"
//! (§II-B); in heat-map mode "the brightness of tiles reflects the
//! duration of the corresponding tasks" (Fig. 9). Both views are plain
//! grids derived from tile records, renderable to an [`Img2D`] (one
//! pixel block per tile) or to ASCII for terminal sessions.

use crate::record::TileRecord;
use ezp_core::color::{heat_color, worker_color, Rgba};
use ezp_core::{Img2D, TileGrid, WorkerId};

/// Which worker computed each tile during one iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TilingSnapshot {
    grid: TileGrid,
    /// Row-major over tile coordinates; `None` = tile not computed (the
    /// tell-tale sign of lazy evaluation, Fig. 13).
    owners: Vec<Option<WorkerId>>,
}

impl TilingSnapshot {
    /// Builds the snapshot from the records of one iteration. When a tile
    /// was computed several times in the iteration (e.g. the two phases
    /// of `ccomp`), the last record wins, like repainting the window.
    pub fn from_records<'a>(
        grid: &TileGrid,
        records: impl Iterator<Item = &'a TileRecord>,
    ) -> Self {
        let mut owners = vec![None; grid.len()];
        for r in records {
            if let Some(i) = grid.index_of_pixel(r.x, r.y) {
                owners[i] = Some(r.worker);
            }
        }
        TilingSnapshot {
            grid: *grid,
            owners,
        }
    }

    /// The grid this snapshot is over.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Owner of tile `(tx, ty)`.
    pub fn owner(&self, tx: usize, ty: usize) -> Option<WorkerId> {
        self.owners[self.grid.linear_index(tx, ty)]
    }

    /// Owners in `collapse(2)` linear order.
    pub fn owners(&self) -> &[Option<WorkerId>] {
        &self.owners
    }

    /// Number of computed tiles (lazy kernels leave holes).
    pub fn computed_tiles(&self) -> usize {
        self.owners.iter().filter(|o| o.is_some()).count()
    }

    /// Renders the window: each tile becomes a `cell`×`cell` pixel block
    /// painted with its owner's color (black when not computed).
    pub fn to_image(&self, cell: usize) -> Img2D<Rgba> {
        assert!(cell > 0, "cell size must be > 0");
        let mut img = Img2D::filled(
            self.grid.tiles_x() * cell,
            self.grid.tiles_y() * cell,
            Rgba::BLACK,
        );
        for ty in 0..self.grid.tiles_y() {
            for tx in 0..self.grid.tiles_x() {
                if let Some(w) = self.owner(tx, ty) {
                    let color = worker_color(w);
                    for py in 0..cell {
                        for px in 0..cell {
                            img.set(tx * cell + px, ty * cell + py, color);
                        }
                    }
                }
            }
        }
        img
    }

    /// ASCII rendering: one char per tile, `0-9a-z` for workers, `.` for
    /// holes. This is what the CLI prints in `--monitoring` mode.
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity((self.grid.tiles_x() + 1) * self.grid.tiles_y());
        for ty in 0..self.grid.tiles_y() {
            for tx in 0..self.grid.tiles_x() {
                out.push(match self.owner(tx, ty) {
                    Some(w) => worker_char(w),
                    None => '.',
                });
            }
            out.push('\n');
        }
        out
    }
}

/// The character used for worker `w` in ASCII tiling maps.
pub fn worker_char(w: WorkerId) -> char {
    const CHARS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    CHARS[w % CHARS.len()] as char
}

/// Per-tile task durations for one iteration — the heat-map mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeatMap {
    grid: TileGrid,
    /// Row-major duration per tile (0 = not computed).
    durations_ns: Vec<u64>,
}

impl HeatMap {
    /// Accumulates tile durations from the records of one iteration
    /// (several tasks on the same tile add up).
    pub fn from_records<'a>(
        grid: &TileGrid,
        records: impl Iterator<Item = &'a TileRecord>,
    ) -> Self {
        let mut durations_ns = vec![0u64; grid.len()];
        for r in records {
            if let Some(i) = grid.index_of_pixel(r.x, r.y) {
                durations_ns[i] += r.duration_ns();
            }
        }
        HeatMap {
            grid: *grid,
            durations_ns,
        }
    }

    /// Duration recorded for tile `(tx, ty)`.
    pub fn duration(&self, tx: usize, ty: usize) -> u64 {
        self.durations_ns[self.grid.linear_index(tx, ty)]
    }

    /// Hottest tile duration.
    pub fn max_duration(&self) -> u64 {
        self.durations_ns.iter().copied().max().unwrap_or(0)
    }

    /// Mean duration over *computed* tiles.
    pub fn mean_duration(&self) -> f64 {
        let computed: Vec<u64> = self.durations_ns.iter().copied().filter(|&d| d > 0).collect();
        if computed.is_empty() {
            0.0
        } else {
            computed.iter().sum::<u64>() as f64 / computed.len() as f64
        }
    }

    /// Mean duration of border tiles vs inner tiles — the Fig. 9b
    /// observation ("border tiles take a longer time to be processed
    /// than inner tiles") as a ratio.
    pub fn border_inner_ratio(&self) -> Option<f64> {
        let mut border = (0u64, 0usize);
        let mut inner = (0u64, 0usize);
        for t in self.grid.iter() {
            let d = self.duration(t.tx, t.ty);
            if d == 0 {
                continue;
            }
            if t.is_border(&self.grid) {
                border = (border.0 + d, border.1 + 1);
            } else {
                inner = (inner.0 + d, inner.1 + 1);
            }
        }
        if border.1 == 0 || inner.1 == 0 || inner.0 == 0 {
            return None;
        }
        let border_mean = border.0 as f64 / border.1 as f64;
        let inner_mean = inner.0 as f64 / inner.1 as f64;
        Some(border_mean / inner_mean)
    }

    /// Renders the heat map: brightness proportional to duration, on the
    /// given base hue (the paper scales the thread color's brightness;
    /// we expose the duration→color ramp directly).
    pub fn to_image(&self, cell: usize) -> Img2D<Rgba> {
        assert!(cell > 0, "cell size must be > 0");
        let max = self.max_duration().max(1);
        let mut img = Img2D::filled(
            self.grid.tiles_x() * cell,
            self.grid.tiles_y() * cell,
            Rgba::BLACK,
        );
        for ty in 0..self.grid.tiles_y() {
            for tx in 0..self.grid.tiles_x() {
                let d = self.duration(tx, ty);
                if d == 0 {
                    continue;
                }
                let color = heat_color(d as f32 / max as f32);
                for py in 0..cell {
                    for px in 0..cell {
                        img.set(tx * cell + px, ty * cell + py, color);
                    }
                }
            }
        }
        img
    }

    /// ASCII rendering with a 10-level brightness ramp.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.max_duration().max(1);
        let mut out = String::new();
        for ty in 0..self.grid.tiles_y() {
            for tx in 0..self.grid.tiles_x() {
                let d = self.duration(tx, ty);
                let level = ((d as f64 / max as f64) * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[level] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(worker: usize, x: usize, y: usize, dur: u64) -> TileRecord {
        TileRecord {
            iteration: 1,
            x,
            y,
            w: 16,
            h: 16,
            start_ns: 0,
            end_ns: dur,
            worker,
        }
    }

    fn grid() -> TileGrid {
        TileGrid::square(48, 16).unwrap() // 3x3 tiles
    }

    #[test]
    fn snapshot_assigns_owners() {
        let g = grid();
        let records = [rec(0, 0, 0, 5), rec(1, 16, 0, 5), rec(2, 32, 32, 5)];
        let snap = TilingSnapshot::from_records(&g, records.iter());
        assert_eq!(snap.owner(0, 0), Some(0));
        assert_eq!(snap.owner(1, 0), Some(1));
        assert_eq!(snap.owner(2, 2), Some(2));
        assert_eq!(snap.owner(1, 1), None);
        assert_eq!(snap.computed_tiles(), 3);
    }

    #[test]
    fn last_record_wins_on_recompute() {
        let g = grid();
        let records = [rec(0, 0, 0, 5), rec(2, 0, 0, 5)];
        let snap = TilingSnapshot::from_records(&g, records.iter());
        assert_eq!(snap.owner(0, 0), Some(2));
    }

    #[test]
    fn snapshot_image_uses_worker_colors() {
        let g = grid();
        let records = [rec(0, 0, 0, 5)];
        let snap = TilingSnapshot::from_records(&g, records.iter());
        let img = snap.to_image(4);
        assert_eq!(img.width(), 12);
        assert_eq!(img.height(), 12);
        assert_eq!(img.get(0, 0), worker_color(0));
        assert_eq!(img.get(5, 5), Rgba::BLACK); // uncomputed tile
    }

    #[test]
    fn snapshot_ascii_shape() {
        let g = grid();
        let records = [rec(0, 0, 0, 5), rec(11, 16, 16, 5)];
        let snap = TilingSnapshot::from_records(&g, records.iter());
        let art = snap.to_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "0..");
        assert_eq!(lines[1], ".b.");
        assert_eq!(lines[2], "...");
    }

    #[test]
    fn heat_map_accumulates_durations() {
        let g = grid();
        let records = [rec(0, 0, 0, 10), rec(1, 0, 0, 5), rec(0, 16, 0, 30)];
        let hm = HeatMap::from_records(&g, records.iter());
        assert_eq!(hm.duration(0, 0), 15);
        assert_eq!(hm.duration(1, 0), 30);
        assert_eq!(hm.max_duration(), 30);
        assert!((hm.mean_duration() - 22.5).abs() < 1e-9);
    }

    #[test]
    fn border_inner_ratio_reflects_blur_fig9b() {
        let g = grid(); // 3x3: 8 border tiles, 1 inner tile
        let mut records = Vec::new();
        for t in g.iter() {
            let d = if t.is_border(&g) { 100 } else { 10 };
            records.push(rec(0, t.x, t.y, d));
        }
        let hm = HeatMap::from_records(&g, records.iter());
        let ratio = hm.border_inner_ratio().unwrap();
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn border_inner_ratio_none_without_inner_tiles() {
        let g = TileGrid::square(32, 16).unwrap(); // 2x2: all border
        let records = [rec(0, 0, 0, 5)];
        let hm = HeatMap::from_records(&g, records.iter());
        assert!(hm.border_inner_ratio().is_none());
    }

    #[test]
    fn heat_ascii_uses_ramp_extremes() {
        let g = TileGrid::square(32, 16).unwrap();
        let records = [rec(0, 0, 0, 100), rec(0, 16, 16, 1)];
        let hm = HeatMap::from_records(&g, records.iter());
        let art = hm.to_ascii();
        assert!(art.contains('@')); // hottest
        assert!(art.contains(' ')); // uncomputed or coldest
    }

    #[test]
    fn worker_chars_wrap() {
        assert_eq!(worker_char(0), '0');
        assert_eq!(worker_char(10), 'a');
        assert_eq!(worker_char(36), '0');
    }
}
