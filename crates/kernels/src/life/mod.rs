//! Conway's Game of Life (paper §III-D, Fig. 13).
//!
//! The capstone assignment: an efficient Game of Life over "large,
//! potentially sparse simulations", with
//!
//! * low-memory bit-packed state ([`bitboard::BitBoard`], 1 bit/cell);
//! * a **lazy** variant that "avoids computing tiles whose neighbourhood
//!   was in a steady state at the previous iteration" — skipped tiles
//!   produce no monitoring events, so the Tiling window shows exactly
//!   the active regions (the diagonals of Fig. 13);
//! * an **mpi_omp** variant: ranks own horizontal blocks, exchange ghost
//!   rows *and per-tile steadiness metadata* every iteration, and each
//!   rank steps its tiles with its own thread pool (MPI+OpenMP).
//!
//! All variants converge-detect: `compute` returns `Some(it)` once the
//! whole board is steady.

pub mod bitboard;

pub use bitboard::BitBoard;

use ezp_core::error::{Error, Result};
use ezp_core::kernel::Probe;
use ezp_core::{Kernel, KernelCtx, Rgba, TileGrid};
use ezp_monitor::{Monitor, MonitorReport};
use ezp_mpi::{collective, ghost, BlockRows, CommStats};
use ezp_sched::parallel_for_range_probed;
use ezp_testkit::Rng;
use std::sync::atomic::{AtomicBool, Ordering};

/// Color of live cells in the refreshed image.
const LIVE: Rgba = Rgba::YELLOW;

/// The Game-of-Life kernel.
pub struct Life {
    cur: BitBoard,
    next: BitBoard,
    /// Per-tile "changed during previous iteration" flags (lazy variant).
    changed: Vec<bool>,
    /// Per-rank monitoring reports of the last `mpi_omp` run — the data
    /// behind the per-process windows of `--debug M` (Fig. 13).
    pub last_mpi_reports: Vec<MonitorReport>,
    /// Per-rank communication counters of the last `mpi_omp` run
    /// (messages, bytes, collectives) — merged into `--stats` output.
    pub last_mpi_comm_stats: Vec<CommStats>,
}

impl Default for Life {
    fn default() -> Self {
        Life {
            cur: BitBoard::new(1, 1),
            next: BitBoard::new(1, 1),
            changed: Vec::new(),
            last_mpi_reports: Vec::new(),
            last_mpi_comm_stats: Vec::new(),
        }
    }
}

impl Life {
    /// Direct read access to the current board (tests, examples).
    pub fn board(&self) -> &BitBoard {
        &self.cur
    }

    /// Seeds the board according to the `--arg` pattern spec:
    /// `gliders[:spacing]` (default), `random[:density]`, `blinker`,
    /// `block`, `empty`.
    fn seed_pattern(&mut self, dim: usize, spec: &str, seed: u64) -> Result<()> {
        let (name, param) = match spec.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (spec, None),
        };
        match name {
            "gliders" => {
                let spacing = match param {
                    Some(p) => p
                        .parse()
                        .map_err(|_| Error::Config(format!("life: bad spacing `{p}`")))?,
                    None => (dim / 8).max(16),
                };
                for (x, y) in crate::shapes::diagonal_glider_positions(dim, spacing) {
                    crate::shapes::stamp_glider(|px, py| self.cur.set(px, py, true), x, y);
                }
            }
            "random" => {
                let density: f64 = match param {
                    Some(p) => p
                        .parse()
                        .map_err(|_| Error::Config(format!("life: bad density `{p}`")))?,
                    None => 0.25,
                };
                let mut rng = Rng::seed(seed);
                for y in 0..dim {
                    for x in 0..dim {
                        if rng.gen_bool(density.clamp(0.0, 1.0)) {
                            self.cur.set(x, y, true);
                        }
                    }
                }
            }
            "blinker" => {
                let c = dim / 2;
                for y in c.saturating_sub(1)..=(c + 1).min(dim - 1) {
                    self.cur.set(c, y, true);
                }
            }
            "block" => {
                let c = dim / 2;
                for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    self.cur.set(c + dx, c + dy, true);
                }
            }
            "empty" => {}
            other => {
                return Err(Error::Config(format!("life: unknown pattern `{other}`")));
            }
        }
        Ok(())
    }

    /// Sequential whole-board stepping (bit-parallel words).
    fn compute_seq(&mut self, ctx: &mut KernelCtx, nb_iter: u32) -> Option<u32> {
        let dim = ctx.dim();
        for it in 1..=nb_iter {
            ctx.probe.iteration_start(it);
            ctx.probe.start_tile(0);
            let changed = self.next.step_rows_from(&self.cur, 0, dim);
            ctx.probe.end_tile(0, 0, dim, dim, 0);
            std::mem::swap(&mut self.cur, &mut self.next);
            ctx.probe.iteration_end(it);
            if !changed {
                return Some(it);
            }
        }
        None
    }

    /// Row-band parallel stepping with the word-parallel (bit-sliced)
    /// rule: bands of `tile_size` rows are scheduled like 1D chunks —
    /// the `omp` (non-collapsed `parallel for`) variant, and the fastest
    /// eager path because each band advances 64 cells per instruction.
    fn compute_rows(&mut self, ctx: &mut KernelCtx, nb_iter: u32) -> Option<u32> {
        let dim = ctx.dim();
        let band = ctx.cfg.tile_size.max(1);
        let bands = dim.div_ceil(band);
        let schedule = ctx.cfg.schedule;
        let mut pool = ezp_sched::acquire_pool(ctx.threads());
        for it in 1..=nb_iter {
            ctx.probe.iteration_start(it);
            let any_changed = AtomicBool::new(false);
            {
                let cur = &self.cur;
                let next = &self.next;
                let probe = &*ctx.probe;
                parallel_for_range_probed(&mut pool, bands, schedule, probe, |b, rank| {
                    let y0 = b * band;
                    let y1 = (y0 + band).min(dim);
                    probe.start_tile(rank);
                    let c = next.step_rows_from(cur, y0, y1);
                    probe.end_tile(0, y0, dim, y1 - y0, rank);
                    if c {
                        any_changed.store(true, Ordering::Relaxed);
                    }
                });
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            ctx.probe.iteration_end(it);
            if !any_changed.load(Ordering::Relaxed) {
                return Some(it);
            }
        }
        None
    }

    /// Tile-parallel stepping; `lazy` skips tiles whose 3×3 tile
    /// neighbourhood was steady at the previous iteration.
    fn compute_tiled(&mut self, ctx: &mut KernelCtx, nb_iter: u32, lazy: bool) -> Option<u32> {
        let grid = ctx.grid;
        let schedule = ctx.cfg.schedule;
        let mut pool = ezp_sched::acquire_pool(ctx.threads());
        if self.changed.len() != grid.len() {
            self.changed = vec![true; grid.len()];
        }
        for it in 1..=nb_iter {
            ctx.probe.iteration_start(it);
            let changed_now: Vec<AtomicBool> =
                (0..grid.len()).map(|_| AtomicBool::new(false)).collect();
            let any_changed = AtomicBool::new(false);
            {
                let cur = &self.cur;
                let next = &self.next;
                let prev_changed = &self.changed;
                let probe = &*ctx.probe;
                parallel_for_range_probed(&mut pool, grid.len(), schedule, probe, |i, rank| {
                    let tile = grid.tile_at(i);
                    if lazy && !neighbourhood_changed(&grid, prev_changed, tile.tx, tile.ty) {
                        return; // steady neighbourhood: skip, no events
                    }
                    probe.start_tile(rank);
                    let c = next.step_tile_from(cur, tile);
                    probe.end_tile(tile.x, tile.y, tile.w, tile.h, rank);
                    if c {
                        changed_now[i].store(true, Ordering::Relaxed);
                        any_changed.store(true, Ordering::Relaxed);
                    }
                });
            }
            // lazily skipped tiles keep their (steady) content valid in
            // both buffers by the induction argument in DESIGN.md
            std::mem::swap(&mut self.cur, &mut self.next);
            self.changed = changed_now
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            ctx.probe.iteration_end(it);
            if !any_changed.load(Ordering::Relaxed) {
                return Some(it);
            }
        }
        None
    }

    /// The MPI+OpenMP variant (Fig. 13): row-block decomposition, ghost
    /// rows + per-boundary-tile steadiness metadata, lazy tile stepping
    /// inside each rank, per-rank monitors.
    fn compute_mpi(&mut self, ctx: &mut KernelCtx, nb_iter: u32) -> Result<Option<u32>> {
        let dim = ctx.dim();
        let np = ctx.cfg.mpi_ranks;
        if np > dim {
            // a rank without a row indexes past the board, and its
            // neighbours wait for its ghost rows forever
            return Err(Error::Config(format!(
                "--mpirun -np {np}: a {dim}-row image has rows for at most {dim} ranks"
            )));
        }
        let threads = ctx.threads();
        let grid = ctx.grid;
        // ship each rank its initial rows
        let init_rows: Vec<Vec<u64>> = (0..dim).map(|y| self.cur.row_words(y)).collect();
        let init_rows = &init_rows;

        struct RankResult {
            first_row: usize,
            rows: Vec<Vec<u64>>,
            report: MonitorReport,
            converged_at: Option<u32>,
        }

        let probe = &*ctx.probe;
        let (results, comm_stats) = ezp_mpi::run_with_stats(np, |comm| -> Result<RankResult> {
            let block = BlockRows::new(comm, dim);
            let (r0, r1) = block.my_range();
            // full-size local board, only rows [r0-1, r1] materialized
            let cur = BitBoard::new(dim, dim);
            let next = BitBoard::new(dim, dim);
            for (y, row) in init_rows.iter().enumerate().take(r1).skip(r0) {
                cur.set_row_words(y, row);
            }
            let monitor = Monitor::new(threads.max(1), grid);
            let mut pool = ezp_sched::acquire_pool(threads.max(1));
            // tiles whose row range intersects this rank's block
            let my_tiles: Vec<usize> = (0..grid.len())
                .filter(|&i| {
                    let t = grid.tile_at(i);
                    t.y < r1 && t.y + t.h > r0
                })
                .collect();
            let mut changed: Vec<bool> = vec![true; grid.len()];
            let mut converged_at = None;
            const TAG_META_UP: u32 = 100;
            const TAG_META_DOWN: u32 = 101;

            for it in 1..=nb_iter {
                monitor.iteration_start(it);
                // 1) ghost rows: my first/last rows to my neighbours
                let first = cur.row_words(r0);
                let last = cur.row_words(r1 - 1);
                let (above, below) = ghost::exchange_rows(comm, &block, &first, &last)?;
                if let Some(above) = above {
                    cur.set_row_words(r0 - 1, &above);
                }
                if let Some(below) = below {
                    cur.set_row_words(r1, &below);
                }
                // 2) tile-state metadata: the changed flags of my boundary
                // tile rows, so neighbours can stay lazy across the seam
                let boundary_flags = |ty: usize| -> Vec<bool> {
                    (0..grid.tiles_x()).map(|tx| changed[grid.linear_index(tx, ty)]).collect()
                };
                let ty_first = (r0 / grid.tile_h()).min(grid.tiles_y() - 1);
                let ty_last = ((r1 - 1) / grid.tile_h()).min(grid.tiles_y() - 1);
                if let Some(up) = block.up_neighbor() {
                    comm.send(up, TAG_META_UP, &(ty_first, boundary_flags(ty_first)))?;
                }
                if let Some(down) = block.down_neighbor() {
                    comm.send(down, TAG_META_DOWN, &(ty_last, boundary_flags(ty_last)))?;
                }
                // OR (never overwrite) the received flags into ours: when
                // a tile row straddles the block boundary both ranks hold
                // partial knowledge and the union is the safe answer
                if let Some(up) = block.up_neighbor() {
                    let (ty, flags): (usize, Vec<bool>) = comm.recv(up, TAG_META_DOWN)?;
                    for (tx, f) in flags.iter().enumerate() {
                        if *f {
                            changed[grid.linear_index(tx, ty)] = true;
                        }
                    }
                }
                if let Some(down) = block.down_neighbor() {
                    let (ty, flags): (usize, Vec<bool>) = comm.recv(down, TAG_META_UP)?;
                    for (tx, f) in flags.iter().enumerate() {
                        if *f {
                            changed[grid.linear_index(tx, ty)] = true;
                        }
                    }
                }
                // 3) lazily step my tiles (clipped to my rows) in parallel
                let changed_now: Vec<AtomicBool> =
                    (0..grid.len()).map(|_| AtomicBool::new(false)).collect();
                {
                    let cur_ref = &cur;
                    let next_ref = &next;
                    let changed_ref = &changed;
                    let changed_now_ref = &changed_now;
                    let my_tiles_ref = &my_tiles;
                    let monitor_ref = &monitor;
                    parallel_for_range_probed(
                        &mut pool,
                        my_tiles_ref.len(),
                        ctx.cfg.schedule,
                        probe,
                        |k, rank| {
                            let i = my_tiles_ref[k];
                            let mut tile = grid.tile_at(i);
                            if !neighbourhood_changed(&grid, changed_ref, tile.tx, tile.ty) {
                                return;
                            }
                            // clip the tile to this rank's rows
                            let y0 = tile.y.max(r0);
                            let y1 = (tile.y + tile.h).min(r1);
                            tile.y = y0;
                            tile.h = y1 - y0;
                            monitor_ref.start_tile(rank);
                            let c = next_ref.step_tile_from(cur_ref, tile);
                            monitor_ref.end_tile(tile.x, tile.y, tile.w, tile.h, rank);
                            if c {
                                changed_now_ref[i].store(true, Ordering::Relaxed);
                            }
                        },
                    );
                }
                // carry ghost rows into `next` so the swap keeps them
                // usable as stale-but-steady data (they are refreshed at
                // the top of every iteration anyway)
                if r0 > 0 {
                    next.set_row_words(r0 - 1, &cur.row_words(r0 - 1));
                }
                if r1 < dim {
                    next.set_row_words(r1, &cur.row_words(r1));
                }
                // swap local boards (both are plain locals here)
                for y in r0.saturating_sub(1)..(r1 + 1).min(dim) {
                    let tmp = cur.row_words(y);
                    cur.set_row_words(y, &next.row_words(y));
                    next.set_row_words(y, &tmp);
                }
                for (i, c) in changed_now.iter().enumerate() {
                    changed[i] = c.load(Ordering::Relaxed);
                }
                monitor.iteration_end(it);
                // 4) global steadiness vote
                let locally_steady = my_tiles.iter().all(|&i| !changed[i]);
                let all_steady = collective::allreduce_and(comm, locally_steady)?;
                if all_steady {
                    converged_at = Some(it);
                    break;
                }
            }
            Ok(RankResult {
                first_row: r0,
                rows: (r0..r1).map(|y| cur.row_words(y)).collect(),
                report: monitor.report(),
                converged_at,
            })
        })?;

        // rebuild the global board and stash the per-rank reports
        self.last_mpi_reports.clear();
        self.last_mpi_comm_stats = comm_stats;
        let mut converged = Some(0u32);
        for r in results {
            for (dy, row) in r.rows.iter().enumerate() {
                self.cur.set_row_words(r.first_row + dy, row);
            }
            converged = match (converged, r.converged_at) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
            self.last_mpi_reports.push(r.report);
        }
        Ok(converged.filter(|&it| it > 0))
    }
}

/// True when tile `(tx, ty)` or any of its 8 neighbours changed.
fn neighbourhood_changed(grid: &TileGrid, changed: &[bool], tx: usize, ty: usize) -> bool {
    for dy in -1isize..=1 {
        for dx in -1isize..=1 {
            let nx = tx as isize + dx;
            let ny = ty as isize + dy;
            if nx < 0 || ny < 0 || nx as usize >= grid.tiles_x() || ny as usize >= grid.tiles_y() {
                continue;
            }
            if changed[grid.linear_index(nx as usize, ny as usize)] {
                return true;
            }
        }
    }
    false
}

impl Kernel for Life {
    fn name(&self) -> &'static str {
        "life"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "omp", "omp_tiled", "lazy", "mpi_omp"]
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let dim = ctx.dim();
        self.cur = BitBoard::new(dim, dim);
        self.next = BitBoard::new(dim, dim);
        self.changed = vec![true; ctx.grid.len()];
        let spec = ctx.cfg.kernel_arg.clone().unwrap_or_else(|| "gliders".to_string());
        self.seed_pattern(dim, &spec, ctx.cfg.seed)?;
        self.refresh_image(ctx)
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        let converged = match variant {
            "seq" => self.compute_seq(ctx, nb_iter),
            "omp" => self.compute_rows(ctx, nb_iter),
            "omp_tiled" => self.compute_tiled(ctx, nb_iter, false),
            "lazy" => self.compute_tiled(ctx, nb_iter, true),
            "mpi_omp" => self.compute_mpi(ctx, nb_iter)?,
            other => {
                return Err(Error::UnknownKernel {
                    kernel: "life".into(),
                    variant: other.into(),
                })
            }
        };
        Ok(converged)
    }

    fn refresh_image(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        self.cur.paint(ctx.images.cur_mut(), LIVE);
        Ok(())
    }

    fn stats_counters(&self) -> Vec<(String, Vec<u64>)> {
        if self.last_mpi_comm_stats.is_empty() {
            return Vec::new();
        }
        let per_rank = |f: fn(&CommStats) -> u64| -> Vec<u64> {
            self.last_mpi_comm_stats.iter().map(f).collect()
        };
        vec![
            ("mpi_msgs_sent".into(), per_rank(|s| s.msgs_sent)),
            ("mpi_bytes_sent".into(), per_rank(|s| s.bytes_sent)),
            ("mpi_msgs_received".into(), per_rank(|s| s.msgs_received)),
            ("mpi_bytes_received".into(), per_rank(|s| s.bytes_received)),
            ("mpi_barriers".into(), per_rank(|s| s.barriers)),
            ("mpi_broadcasts".into(), per_rank(|s| s.broadcasts)),
            ("mpi_gathers".into(), per_rank(|s| s.gathers)),
            ("mpi_scatters".into(), per_rank(|s| s.scatters)),
            ("mpi_reduces".into(), per_rank(|s| s.reduces)),
            ("mpi_alltoalls".into(), per_rank(|s| s.alltoalls)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::{RunConfig, Schedule};

    fn make_ctx(dim: usize, tile: usize, pattern: &str, threads: usize, ranks: usize) -> KernelCtx {
        let mut cfg = RunConfig::new("life")
            .size(dim)
            .tile(tile)
            .threads(threads)
            .schedule(Schedule::Dynamic(1));
        cfg.kernel_arg = Some(pattern.to_string());
        cfg.mpi_ranks = ranks;
        KernelCtx::new(cfg).unwrap()
    }

    fn run_variant(variant: &str, dim: usize, tile: usize, pattern: &str, iters: u32) -> (Life, Option<u32>) {
        let ranks = if variant == "mpi_omp" { 2 } else { 1 };
        let mut k = Life::default();
        let mut c = make_ctx(dim, tile, pattern, 2, ranks);
        k.init(&mut c).unwrap();
        let conv = k.compute(&mut c, variant, iters).unwrap();
        (k, conv)
    }

    /// Pins the PRNG-dependent `random` seeding: with the default seed
    /// (42), the first 16 live cells in row-major order must stay exactly
    /// here. If this test fails, the in-repo PRNG (or the seeding loop)
    /// changed and every recorded "random" run stops being reproducible.
    #[test]
    fn random_seeding_first_cells_are_pinned() {
        let mut k = Life::default();
        let mut c = make_ctx(64, 16, "random:0.3", 1, 1);
        k.init(&mut c).unwrap();
        let mut first = Vec::new();
        'scan: for y in 0..64 {
            for x in 0..64 {
                if k.board().get(x, y) {
                    first.push((x, y));
                    if first.len() == 16 {
                        break 'scan;
                    }
                }
            }
        }
        let expected = vec![
            (6, 0),
            (8, 0),
            (13, 0),
            (16, 0),
            (17, 0),
            (20, 0),
            (25, 0),
            (30, 0),
            (33, 0),
            (41, 0),
            (44, 0),
            (49, 0),
            (55, 0),
            (57, 0),
            (59, 0),
            (4, 1),
        ];
        assert_eq!(first, expected);
    }

    #[test]
    fn all_variants_agree_on_random_board() {
        let (seq, _) = run_variant("seq", 64, 16, "random:0.3", 6);
        for v in ["omp", "omp_tiled", "lazy", "mpi_omp"] {
            let (k, _) = run_variant(v, 64, 16, "random:0.3", 6);
            assert_eq!(k.board(), seq.board(), "variant {v} diverged from seq");
        }
    }

    #[test]
    fn glider_crosses_tile_and_rank_boundaries() {
        let (seq, _) = run_variant("seq", 48, 16, "gliders:16", 30);
        for v in ["lazy", "mpi_omp"] {
            let (k, _) = run_variant(v, 48, 16, "gliders:16", 30);
            assert_eq!(k.board(), seq.board(), "variant {v} broke the glider");
        }
    }

    #[test]
    fn still_life_converges_immediately() {
        for v in ["seq", "omp", "omp_tiled", "lazy", "mpi_omp"] {
            let (_, conv) = run_variant(v, 32, 8, "block", 10);
            assert_eq!(conv, Some(1), "variant {v} missed the still life");
        }
    }

    #[test]
    fn blinker_never_converges() {
        for v in ["seq", "lazy", "mpi_omp"] {
            let (_, conv) = run_variant(v, 16, 8, "blinker", 7);
            assert_eq!(conv, None, "variant {v} wrongly detected convergence");
        }
    }

    #[test]
    fn empty_board_converges_at_once() {
        let (k, conv) = run_variant("lazy", 32, 8, "empty", 5);
        assert_eq!(conv, Some(1));
        assert_eq!(k.board().live_count(), 0);
    }

    #[test]
    fn lazy_skips_steady_tiles() {
        // a block in one corner: after iteration 2, everything is steady;
        // until then only the corner neighbourhood is computed.
        let mut k = Life::default();
        let mut c = make_ctx(64, 16, "block", 2, 1);
        let monitor = std::sync::Arc::new(Monitor::new(2, c.grid));
        c = c.with_probe(monitor.clone());
        k.init(&mut c).unwrap();
        let conv = k.compute(&mut c, "lazy", 10).unwrap();
        assert_eq!(conv, Some(1));
        let report = monitor.report();
        // iteration 1 computed all 16 tiles (all flags start true)
        assert_eq!(report.tiling_snapshot(1).computed_tiles(), 16);
    }

    #[test]
    fn lazy_computes_only_active_neighbourhood_after_warmup() {
        // glider in the top-left: after warm-up, far-away tiles are skipped
        let mut k = Life::default();
        let mut c = make_ctx(96, 16, "empty", 2, 1);
        k.init(&mut c).unwrap();
        crate::shapes::stamp_glider(|x, y| k.cur.set(x, y, true), 4, 4);
        let monitor = std::sync::Arc::new(Monitor::new(2, c.grid));
        c = c.with_probe(monitor.clone());
        k.compute(&mut c, "lazy", 4).unwrap();
        let report = monitor.report();
        let computed: Vec<usize> = (2..=4)
            .map(|it| report.tiling_snapshot(it).computed_tiles())
            .collect();
        // 6x6 = 36 tiles; the active neighbourhood is at most 3x3 = 9
        for (i, &n) in computed.iter().enumerate() {
            assert!(n <= 9, "iteration {}: {} tiles computed, expected <= 9", i + 2, n);
            assert!(n > 0, "glider must keep some tiles active");
        }
    }

    #[test]
    fn mpi_reports_show_row_block_split() {
        let (k, _) = run_variant("mpi_omp", 64, 16, "random:0.3", 3);
        assert_eq!(k.last_mpi_reports.len(), 2);
        // rank 0 only touched tiles in the top half, rank 1 bottom half
        let top = k.last_mpi_reports[0].tiling_snapshot(1);
        let bottom = k.last_mpi_reports[1].tiling_snapshot(1);
        assert!(top.computed_tiles() > 0);
        assert!(bottom.computed_tiles() > 0);
        let grid = ezp_core::TileGrid::square(64, 16).unwrap();
        for ty in 0..grid.tiles_y() {
            for tx in 0..grid.tiles_x() {
                if ty < 2 {
                    assert!(bottom.owner(tx, ty).is_none(), "rank 1 computed a top tile");
                } else {
                    assert!(top.owner(tx, ty).is_none(), "rank 0 computed a bottom tile");
                }
            }
        }
    }

    #[test]
    fn diagonal_gliders_keep_activity_near_diagonals() {
        // the Fig. 13 check: with the sparse diagonal dataset, computed
        // tiles stay near the diagonals
        let (k, _) = run_variant("mpi_omp", 128, 16, "gliders:32", 3);
        let grid = ezp_core::TileGrid::square(128, 16).unwrap();
        let mut computed = 0;
        let mut near_diag = 0;
        for report in &k.last_mpi_reports {
            let snap = report.tiling_snapshot(3);
            for t in grid.iter() {
                if snap.owner(t.tx, t.ty).is_some() {
                    computed += 1;
                    let on_main = (t.tx as i64 - t.ty as i64).abs() <= 1;
                    let on_anti = (t.tx as i64 + t.ty as i64 - grid.tiles_x() as i64 + 1).abs() <= 2;
                    if on_main || on_anti {
                        near_diag += 1;
                    }
                }
            }
        }
        assert!(computed > 0);
        assert!(
            near_diag * 10 >= computed * 8,
            "only {near_diag}/{computed} computed tiles near diagonals"
        );
    }

    #[test]
    fn bad_patterns_are_rejected() {
        let mut k = Life::default();
        let mut c = make_ctx(16, 8, "warp-drive", 1, 1);
        assert!(k.init(&mut c).is_err());
        let mut c2 = make_ctx(16, 8, "random:notanumber", 1, 1);
        assert!(k.init(&mut c2).is_err());
    }

    #[test]
    fn refresh_image_paints_live_cells() {
        let mut k = Life::default();
        let mut c = make_ctx(16, 8, "block", 1, 1);
        k.init(&mut c).unwrap();
        let img = c.images.cur();
        assert_eq!(img.get(8, 8), LIVE);
        assert_eq!(img.get(0, 0), Rgba::TRANSPARENT);
        assert!(img.occupancy() > 0.0);
    }
}
