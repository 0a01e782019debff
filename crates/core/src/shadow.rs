//! Shadow-write race detection for tile grids (`ezp-check`).
//!
//! Every EASYPAP variant is supposed to partition the image into
//! disjoint writes — tiles for `parallel for` kernels, dependency-ordered
//! tiles for task graphs. This module checks that claim instead of
//! trusting it: a [`ShadowGrid`] keeps one epoch-tagged word per pixel,
//! and every checked access records *who* (which chunk or task id)
//! touched the pixel *when* (which parallel region). Two accesses to the
//! same pixel in the same region by writers with no happens-before path
//! between them are a data race, reported both as a [`ShadowRace`] value
//! and through the ordinary [`Probe::runtime_event`] channel as
//! [`RuntimeEvent::ShadowRace`] — so the same observability stack that
//! shows steals and idle time also shows races.
//!
//! Two race classes are distinguished (see [`RaceKind`]):
//!
//! * **overlapping write** — two concurrently-runnable writers wrote the
//!   same pixel. For a `parallel for`, "concurrently runnable" means
//!   *different chunks* (a chunk is sequential within itself); for a task
//!   graph it means no dependency path connects the two tasks.
//! * **lost update** — a reader consumed a pixel whose last writer it is
//!   not ordered after. In a task graph this is precisely a missing
//!   `depend` edge: the read may see the old or the new value depending
//!   on scheduling.
//!
//! Happens-before is supplied by the caller as a predicate
//! `precedes(a, b)` over writer ids, because only the caller knows the
//! structure: `ezp-check`'s virtual executor passes DAG reachability for
//! task graphs and the always-false oracle for loop chunks.
//!
//! The whole module is compiled only under the `ezp-check` feature; the
//! production scheduling path never sees a shadow word.

// No lock type, hash-seeded collection or wall clock outside tests:
// the list is `clippy.toml` (docs/static-analysis.md).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::kernel::{Probe, RaceKind, RuntimeEvent};
use crate::WorkerId;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "the race log, locked only on a race; a replayed session writes from one thread, in schedule order"
)]
use std::sync::Mutex;

/// One detected race: where, who, and what class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowRace {
    /// Pixel column.
    pub x: usize,
    /// Pixel row.
    pub y: usize,
    /// Writer id that last touched the pixel.
    pub prev_writer: usize,
    /// Writer/reader id of the conflicting access.
    pub writer: usize,
    /// Overlapping write or lost update.
    pub kind: RaceKind,
}

/// Epoch-tagged per-pixel write log.
///
/// Each pixel holds one `u64` tag: the high 32 bits are the epoch (the
/// parallel region number), the low 32 bits the writer id plus one
/// (zero means "never written"). Tags from earlier epochs are stale and
/// ignored, so one grid serves a whole multi-iteration run — call
/// [`ShadowGrid::begin_epoch`] at each region boundary instead of
/// reallocating.
pub struct ShadowGrid {
    width: usize,
    height: usize,
    // Both atomics are synchronizing via the spine, not locally
    // (via-the-spine): conflicting tag accesses are ordered by the
    // scheduler's region synchronization, and `begin_epoch` runs in
    // the single-threaded gap between regions; `Relaxed` only keeps
    // torn writes impossible so a true race stays a *detected* race.
    epoch: AtomicU32,
    tags: Vec<AtomicU64>,
}

impl ShadowGrid {
    /// A shadow log for a `width`×`height` image, starting in epoch 1.
    pub fn new(width: usize, height: usize) -> Self {
        ShadowGrid {
            width,
            height,
            epoch: AtomicU32::new(1),
            tags: (0..width * height).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Opens a new epoch (parallel region); previous epochs' writes no
    /// longer conflict with new ones. Returns the new epoch number.
    pub fn begin_epoch(&self) -> u32 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    #[inline]
    fn tag_of(epoch: u32, writer: usize) -> u64 {
        debug_assert!(writer < u32::MAX as usize, "writer id out of tag range");
        ((epoch as u64) << 32) | (writer as u64 + 1)
    }

    #[inline]
    fn split(tag: u64) -> Option<(u32, usize)> {
        let w = (tag & 0xFFFF_FFFF) as u32;
        if w == 0 {
            None
        } else {
            Some(((tag >> 32) as u32, w as usize - 1))
        }
    }

    /// Records that `writer` wrote pixel `(x, y)` in the current epoch.
    ///
    /// Returns the race if the pixel was already written this epoch by a
    /// different writer that `precedes` does not order before this one.
    /// Re-writes by the same writer are always allowed (a chunk/task is
    /// sequential within itself).
    pub fn record_write(
        &self,
        x: usize,
        y: usize,
        writer: usize,
        precedes: &dyn Fn(usize, usize) -> bool,
    ) -> Option<ShadowRace> {
        assert!(
            x < self.width && y < self.height,
            "shadow write out of image"
        );
        let epoch = self.epoch.load(Ordering::Relaxed);
        let prev =
            self.tags[y * self.width + x].swap(Self::tag_of(epoch, writer), Ordering::Relaxed);
        match Self::split(prev) {
            Some((e, prev_writer))
                if e == epoch && prev_writer != writer && !precedes(prev_writer, writer) =>
            {
                Some(ShadowRace {
                    x,
                    y,
                    prev_writer,
                    writer,
                    kind: RaceKind::OverlappingWrite,
                })
            }
            _ => None,
        }
    }

    /// Records that `reader` read pixel `(x, y)` in the current epoch.
    ///
    /// Returns a [`RaceKind::LostUpdate`] race when the pixel's current
    /// value was produced this epoch by a writer the reader is not
    /// ordered after — i.e. the dependency edge that should make the
    /// value stable is missing.
    pub fn record_read(
        &self,
        x: usize,
        y: usize,
        reader: usize,
        precedes: &dyn Fn(usize, usize) -> bool,
    ) -> Option<ShadowRace> {
        assert!(
            x < self.width && y < self.height,
            "shadow read out of image"
        );
        let epoch = self.epoch.load(Ordering::Relaxed);
        let tag = self.tags[y * self.width + x].load(Ordering::Relaxed);
        match Self::split(tag) {
            Some((e, writer)) if e == epoch && writer != reader && !precedes(writer, reader) => {
                Some(ShadowRace {
                    x,
                    y,
                    prev_writer: writer,
                    writer: reader,
                    kind: RaceKind::LostUpdate,
                })
            }
            _ => None,
        }
    }
}

/// One checked parallel region: a [`ShadowGrid`] plus the happens-before
/// oracle and the probe races are reported to.
///
/// The session hands out per-writer [`ShadowWriter`] handles; every
/// write/read goes through the grid, and detected races are both
/// accumulated (for assertions) and forwarded as
/// [`RuntimeEvent::ShadowRace`] (for observability).
pub struct ShadowSession<'a> {
    grid: &'a ShadowGrid,
    probe: &'a dyn Probe,
    precedes: Box<dyn Fn(usize, usize) -> bool + Sync + 'a>,
    #[expect(
        clippy::disallowed_types,
        reason = "the race log, locked only on a race; a replayed session writes from one thread, in schedule order"
    )]
    races: Mutex<Vec<ShadowRace>>,
}

impl<'a> ShadowSession<'a> {
    /// Opens a checking session over `grid`. `precedes(a, b)` must return
    /// true when writer `a` is guaranteed to happen before writer `b`.
    pub fn new(
        grid: &'a ShadowGrid,
        probe: &'a dyn Probe,
        precedes: impl Fn(usize, usize) -> bool + Sync + 'a,
    ) -> Self {
        ShadowSession {
            grid,
            probe,
            precedes: Box::new(precedes),
            #[expect(
                clippy::disallowed_types,
                reason = "the race log, locked only on a race; a replayed session writes from one thread, in schedule order"
            )]
            races: Mutex::new(Vec::new()),
        }
    }

    /// A session for `parallel for` chunks: distinct chunks are never
    /// ordered, so any cross-chunk same-pixel access races.
    pub fn for_chunks(grid: &'a ShadowGrid, probe: &'a dyn Probe) -> Self {
        ShadowSession::new(grid, probe, |_, _| false)
    }

    /// The access handle for writer `id` running on `rank`.
    pub fn writer(&self, id: usize, rank: WorkerId) -> ShadowWriter<'_, 'a> {
        ShadowWriter {
            session: self,
            id,
            rank,
        }
    }

    /// Races detected so far, in detection order.
    pub fn races(&self) -> Vec<ShadowRace> {
        self.races.lock().unwrap().clone()
    }

    fn report(&self, rank: WorkerId, race: ShadowRace) {
        self.races.lock().unwrap().push(race);
        self.probe.runtime_event(
            rank,
            RuntimeEvent::ShadowRace {
                x: race.x,
                y: race.y,
                prev_writer: race.prev_writer,
                writer: race.writer,
                kind: race.kind,
            },
        );
    }
}

/// Checked pixel access on behalf of one writer id (a chunk or task).
pub struct ShadowWriter<'s, 'a> {
    session: &'s ShadowSession<'a>,
    id: usize,
    rank: WorkerId,
}

impl ShadowWriter<'_, '_> {
    /// The writer id this handle records under.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Records a write to `(x, y)`, reporting any race it exposes.
    pub fn write(&self, x: usize, y: usize) {
        if let Some(race) = self
            .session
            .grid
            .record_write(x, y, self.id, &*self.session.precedes)
        {
            self.session.report(self.rank, race);
        }
    }

    /// Records a read of `(x, y)`, reporting any lost update it exposes.
    pub fn read(&self, x: usize, y: usize) {
        if let Some(race) = self
            .session
            .grid
            .record_read(x, y, self.id, &*self.session.precedes)
        {
            self.session.report(self.rank, race);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::NullProbe;
    use std::sync::atomic::AtomicUsize;

    const UNORDERED: fn(usize, usize) -> bool = |_, _| false;

    #[test]
    fn disjoint_writes_are_silent() {
        let g = ShadowGrid::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                // writer = column, so each writer owns a disjoint column
                assert_eq!(g.record_write(x, y, x, &UNORDERED), None);
            }
        }
    }

    #[test]
    fn overlapping_writers_race_same_writer_does_not() {
        let g = ShadowGrid::new(4, 4);
        assert_eq!(g.record_write(1, 2, 7, &UNORDERED), None);
        // same writer re-writes: sequential within itself
        assert_eq!(g.record_write(1, 2, 7, &UNORDERED), None);
        let race = g.record_write(1, 2, 9, &UNORDERED).expect("race expected");
        assert_eq!(
            race,
            ShadowRace {
                x: 1,
                y: 2,
                prev_writer: 7,
                writer: 9,
                kind: RaceKind::OverlappingWrite,
            }
        );
    }

    #[test]
    fn happens_before_suppresses_the_race() {
        let g = ShadowGrid::new(4, 4);
        let hb: fn(usize, usize) -> bool = |a, b| a < b; // chain order
        assert_eq!(g.record_write(0, 0, 1, &hb), None);
        assert_eq!(g.record_write(0, 0, 2, &hb), None); // 1 ≺ 2: ordered
        assert!(g.record_write(0, 0, 1, &hb).is_some()); // 2 ⊀ 1: race
    }

    #[test]
    fn new_epoch_forgets_old_writes() {
        let g = ShadowGrid::new(4, 4);
        assert_eq!(g.record_write(3, 3, 1, &UNORDERED), None);
        g.begin_epoch();
        // same pixel, different writer, new region: no conflict
        assert_eq!(g.record_write(3, 3, 2, &UNORDERED), None);
    }

    #[test]
    fn unordered_read_is_a_lost_update() {
        let g = ShadowGrid::new(4, 4);
        let hb: fn(usize, usize) -> bool = |a, b| a + 1 == b; // only direct edges
        assert_eq!(g.record_write(2, 2, 5, &hb), None);
        assert_eq!(g.record_read(2, 2, 6, &hb), None); // 5 → 6 edge exists
        let race = g.record_read(2, 2, 9, &hb).expect("missing edge");
        assert_eq!(race.kind, RaceKind::LostUpdate);
        assert_eq!((race.prev_writer, race.writer), (5, 9));
        // reading an untouched pixel is always fine
        assert_eq!(g.record_read(0, 0, 9, &hb), None);
        // reading your own write too (writer == reader)
        assert_eq!(g.record_read(2, 2, 5, &hb), None);
    }

    #[test]
    fn session_reports_through_probe_and_accumulates() {
        struct CountRaces(AtomicUsize);
        impl Probe for CountRaces {
            fn runtime_event(&self, _: WorkerId, event: RuntimeEvent) {
                if let RuntimeEvent::ShadowRace { .. } = event {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn wants_runtime_events(&self) -> bool {
                true
            }
        }
        let g = ShadowGrid::new(8, 8);
        let probe = CountRaces(AtomicUsize::new(0));
        let session = ShadowSession::for_chunks(&g, &probe);
        session.writer(0, 0).write(4, 4);
        session.writer(1, 1).write(4, 4); // overlap
        session.writer(1, 1).write(5, 4); // fine
        assert_eq!(probe.0.load(Ordering::Relaxed), 1);
        let races = session.races();
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].x, races[0].y), (4, 4));
        assert_eq!(races[0].kind, RaceKind::OverlappingWrite);
    }

    #[test]
    fn session_is_safe_from_real_threads() {
        // writers on 2 threads hammer disjoint halves: no races
        let g = ShadowGrid::new(32, 32);
        let session = ShadowSession::for_chunks(&g, &NullProbe);
        std::thread::scope(|s| {
            for half in 0..2 {
                let session = &session;
                s.spawn(move || {
                    let w = session.writer(half, half);
                    for y in (half * 16)..(half * 16 + 16) {
                        for x in 0..32 {
                            w.write(x, y);
                        }
                    }
                });
            }
        });
        assert!(session.races().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of image")]
    fn out_of_bounds_shadow_write_panics() {
        let g = ShadowGrid::new(4, 4);
        let _ = g.record_write(4, 0, 0, &UNORDERED);
    }
}
