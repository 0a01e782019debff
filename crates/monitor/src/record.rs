//! The unit of monitoring data: one computed tile.

use ezp_core::json::{FromJson, Json, ToJson};
use ezp_core::WorkerId;

/// One `monitoring_start_tile` / `monitoring_end_tile` bracket: a tile
/// computed by one worker during one iteration, with wall-clock
/// timestamps (nanoseconds since the process origin).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileRecord {
    /// Iteration during which the tile was computed (1-based, like the
    /// paper's `for (it = 1; it <= nb_iter; it++)` loop).
    pub iteration: u32,
    /// Left pixel column of the tile rectangle.
    pub x: usize,
    /// Top pixel row.
    pub y: usize,
    /// Rectangle width in pixels.
    pub w: usize,
    /// Rectangle height in pixels.
    pub h: usize,
    /// Start timestamp (ns).
    pub start_ns: u64,
    /// End timestamp (ns).
    pub end_ns: u64,
    /// Worker that computed the tile.
    pub worker: WorkerId,
}

impl TileRecord {
    /// Task duration in nanoseconds.
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// True when the time interval of `self` overlaps `[t0, t1)` — the
    /// query behind EASYVIEW's vertical mouse mode ("tasks intersecting
    /// the mouse x-axis have their corresponding tile highlighted").
    #[inline]
    pub fn intersects_time(&self, t0: u64, t1: u64) -> bool {
        self.start_ns < t1 && t0 < self.end_ns
    }

    /// Number of pixels covered by the tile rectangle.
    #[inline]
    pub fn pixels(&self) -> usize {
        self.w * self.h
    }
}

/// The records of iteration `it` within `records`: the contiguous run
/// found by binary search. `records` must be grouped by non-decreasing
/// iteration — which [`crate::MonitorReport::new`] establishes and
/// trace validation checks — so asking for every iteration in turn
/// costs O(records) overall instead of one full scan per iteration.
pub fn iteration_run(records: &[TileRecord], it: u32) -> &[TileRecord] {
    let lo = records.partition_point(|r| r.iteration < it);
    let len = records[lo..].partition_point(|r| r.iteration == it);
    &records[lo..lo + len]
}

/// One task-graph dependency edge observed during a run: `from` must
/// complete before `to` may start, for the reason `kind` encodes
/// (data / width / capacity — see `ezp_core::kernel::EdgeKind`). Edges
/// are what turn a recorded trace from a bag of intervals into a timed
/// DAG that `easyview explain` can walk for the critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DepEdge {
    /// Task id of the producer (the dependency).
    pub from: usize,
    /// Task id of the consumer (the dependent).
    pub to: usize,
    /// Edge family, encoded per [`EdgeKind::as_u8`](ezp_core::kernel::EdgeKind::as_u8).
    pub kind: u8,
}

impl DepEdge {
    /// The decoded edge family, if `kind` is a known encoding.
    pub fn edge_kind(&self) -> Option<ezp_core::kernel::EdgeKind> {
        ezp_core::kernel::EdgeKind::from_u8(self.kind)
    }
}

impl ToJson for DepEdge {
    fn to_json(&self) -> Json {
        Json::obj([
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("kind", self.kind.to_json()),
        ])
    }
}

impl FromJson for DepEdge {
    fn from_json(v: &Json) -> ezp_core::Result<Self> {
        Ok(DepEdge {
            from: v.field("from")?,
            to: v.field("to")?,
            kind: v.field("kind")?,
        })
    }
}

impl ToJson for TileRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("iteration", self.iteration.to_json()),
            ("x", self.x.to_json()),
            ("y", self.y.to_json()),
            ("w", self.w.to_json()),
            ("h", self.h.to_json()),
            ("start_ns", self.start_ns.to_json()),
            ("end_ns", self.end_ns.to_json()),
            ("worker", self.worker.to_json()),
        ])
    }
}

impl FromJson for TileRecord {
    fn from_json(v: &Json) -> ezp_core::Result<Self> {
        Ok(TileRecord {
            iteration: v.field("iteration")?,
            x: v.field("x")?,
            y: v.field("y")?,
            w: v.field("w")?,
            h: v.field("h")?,
            start_ns: v.field("start_ns")?,
            end_ns: v.field("end_ns")?,
            worker: v.field("worker")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u64, end: u64) -> TileRecord {
        TileRecord {
            iteration: 1,
            x: 0,
            y: 0,
            w: 8,
            h: 4,
            start_ns: start,
            end_ns: end,
            worker: 0,
        }
    }

    #[test]
    fn duration_and_pixels() {
        let r = rec(100, 250);
        assert_eq!(r.duration_ns(), 150);
        assert_eq!(r.pixels(), 32);
    }

    #[test]
    fn duration_saturates_on_clock_skew() {
        assert_eq!(rec(200, 100).duration_ns(), 0);
    }

    #[test]
    fn time_intersection() {
        let r = rec(100, 200);
        assert!(r.intersects_time(150, 160)); // inside
        assert!(r.intersects_time(50, 150)); // overlaps start
        assert!(r.intersects_time(150, 250)); // overlaps end
        assert!(r.intersects_time(0, 1000)); // contains
        assert!(!r.intersects_time(0, 100)); // touches start (half-open)
        assert!(!r.intersects_time(200, 300)); // touches end (half-open)
    }
}
