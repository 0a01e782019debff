//! Streaming-skeleton shapes compiled to task-graph node generators.
//!
//! `ezp-stream`'s pipeline and farm skeletons do not get their own
//! scheduler: a skeleton over a window of frames *compiles down* to a
//! [`TaskGraph`] whose nodes are `(frame, stage)` units, and the
//! existing deque executor ([`TaskGraph::run_probed`]) — Chase-Lev
//! deques, steal path, ParkLot idling — does the actual scheduling.
//! This module is the compiler: it turns a [`PipeShape`] (per-stage
//! replication width and bounded input buffers) into dependency edges.
//!
//! Three edge families encode the streaming semantics structurally, so
//! backpressure and ordering need no runtime channel machinery:
//!
//! * **data** — `(f, s-1) → (f, s)`: a frame flows through stages in
//!   order;
//! * **width** — `(f - w_s, s) → (f, s)`: at most `w_s` frames occupy
//!   stage `s` concurrently. `w_s = 1` serializes the stage in frame
//!   order, which is what makes *stateful* stages (frame differencing)
//!   legal: successive invocations are ordered by a dependency edge,
//!   i.e. by happens-before;
//! * **capacity** — `(f - c_s, s) → (f, s-1)`: frame `f` may only
//!   *start* stage `s-1` once frame `f - c_s` has *left* stage `s`, so
//!   at most `c_s` frames sit between the two stages (the bounded
//!   inter-stage buffer, including frames in service). A slow stage
//!   therefore stalls its upstream — backpressure as graph structure.
//!
//! Every edge strictly increases the frame-major node index
//! `f * stages + s` (data: `+1`; width: `+w_s * stages`; capacity:
//! `+c_s * stages - 1`, positive because `c_s >= 1` and capacity edges
//! only exist for `stages >= 2`), so the generated graph is acyclic
//! *by construction* — bounded stages cannot deadlock, a fact the
//! `ezp-check` sweep (`virtual_pipeline` under the starve-one
//! strategy) pins at the schedule level.
//!
//! The other half of a stream's semantics — *when* a finished frame
//! counts as emitted — is [`EmitTracker`], next to the shape because
//! both the engine and `virtual_pipeline` need exactly one of each.

use crate::taskgraph::TaskGraph;
use ezp_core::kernel::EdgeKind;
use ezp_core::EmitMode;

/// Default bounded-buffer capacity between stages.
pub const DEFAULT_CAPACITY: usize = 4;

/// One pipeline stage: how many frames may occupy it concurrently
/// (`width`, the farm replication factor) and how many frames may sit
/// between the previous stage and this one (`capacity`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipeStage {
    /// Concurrent frames inside the stage (1 = serial, in frame order).
    pub width: usize,
    /// Bounded input-buffer depth ahead of the stage (≥ 1).
    pub capacity: usize,
}

impl PipeStage {
    /// A serial stage (width 1) with the default buffer capacity.
    pub fn serial() -> Self {
        PipeStage {
            width: 1,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// A farm stage replicated `width` times, default buffer capacity.
    pub fn farm(width: usize) -> Self {
        PipeStage {
            width: width.max(1),
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// The same stage with a bounded input buffer of `capacity` frames
    /// (clamped to ≥ 1).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

/// The compile-time shape of a pipeline: an ordered list of stages.
#[derive(Clone, Debug)]
pub struct PipeShape {
    stages: Vec<PipeStage>,
}

impl PipeShape {
    /// Builds a shape, clamping every width and capacity to at least 1
    /// (a zero-capacity buffer would deadlock the stream; a
    /// zero-width stage could never run).
    pub fn new(stages: impl IntoIterator<Item = PipeStage>) -> Self {
        let stages: Vec<PipeStage> = stages
            .into_iter()
            .map(|s| PipeStage {
                width: s.width.max(1),
                capacity: s.capacity.max(1),
            })
            .collect();
        assert!(!stages.is_empty(), "a pipeline needs at least one stage");
        PipeShape { stages }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// The stage descriptors.
    pub fn stage(&self, s: usize) -> PipeStage {
        self.stages[s]
    }

    /// Node id of `(frame, stage)` — frame-major.
    pub fn node(&self, frame: usize, stage: usize) -> usize {
        frame * self.stages.len() + stage
    }

    /// Frame of a node id.
    pub fn frame_of(&self, node: usize) -> usize {
        node / self.stages.len()
    }

    /// Stage of a node id.
    pub fn stage_of(&self, node: usize) -> usize {
        node % self.stages.len()
    }

    /// True when `from → to` is a *data* edge (same frame, next stage)
    /// rather than a width/capacity (backpressure) edge. The streaming
    /// engine uses this to classify why a node's last dependency
    /// released: a non-data final release means the frame was
    /// data-ready but waited on buffer space — a backpressure stall.
    pub fn is_data_edge(&self, from: usize, to: usize) -> bool {
        to == from + 1 && self.frame_of(from) == self.frame_of(to)
    }

    /// Compiles the shape over `frames` frames into a [`TaskGraph`]
    /// with the data/width/capacity edge families described in the
    /// module docs. The graph is acyclic by construction.
    pub fn graph(&self, frames: usize) -> TaskGraph {
        let s_count = self.stages.len();
        let mut g = TaskGraph::new(frames * s_count);
        for f in 0..frames {
            for (s, st) in self.stages.iter().enumerate() {
                let id = self.node(f, s);
                // data: the frame flows stage to stage
                if s > 0 {
                    g.add_dep_kind(self.node(f, s - 1), id, EdgeKind::Data);
                }
                // width: at most `width` frames inside the stage
                if f >= st.width {
                    g.add_dep_kind(self.node(f - st.width, s), id, EdgeKind::Width);
                }
                // capacity: bounded buffer between s-1 and s
                if s > 0 && f >= st.capacity {
                    g.add_dep_kind(
                        self.node(f - st.capacity, s),
                        self.node(f, s - 1),
                        EdgeKind::Capacity,
                    );
                }
            }
        }
        g
    }
}

/// Reorder/emission bookkeeping over one window of `frames` frames:
/// decides *when* a frame whose final stage completed counts as
/// emitted — on completion ([`EmitMode::Unordered`]) or when the
/// in-order frontier passes it ([`EmitMode::Ordered`]) — and records
/// that order. It holds no payloads and no lock; `ezp-stream`'s engine
/// keeps one behind a mutex, `virtual_pipeline` one on its stack.
#[derive(Clone, Debug)]
pub struct EmitTracker {
    /// Final-stage completions so far.
    completed: usize,
    /// Which frames have completed (ordered mode's reorder markers).
    done: Vec<bool>,
    /// Window-local frame ids in emission order.
    emitted: Vec<usize>,
    /// Peak of [`EmitTracker::reorder_depth`] after each completion.
    max_reorder_depth: usize,
}

impl EmitTracker {
    /// A tracker for a window of `frames` frames, none completed.
    pub fn new(frames: usize) -> Self {
        EmitTracker {
            completed: 0,
            done: vec![false; frames],
            emitted: Vec::with_capacity(frames),
            max_reorder_depth: 0,
        }
    }

    /// Records that `frame` finished its final stage and returns how
    /// many frames that emitted: always 1 when unordered; when ordered,
    /// however many the frontier could pass (0 if `frame` arrived ahead
    /// of a predecessor). The newly emitted ids are the tail of
    /// [`EmitTracker::emitted`].
    pub fn complete(&mut self, frame: usize, mode: EmitMode) -> usize {
        self.completed += 1;
        let before = self.emitted.len();
        match mode {
            EmitMode::Unordered => self.emitted.push(frame),
            EmitMode::Ordered => {
                self.done[frame] = true;
                // the frontier is `emitted.len()`: every frame below it
                // has left, in order
                while self.done.get(self.emitted.len()) == Some(&true) {
                    self.emitted.push(self.emitted.len());
                }
                // depth after the frontier advance: in-order arrivals cost 0
                self.max_reorder_depth = self.max_reorder_depth.max(self.reorder_depth());
            }
        }
        self.emitted.len() - before
    }

    /// Completed-but-unemitted frames waiting behind the frontier
    /// right now (ordered mode; unordered emits on completion).
    pub fn reorder_depth(&self) -> usize {
        self.completed - self.emitted.len()
    }

    /// Peak of [`EmitTracker::reorder_depth`] over the window.
    pub fn max_reorder_depth(&self) -> usize {
        self.max_reorder_depth
    }

    /// Window-local frame ids in the order they were emitted.
    pub fn emitted(&self) -> &[usize] {
        &self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::vec_of;

    #[test]
    fn node_indexing_round_trips() {
        let shape = PipeShape::new([PipeStage::farm(2), PipeStage::serial(), PipeStage::farm(4)]);
        for f in 0..7 {
            for s in 0..3 {
                let id = shape.node(f, s);
                assert_eq!(shape.frame_of(id), f);
                assert_eq!(shape.stage_of(id), s);
            }
        }
        assert!(shape.is_data_edge(shape.node(2, 0), shape.node(2, 1)));
        assert!(!shape.is_data_edge(shape.node(1, 1), shape.node(3, 1)));
    }

    #[test]
    fn serial_stage_orders_frames() {
        // width-1 stage: frame f's stage-1 node depends on frame f-1's
        let shape = PipeShape::new([PipeStage::farm(4), PipeStage::serial()]);
        let g = shape.graph(3);
        let prev = shape.node(0, 1);
        let next = shape.node(1, 1);
        assert!(g.dependents(prev).contains(&next));
    }

    #[test]
    fn capacity_edges_bound_the_buffer() {
        let shape = PipeShape::new([
            PipeStage {
                width: 4,
                capacity: 4,
            },
            PipeStage {
                width: 4,
                capacity: 2,
            },
        ]);
        let g = shape.graph(6);
        // frame 5 may not start stage 0 before frame 3 left stage 1
        assert!(g.dependents(shape.node(3, 1)).contains(&shape.node(5, 0)));
        // but the frame within the window has no such edge
        assert!(!g.dependents(shape.node(4, 1)).contains(&shape.node(5, 0)));
    }

    #[test]
    fn generated_graphs_are_acyclic_and_ordered() {
        let shape = PipeShape::new([PipeStage::farm(2), PipeStage::serial(), PipeStage::farm(3)]);
        let g = shape.graph(10);
        let mut order = Vec::new();
        g.run_seq(|t, _| order.push(t))
            .expect("pipeline graph must be acyclic");
        assert_eq!(order.len(), 30);
        // serial stage 1 runs in frame order
        let stage1: Vec<usize> = order
            .iter()
            .filter(|&&t| shape.stage_of(t) == 1)
            .map(|&t| shape.frame_of(t))
            .collect();
        assert_eq!(stage1, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn edge_families_are_tagged() {
        let shape = PipeShape::new([
            PipeStage::farm(2).capacity(2),
            PipeStage::serial().capacity(2),
        ]);
        let g = shape.graph(4);
        let mut kinds = std::collections::BTreeMap::new();
        g.for_each_edge(|f, t, k| {
            kinds.insert((f, t), k);
        });
        // data: frame 1 flows stage 0 -> stage 1
        assert_eq!(kinds[&(shape.node(1, 0), shape.node(1, 1))], EdgeKind::Data);
        // width: the serial stage orders frame 1 after frame 0
        assert_eq!(
            kinds[&(shape.node(0, 1), shape.node(1, 1))],
            EdgeKind::Width
        );
        // capacity: frame 2 may not start stage 0 before frame 0 left stage 1
        assert_eq!(
            kinds[&(shape.node(0, 1), shape.node(2, 0))],
            EdgeKind::Capacity
        );
    }

    #[test]
    fn zero_width_and_capacity_are_clamped() {
        let shape = PipeShape::new([PipeStage {
            width: 0,
            capacity: 0,
        }]);
        assert_eq!(shape.stage(0).width, 1);
        assert_eq!(shape.stage(0).capacity, 1);
        shape.graph(4).run_seq(|_, _| {}).unwrap();
    }

    #[test]
    fn emit_tracker_unordered_emits_on_completion() {
        let mut t = EmitTracker::new(3);
        for f in [2, 0, 1] {
            assert_eq!(t.complete(f, EmitMode::Unordered), 1);
            assert_eq!(t.reorder_depth(), 0);
        }
        assert_eq!(t.emitted(), [2, 0, 1]);
        assert_eq!(t.max_reorder_depth(), 0);
    }

    #[test]
    fn emit_tracker_ordered_in_order_arrival_never_buffers() {
        let mut t = EmitTracker::new(3);
        for f in 0..3 {
            assert_eq!(t.complete(f, EmitMode::Ordered), 1);
        }
        assert_eq!(t.emitted(), [0, 1, 2]);
        assert_eq!(t.max_reorder_depth(), 0);
    }

    #[test]
    fn emit_tracker_ordered_holds_early_frames_behind_the_frontier() {
        let mut t = EmitTracker::new(4);
        assert_eq!(t.complete(2, EmitMode::Ordered), 0);
        assert_eq!(t.complete(1, EmitMode::Ordered), 0);
        assert_eq!(t.reorder_depth(), 2);
        assert!(t.emitted().is_empty(), "frame 1 left before frame 0");
        // frame 0 arrives: the frontier passes 0, 1 and 2 at once
        assert_eq!(t.complete(0, EmitMode::Ordered), 3);
        assert_eq!(t.reorder_depth(), 0);
        assert_eq!(t.complete(3, EmitMode::Ordered), 1);
        assert_eq!(t.emitted(), [0, 1, 2, 3]);
        assert_eq!(t.max_reorder_depth(), 2);
    }

    ezp_proptest! {
        #![cases(32)]

        fn prop_random_shapes_compile_acyclic(
            frames in 0usize..20,
            widths in vec_of(1usize..5, 1..5),
            caps in vec_of(1usize..4, 1..5),
        ) {
            let stages: Vec<PipeStage> = widths
                .iter()
                .zip(caps.iter().cycle())
                .map(|(&w, &c)| PipeStage { width: w, capacity: c })
                .collect();
            let shape = PipeShape::new(stages);
            let g = shape.graph(frames);
            let mut n = 0usize;
            g.run_seq(|_, _| n += 1).expect("acyclic by construction");
            assert_eq!(n, frames * shape.stages());
        }
    }
}
