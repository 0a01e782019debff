//! The [`Pipeline`] skeleton: heterogeneous stages over a frame stream.
//!
//! A pipeline is a list of stages applied to every frame in order. Each
//! stage transforms the frame payload `T` in place; a stage is either
//! *serial* (`width 1` — invocations ordered by frame id, so it may
//! keep state behind interior mutability) or a *farm* (`width k` — up
//! to `k` frames inside the stage concurrently, so its closure must be
//! a pure function of `(frame, payload)`).
//!
//! The builder only describes the shape; execution happens in
//! [`run_seq`](Pipeline::run_seq) (the one-frame-at-a-time baseline
//! every parallel run is conformance-tested against) or
//! [`run_pipeline`](crate::engine::run_pipeline) (the parallel engine).

use ezp_sched::skeleton::{PipeShape, PipeStage, DEFAULT_CAPACITY};

/// One stage of a pipeline.
pub(crate) struct Stage<T> {
    pub(crate) name: String,
    pub(crate) width: usize,
    pub(crate) work: Box<dyn Fn(usize, &mut T) + Send + Sync>,
}

/// A composable pipeline over frame payloads of type `T`.
///
/// ```
/// use ezp_stream::Pipeline;
///
/// let pipe = Pipeline::new()
///     .farm_stage("square", 4, |f, x: &mut u64| *x = (f as u64) * (f as u64))
///     .stage("offset", |_, x| *x += 1);
/// let mut out = Vec::new();
/// pipe.run_seq(4, |f| f as u64, |f, x| out.push((f, x)));
/// assert_eq!(out, vec![(0, 1), (1, 2), (2, 5), (3, 10)]);
/// ```
pub struct Pipeline<T> {
    stages: Vec<Stage<T>>,
    capacity: usize,
}

impl<T> Default for Pipeline<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Pipeline<T> {
    /// An empty pipeline with the default inter-stage buffer capacity.
    pub fn new() -> Self {
        Pipeline {
            stages: Vec::new(),
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Appends a *serial* stage (width 1). Invocations are ordered by
    /// frame id — a dependency edge, i.e. happens-before — so the
    /// closure may keep state across frames behind a `Mutex`.
    pub fn stage(
        mut self,
        name: &str,
        work: impl Fn(usize, &mut T) + Send + Sync + 'static,
    ) -> Self {
        self.stages.push(Stage {
            name: name.to_string(),
            width: 1,
            work: Box::new(work),
        });
        self
    }

    /// Appends a *farm* stage replicated `width` times: up to `width`
    /// frames inside the stage concurrently, in no particular order.
    /// The closure must therefore be a pure function of its inputs.
    pub fn farm_stage(
        mut self,
        name: &str,
        width: usize,
        work: impl Fn(usize, &mut T) + Send + Sync + 'static,
    ) -> Self {
        self.stages.push(Stage {
            name: name.to_string(),
            width: width.max(1),
            work: Box::new(work),
        });
        self
    }

    /// Sets the bounded inter-stage buffer capacity (clamped to ≥ 1):
    /// at most `cap` frames may sit between two adjacent stages,
    /// including frames in service — the structural backpressure bound.
    pub fn capacity(mut self, cap: usize) -> Self {
        self.capacity = cap.max(1);
        self
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// The stage names, in order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name.as_str()).collect()
    }

    /// The scheduling shape of this pipeline — what the parallel engine
    /// compiles to a task graph.
    pub fn shape(&self) -> PipeShape {
        PipeShape::new(self.stages.iter().map(|s| PipeStage {
            width: s.width,
            capacity: self.capacity,
        }))
    }

    /// Applies stage `s` to `(frame, payload)`.
    pub(crate) fn apply(&self, s: usize, frame: usize, payload: &mut T) {
        (self.stages[s].work)(frame, payload);
    }

    /// The sequential baseline: one frame at a time through every
    /// stage, sink in frame order. This is the golden reference the
    /// streaming conformance matrix compares every parallel run
    /// against.
    pub fn run_seq(
        &self,
        frames: usize,
        mut source: impl FnMut(usize) -> T,
        mut sink: impl FnMut(usize, T),
    ) {
        assert!(self.stages() > 0, "a pipeline needs at least one stage");
        for f in 0..frames {
            let mut payload = source(f);
            for s in 0..self.stages() {
                self.apply(s, f, &mut payload);
            }
            sink(f, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn run_seq_applies_stages_in_order() {
        let pipe = Pipeline::new()
            .farm_stage("double", 2, |_, x: &mut u32| *x *= 2)
            .stage("inc", |_, x| *x += 1);
        let mut out = Vec::new();
        pipe.run_seq(5, |f| f as u32, |f, x| out.push((f, x)));
        assert_eq!(out, vec![(0, 1), (1, 3), (2, 5), (3, 7), (4, 9)]);
    }

    #[test]
    fn serial_stage_sees_frames_in_order() {
        // a stateful serial stage: running difference vs previous frame
        let prev = Mutex::new(0i64);
        let pipe = Pipeline::new().stage("diff", move |_, x: &mut i64| {
            let mut p = prev.lock().unwrap();
            let cur = *x;
            *x -= *p;
            *p = cur;
        });
        let mut out = Vec::new();
        pipe.run_seq(4, |f| (f * f) as i64, |_, x| out.push(x));
        assert_eq!(out, vec![0, 1, 3, 5]); // f² − (f−1)²
    }

    #[test]
    fn shape_reflects_widths_and_capacity() {
        let pipe = Pipeline::new()
            .farm_stage("a", 4, |_, _: &mut ()| {})
            .stage("b", |_, _| {})
            .capacity(2);
        let shape = pipe.shape();
        assert_eq!(shape.stages(), 2);
        assert_eq!(shape.stage(0).width, 4);
        assert_eq!(shape.stage(1).width, 1);
        assert_eq!(shape.stage(0).capacity, 2);
        assert_eq!(pipe.stage_names(), vec!["a", "b"]);
    }

    #[test]
    fn zero_width_farm_stage_is_clamped() {
        let pipe = Pipeline::new().farm_stage("z", 0, |_, _: &mut ()| {});
        assert_eq!(pipe.shape().stage(0).width, 1);
    }
}
