//! # ezp-stream — parallel skeletons and the streaming frame driver
//!
//! EASYPAP's classic mode iterates one 2D kernel over one image. This
//! crate adds the missing *scheduling shape*: streaming — a sequence of
//! frames (video-style load) flowing through a [`Pipeline`] —
//! heterogeneous stages with bounded inter-stage buffers, each stage
//! serial (`width 1`, frame-ordered, may hold state) or replicated
//! (`width k`, a farm).
//!
//! The skeleton does not bring its own scheduler: a pipeline over a window
//! of frames compiles to a [`TaskGraph`](ezp_sched::TaskGraph) via
//! [`PipeShape`](ezp_sched::PipeShape) (see
//! `ezp_sched::skeleton`), and the Chase-Lev deques plus steal path do
//! the work placement. Output is [`EmitMode::Ordered`] (reorder buffer,
//! frame-id order) or [`EmitMode::Unordered`] (completion order) — the
//! latency-vs-throughput tension the counters in `ezp-perf`
//! (`backpressure_stalls`, `frames_in_flight`, `reorder_buffer_depth`,
//! `stage_occupancy`, `frames_emitted`) make visible.
//!
//! Semantics, ordering guarantees and counter definitions are spelled
//! out in `docs/streaming.md`; conformance against the sequential
//! one-frame-at-a-time baseline lives in `tests/conformance.rs`.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod demos;
pub mod engine;
pub mod pipeline;

pub use demos::{stream_kernel, stream_registry, StreamKernel};
pub use engine::{run_pipeline, StreamStats};
pub use ezp_core::EmitMode;
pub use pipeline::Pipeline;
