//! # ezp-perf — runtime observability for easypap-rs
//!
//! The paper's pedagogy rests on students *seeing* runtime behaviour
//! (§II-B monitoring, §II-C traces). This crate is the quantitative half
//! of that story: named per-worker counters with cache-padded lock-free
//! slots ([`CounterSet`]), a low-overhead span profiler backed by
//! per-worker fixed-capacity ring buffers ([`SpanSet`] / [`Span`]), and
//! three export formats — a Prometheus-style text snapshot, JSON via
//! `ezp_core::json`, and Chrome Trace Event Format loadable by
//! `chrome://tracing` and Perfetto ([`trace_event`]).
//!
//! The scheduling layer reports through the [`ezp_core::kernel::Probe`]
//! trait's `runtime_event` hook; [`PerfProbe`] is the implementation
//! that accumulates those events (plus tile brackets and iteration
//! spans) into counters and spans. Because the hook's default is a
//! no-op and the helpers gate their clock reads on
//! `Probe::wants_runtime_events`, runs without `--stats` pay nothing.
//!
//! ```
//! use ezp_perf::{CounterSet, Span, SpanSet};
//!
//! let mut counters = CounterSet::new(2);
//! let tasks = counters.register("tasks_executed");
//! counters.incr(tasks, 0);
//! counters.add(tasks, 1, 3);
//! assert_eq!(counters.total(tasks), 4);
//!
//! let spans = SpanSet::new(2, 64);
//! {
//!     let _s = Span::enter(&spans, 0, "phase");
//! } // recorded on drop
//! assert_eq!(spans.snapshot().len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod counters;
pub mod export;
pub mod probe;
pub mod span;
pub mod trace_event;

pub use counters::{CounterId, CounterSet, CounterSnapshot, CounterValues};
pub use probe::{names, PerfProbe};
pub use span::{Span, SpanRecord, SpanSet};
pub use trace_event::TraceEvent;
