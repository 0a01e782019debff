//! # ezp-trace — post-mortem execution traces (paper §II-D)
//!
//! With `--trace`, EASYPAP records "tile-related profiling events at
//! execution time (i.e. start/end time, tile coordinates, cpu) into a
//! trace file" that EASYVIEW later explores. This crate owns that file
//! format and its in-memory model:
//!
//! * [`varint`] — LEB128 variable-length integers, the building block of
//!   the compact binary encoding;
//! * [`Trace`] — metadata + iteration spans + task events;
//! * [`io`] — the versioned binary `.ezv` reader/writer plus a JSON
//!   export for interoperability;
//! * [`Trace::from_report`] — bridging from a live
//!   [`ezp_monitor::MonitorReport`] to a persistent trace.
//!
//! The analysis/visualization layer (Gantt charts, coverage maps, trace
//! comparison) lives in `ezp-view`.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod chrome;
pub mod io;
pub mod model;
pub mod varint;

pub use chrome::to_chrome;
pub use model::{Trace, TraceMeta};
