//! # ezp-plot — the `easyplot` companion (paper §II-C, Fig. 6)
//!
//! EASYPAP's performance mode appends every run to a CSV file;
//! `easyplot` then filters the data and draws speedup graphs. Its "key
//! feature is that the legend is automatically generated from the data.
//! Once data have been filtered, constant parameters are put aside, and
//! the names of plotlines are set using the remaining ones. This
//! guarantees that experiments conducted in different conditions will
//! not silently be incorporated in the same graph."
//!
//! [`dataset`] implements exactly that contract (constant-parameter
//! factoring, auto legends, run averaging, speedup transformation);
//! [`chart`] renders the result as ASCII for terminals and SVG for
//! reports.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod chart;
pub mod dataset;

pub use chart::{render_ascii, render_svg};
pub use dataset::{Dataset, Series};
