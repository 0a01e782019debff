//! # ezp-render — off-screen rendering (the SDL substitution)
//!
//! EASYPAP "relies on the SDL library to interactively render the
//! results of 2D computations" (§II). This environment has no display,
//! so the window is replaced by file and terminal sinks that preserve
//! every *pedagogical* capability of the original UI (DESIGN.md,
//! substitution table):
//!
//! * [`ansi`] — true-color terminal preview using half-block glyphs
//!   (two pixels per character cell), so `--monitoring` sessions show
//!   the actual image in the terminal;
//! * [`scale`] — box-filter downscaling for EASYVIEW's "reduced view of
//!   the surface computed" thumbnails, plus nearest-neighbour upscaling
//!   for tiny tiling maps;
//! * [`overlay`] — tile highlighting over a thumbnail, the Fig. 7
//!   interaction where "the corresponding tiles are highlighted over
//!   this reduced image";
//! * [`anim`] — numbered frame sink: the "animation consisting of the
//!   series of images computed at each iteration" becomes a directory
//!   of frames.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod anim;
pub mod ansi;
pub mod overlay;
pub mod scale;

pub use anim::FrameSink;
pub use ansi::to_ansi;
pub use overlay::highlight_tiles;
pub use scale::{downscale, upscale_nearest};
