//! # ezp-lint — the atomic-ordering arguments no compiler lint reads
//!
//! PRs 3–4 rebuilt the scheduler hot path on hand-rolled atomics and
//! guard it *dynamically* (ezp-check's schedule exploration, the
//! shadow-write race detector). This crate is the *static* layer in
//! front of that: a std-only analyzer for the one invariant that lives
//! in comments next to `Ordering` arguments, which neither rustc nor
//! clippy reads. It ships one per-line rule and one cross-file pass:
//!
//! * **ordering-needs-justification** — non-SeqCst atomic orderings in
//!   `crates/sched` and `crates/chan` carry an `ORDERING:` comment
//!   (counter-only vs. synchronizing);
//! * **atomics-pairing** (cross-file) — every `Release` write pairs
//!   with an acquire side somewhere in its crate; Relaxed-only fields
//!   carry a taxonomy tag; unjustified Relaxed/Acquire mixes are
//!   flagged.
//!
//! The other static checks belong to the toolchain, which decides them
//! on resolved paths rather than tokens: `SAFETY:`
//! comments are clippy's `undocumented_unsafe_blocks` and
//! `missing_safety_doc`; lock types in the scheduler hot path and
//! clocks or hash-seeded collections in the ezp-check-replayed modules
//! are clippy's `disallowed_types` / `disallowed_methods` over the root
//! `clippy.toml`; discarded pool guards and dead `cfg(feature)` gates
//! are rustc lints in the root `[workspace.lints]` table. See the
//! "checked by the toolchain instead" table in
//! `docs/static-analysis.md`.
//!
//! The engine is **two-phase**: phase 1 walks the workspace once,
//! running the line rule while building a cross-file symbol model
//! ([`model`] — atomic fields and their access orderings); phase 2 runs
//! the pass in [`atomics`] over that model. The analyzer is a
//! lightweight lexer (no `syn`): [`lexer`] classifies every character
//! as code / comment / literal and tracks `#[cfg(test)]` regions by
//! brace depth.
//!
//! Run it with `cargo run -p ezp-lint`; it exits nonzero when any
//! diagnostic is found.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomics;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod workspace;

pub use diag::Diagnostic;
pub use workspace::{lint_workspace, Report};
