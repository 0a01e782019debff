//! # ezp-lint — static enforcement of what no compiler lint sees
//!
//! PRs 3–4 rebuilt the scheduler hot path on hand-rolled atomics and
//! guard it *dynamically* (ezp-check's schedule exploration, the
//! shadow-write race detector). This crate is the *static* layer in
//! front of that: a std-only analyzer for the invariants that live in
//! comments and `Ordering` arguments, which rustc does not read. It
//! ships four per-line rules and one cross-file pass:
//!
//! * **unsafe-needs-safety** — every `unsafe` site carries a `SAFETY:`
//!   comment;
//! * **ordering-needs-justification** — non-SeqCst atomic orderings in
//!   `crates/sched` carry an `ORDERING:` comment (counter-only vs.
//!   synchronizing);
//! * **no-lock-in-hot-path** — the `Mutex`/`RwLock`/`Condvar` types
//!   stay out of the de-contended files (`pool.rs`, `deque.rs`,
//!   `dispenser.rs`, `taskgraph.rs`);
//! * **determinism** — no wall clock or OS entropy in ezp-check-replayed
//!   modules (`vexec.rs`, `shadow.rs`, `schedule.rs`);
//! * **atomics-pairing** (cross-file) — every `Release` write pairs
//!   with an acquire side somewhere in its crate; Relaxed-only fields
//!   carry a taxonomy tag; unjustified Relaxed/Acquire mixes are
//!   flagged.
//!
//! Four rules this crate used to approximate with its lexer are gone,
//! each handed to the mechanism that decides the fact exactly:
//! `guard-leak` is `#[must_use]` on the pool guards plus
//! `unused_must_use` / `let_underscore_drop`; `cfg-feature-exists` is
//! `unexpected_cfgs` (all three `deny` in the root `[workspace.lints]`
//! table); `hermeticity` is the `--offline` build, which cannot resolve
//! a registry dependency; `counter-registry` is `match` exhaustiveness
//! in `PerfProbe::runtime_event` plus the registered ↔ documented test
//! in `tests/observability_equivalence.rs`. See the "checked by the
//! toolchain instead" table in `docs/static-analysis.md`.
//!
//! The engine is **two-phase**: phase 1 walks the workspace once,
//! running the line rules while building a cross-file symbol model
//! ([`model`] — atomic fields and their access orderings); phase 2 runs
//! the pass in [`passes`] over that model.
//!
//! The analyzer is a lightweight lexer (no `syn`): [`lexer`] classifies
//! every character as code / comment / literal and tracks `#[cfg(test)]`
//! regions by brace depth; [`rules`] pattern-match on the classified
//! token stream. False positives are silenced per line with a comment
//! marker — the tool name, a colon, then `allow(<rule>)` — and a
//! suppression naming an unknown rule is itself reported. Pass
//! findings may also be suppressed at the declaration that anchors
//! them. See `docs/static-analysis.md` for the full rule catalogue and
//! how this complements ezp-check.
//!
//! Run it with `cargo run -p ezp-lint` (add `-- --format=json` for the
//! CI report, `--only <rule>` for one rule, `--rules` for the
//! catalogue); it exits nonzero when any diagnostic survives.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod diag;
pub mod lexer;
pub mod model;
pub mod passes;
pub mod rules;
pub mod workspace;

pub use diag::{render, Diagnostic, Format};
pub use workspace::{lint_workspace, lint_workspace_only, Report};
