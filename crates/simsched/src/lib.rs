//! # ezp-simsched — deterministic virtual-time multicore simulation
//!
//! The paper's speedup study (Fig. 6) ran on a 6-core lab machine; the
//! tiling-window figures (Fig. 4, Fig. 8) show where each of up to 12
//! threads worked. Reproducing those *shapes* does not require the
//! original hardware: they are properties of (a) the scheduling policy
//! and (b) the per-tile work distribution. This crate replays both in
//! virtual time:
//!
//! * a [`CostMap`] gives every tile a deterministic virtual cost (e.g.
//!   the exact Mandelbrot iteration count of its pixels);
//! * the [`sim`] engine executes the *same* chunk dispensers as the real
//!   thread pool (`ezp_sched::dispenser`), but drives them with a
//!   discrete-event loop over virtual worker clocks — whichever virtual
//!   CPU is idle first grabs the next chunk;
//! * the result is an exact task timeline ([`SimResult`]) convertible to
//!   an `ezp-trace` [`ezp_trace::Trace`], so every monitoring/EASYVIEW
//!   analysis in the workspace also works on simulated executions.
//!
//! Because the event loop is deterministic (ties broken by rank), the
//! whole pipeline — policy comparison, speedup curves, tiling patterns —
//! is reproducible bit-for-bit on any host, including the 1-vCPU
//! container this reproduction was developed in (see DESIGN.md,
//! substitution table).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod analysis;
pub mod cost;
pub mod sim;
pub mod taskgraph;

pub use analysis::{speedup_curve, taskgraph_speedup_curve, SpeedupPoint};
pub use cost::CostMap;
pub use sim::{simulate, simulate_iterations, SimConfig, SimResult, SimTask};
pub use taskgraph::{simulate_taskgraph, TaskGraphSim};
