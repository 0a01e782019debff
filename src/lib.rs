//! # easypap — the facade crate of easypap-rs
//!
//! A from-scratch Rust reproduction of *"EASYPAP: a Framework for
//! Learning Parallel Programming"* (Lasserre, Namyst, Wacrenier, 2020).
//! This crate re-exports every subsystem of the workspace under one
//! roof so examples and downstream users need a single dependency:
//!
//! ```
//! use easypap::prelude::*;
//!
//! let reg = easypap::kernels::registry();
//! let cfg = RunConfig::new("mandel").variant("omp_tiled")
//!     .size(128).tile(32).iterations(2).threads(2);
//! let (outcome, _ctx) = easypap::core::perf::run_kernel(
//!     &reg, cfg, std::sync::Arc::new(NullProbe)).unwrap();
//! assert_eq!(outcome.completed_iterations, 2);
//! ```
//!
//! See `README.md` for the tour and `DESIGN.md` for the architecture.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub use ezp_core as core;
pub use ezp_exp as exp;
pub use ezp_kernels as kernels;
pub use ezp_monitor as monitor;
pub use ezp_mpi as mpi;
pub use ezp_perf as perf;
pub use ezp_plot as plot;
pub use ezp_render as render;
pub use ezp_sched as sched;
pub use ezp_simsched as simsched;
pub use ezp_stream as stream;
pub use ezp_trace as trace;
pub use ezp_view as view;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use ezp_core::kernel::{NullProbe, Probe};
    pub use ezp_core::{
        Img2D, ImagePair, Kernel, KernelCtx, Registry, Rgba, RunConfig, Schedule, Tile, TileGrid,
    };
    pub use ezp_monitor::{Monitor, MonitorReport, UnifiedReport};
    pub use ezp_perf::PerfProbe;
    pub use ezp_sched::{TaskGraph, WorkerPool};
    pub use ezp_simsched::{simulate, simulate_iterations, CostMap, SimConfig};
    pub use ezp_stream::{EmitMode, Pipeline, StreamStats};
    pub use ezp_trace::{Trace, TraceMeta};
    pub use ezp_view::{CoverageMap, GanttModel, TraceComparison};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reaches_every_subsystem() {
        let reg = crate::kernels::registry();
        assert!(reg.contains("mandel"));
        let grid = crate::core::TileGrid::square(64, 16).unwrap();
        assert_eq!(grid.len(), 16);
        let cfg = crate::core::params::Schedule::parse("dynamic,2").unwrap();
        assert_eq!(cfg.as_omp_str(), "dynamic,2");
        let probe = crate::perf::PerfProbe::new(2);
        assert_eq!(probe.snapshot().total(crate::perf::names::TASKS_EXECUTED), 0);
    }
}
