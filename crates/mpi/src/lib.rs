//! # ezp-mpi — a simulated MPI for distributed-memory variants (§III-D)
//!
//! The paper's Game-of-Life assignment ends with an MPI+OpenMP variant:
//! ranks own horizontal blocks of the image and "exchange ghost-cells
//! between MPI processes, including meta-informations regarding the
//! state of tiles". Running a real `mpirun` is a hardware/stack gate this
//! reproduction replaces with a faithful simulation (see DESIGN.md):
//! ranks are OS threads, point-to-point messages travel over unbounded
//! channels (MPI buffered-send semantics), and the collective operations
//! are built on top of them, so user code is structured exactly like an
//! MPI program — explicit rank decomposition, sends, receives, barriers.
//!
//! * [`comm`] — [`Comm`] (rank, size, send/recv with tags and selective
//!   reception) and [`run`], the `mpirun -np N` equivalent;
//! * [`collective`] — barrier, broadcast, gather, all-reduce;
//! * [`ghost`] — row-block decomposition and ghost-row exchange helpers.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod collective;
pub mod comm;
pub mod ghost;

pub use comm::{run, run_with_stats, Comm, CommStats, Tag, ANY_SOURCE};
pub use ghost::BlockRows;
