//! `ezp-serve` — a persistent multi-tenant compute service.
//!
//! Interactive `easypap` runs pay the full startup bill — process
//! spawn, registry construction, worker-pool thread creation — for
//! every single invocation. `ezp-serve` keeps all of that warm in a
//! long-running daemon: clients connect over loopback TCP, submit
//! compute jobs (`kernel`, `variant`, `size`, `iterations`, and an
//! optional tenant id), and stream back a frame digest plus a per-job
//! [`ezp_monitor::UnifiedReport`]: the counters the job moved and the
//! time it spent queued, leasing a pool and computing.
//!
//! The moving parts, one module each:
//!
//! * [`proto`] — the wire format: 4-byte little-endian length prefix
//!   followed by an `ezp_core::json` document. Malformed frames
//!   (bad prefix, truncated body, oversized payload, non-JSON bytes)
//!   are diagnosed without panicking and poison only the connection
//!   that sent them.
//! * [`admission`] — bounded per-tenant admission queues under one
//!   mutex. A full queue answers *reject with retry-after*
//!   (backpressure) rather than buffering without bound, and the
//!   drain side round-robins across tenants so one noisy tenant
//!   cannot starve the others.
//! * [`server`] — the daemon: an acceptor thread, one reader thread
//!   per connection (which runs a small job itself when nothing is
//!   queued), and runner threads; both lease [`ezp_sched::WorkerPool`]s
//!   from a shared [`ezp_sched::PoolMux`], so independent jobs run
//!   concurrently on disjoint worker sets. Kernel panics are caught
//!   per job; a client disconnect cancels its queued jobs.
//! * [`metrics`] — per-tenant service counters (`jobs_admitted`,
//!   `jobs_rejected`, `tenant_queue_depth`, `tenant_idle_ns`, ...) on
//!   the lock-free `ezp_perf::CounterSet` spine, with the tenant slot
//!   riding in the per-worker dimension.
//! * [`client`] — a small blocking client used by `easypap submit`.
//!
//! See `docs/serving.md` for the protocol walk-through and failure
//! semantics.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use admission::{Admission, Job, JobTicket, NullSink, Reject, ReplySink, DEFAULT_TENANT};
pub use client::Client;
pub use metrics::ServeMetrics;
pub use proto::{
    JobSpec, Request, Response, MAX_FRAME, MAX_JOB_ITERATIONS, MAX_JOB_SIZE, MAX_JOB_STALL_US,
};
pub use server::{ServeConfig, Server, ServerSummary};
