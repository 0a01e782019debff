//! # ezp-chan — lock-free SPSC/MPMC channels, with an `mpsc` baseline to measure against
//!
//! No production thread sends or receives on these channels any more
//! (`docs/channels.md` says who waits where instead); the crate stays
//! in the tree because the frozen `benchmark/` times `spsc` and
//! `bounded` for its `chan.*` cells. It is a measured library, not a
//! tuning surface: no flag or config field selects a backend.
//!
//! * [`ring`] — the FastFlow-style bounded lock-free SPSC ring: two
//!   cache-padded monotone cursors over a power-of-two slot array, one
//!   release/acquire pair per direction. This is the crate's single
//!   sanctioned `unsafe` island (the workspace's third, next to
//!   `ezp-sched`'s `pool` and `img_cell`); every `unsafe` block carries
//!   a `SAFETY:` argument and every non-SeqCst atomic an `ORDERING:`
//!   justification, both enforced by `ezp-lint`.
//! * [`spsc`] — the raw endpoints over one ring: fastest path, role
//!   uniqueness enforced by `&mut self` on non-`Clone` endpoints.
//! * [`mpmc`] — MPMC composed from one SPSC lane per producer with
//!   claim-flag role migration: per-producer FIFO, clonable receivers.
//! * [`backend`] — [`bounded`]: the same channel behind object-safe
//!   [`ChanSender`]/[`ChanReceiver`] endpoints, built on the ring or on
//!   a `std::sync::mpsc` baseline ([`ChanBackendKind`]) so `benchmark/`
//!   can time both on one cell.
//!
//! A blocked ring endpoint yields and re-polls ([`WaitPolicy`], a
//! constructor argument with one value left). Every channel counts sends/recvs/full-stalls/empty-stalls
//! ([`ChanStats`], read with `stats()` on either endpoint).
//!
//! `tests/explore.rs` drives the real `try_send`/`try_recv` one
//! operation at a time under every `ezp-testkit` schedule-strategy
//! family; the real-thread adversarial battery sits next to it.

#![warn(missing_docs)]
// `unsafe_code` is deliberately NOT denied: the SPSC ring slots are a
// sanctioned unsafe island (see the crate docs above). `ring.rs` holds
// the cell accesses; `spsc.rs`/`mpmc.rs` hold the role-contract call
// sites. Each carries a `SAFETY:` argument, enforced by `ezp-lint`'s
// `unsafe-needs-safety` rule.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
mod errors;
pub mod mpmc;
pub(crate) mod ring;
pub mod spsc;
mod stats;
mod wait;

pub use backend::{bounded, ChanReceiver, ChanSender};
pub use errors::{RecvError, SendError, TryRecvError, TrySendError};
pub use ezp_core::{ChanBackendKind, ChanTuning, WaitPolicy};
pub use mpmc::{mpmc, MpmcReceiver, MpmcSender};
pub use spsc::{spsc, spsc_from_index, SpscReceiver, SpscSender};
pub use stats::ChanStats;
