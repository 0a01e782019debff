//! `ezp-testkit` — the in-repo testing substrate for the EASYPAP workspace.
//!
//! The workspace builds fully offline: no registry dependencies are allowed
//! anywhere. This crate supplies the infrastructure that external crates
//! used to provide:
//!
//! * [`rng`] — a deterministic `SplitMix64`-seeded Xoshiro256++ PRNG with
//!   `gen_range`, `fill` and `shuffle`, replacing `rand`.
//! * [`prop`] — a miniature property-testing harness (the [`ezp_proptest!`]
//!   macro, generator combinators, and binary-search shrinking), replacing
//!   `proptest`. Set `EZP_TEST_SEED=<u64>` to reproduce a run byte-for-byte.
//! * [`schedule`] — seed-driven interleaving strategies for the `ezp-check`
//!   deterministic concurrency harness (round-robin, random-walk,
//!   steal-heavy, starve-one), replayable from `(strategy, seed)`.
//!
//! Everything here is `std`-only and deterministic by construction: the
//! default seed is a fixed constant, and the per-test stream is derived from
//! the test name so adding a property never perturbs its neighbours.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod prop;
pub mod rng;
pub mod schedule;

pub use prop::{
    grid_dims, select, vec_of, Strategy, StrategyExt, DEFAULT_CASES, DEFAULT_SEED,
};
pub use rng::Rng;
pub use schedule::{Interleave, RandomWalk, RoundRobin, StarveOne, StealHeavy, StrategyKind};
