//! The cross-variant conformance suite: every registered kernel, every
//! variant, swept across scheduling policies and worker counts, checked
//! bit-exactly against the sequential golden image.
//!
//! This is the load-bearing half of ezp-check: the virtual executor and
//! shadow detector (`tests/ezp_check.rs`) find *why* a schedule breaks a
//! kernel; this suite finds *that* one does. The always-on smoke test
//! keeps tier-1 wall-clock flat; the full matrix runs under
//! `cargo test --features ezp-check` (tier-2, `ci/verify.sh`).
//!
//! A failure prints `(kernel, variant, policy, workers)` quadruples —
//! rerun a single cell by plugging those into `common::final_image`, or
//! explore its interleavings deterministically with
//! `ezp_sched::vexec` under the same policy.

mod common;

/// Every registered kernel must have a row in the conformance table —
/// adding a kernel without conformance parameters fails here, not
/// silently shrinking coverage.
#[test]
fn conformance_table_covers_every_registered_kernel() {
    let reg = easypap::kernels::registry();
    let table = common::cases();
    for name in reg.kernel_names() {
        assert!(
            table.iter().any(|c| c.kernel == name),
            "kernel `{name}` is registered but has no conformance case — \
             add a row to tests/common/mod.rs::cases()"
        );
    }
    // and the table has no stale rows for unregistered kernels
    for case in &table {
        assert!(
            reg.contains(case.kernel),
            "conformance case `{}` has no registered kernel",
            case.kernel
        );
    }
}

/// The streaming registry gets the same exhaustiveness treatment as the
/// classic one: every streaming kernel needs a row in the stream case
/// table, and the table must not hold stale rows.
#[test]
fn stream_table_covers_every_streaming_kernel() {
    let names: Vec<&str> = easypap::stream::stream_registry()
        .iter()
        .map(|k| k.name())
        .collect();
    let table = common::stream_cases();
    for name in &names {
        assert!(
            table.iter().any(|c| c.kernel == *name),
            "streaming kernel `{name}` is registered but has no conformance case — \
             add a row to tests/common/mod.rs::stream_cases()"
        );
    }
    for case in &table {
        assert!(
            names.contains(&case.kernel),
            "stream conformance case `{}` has no registered streaming kernel",
            case.kernel
        );
    }
}

/// Always-on streaming smoke: every streamed kernel × both emit modes
/// at 2 workers, farm widths 1 and 2.
#[test]
fn stream_conformance_smoke_two_workers() {
    let failures = common::run_stream_matrix(&[1, 2], &[2]);
    assert!(
        failures.is_empty(),
        "streamed kernels diverged from their sequential baseline:\n  {}",
        failures.join("\n  ")
    );
}

/// The full streaming matrix: every streamed kernel × both emit modes ×
/// farm widths {1, 2, 4} × {1, 2, 4} workers. Tier-2 only.
#[cfg(feature = "ezp-check")]
#[test]
fn stream_conformance_full_matrix() {
    let failures = common::run_stream_matrix(&common::FARM_WIDTHS, &[1, 2, 4]);
    assert!(
        failures.is_empty(),
        "{} streaming matrix cells diverged from the sequential baseline:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// Always-on smoke slice of the matrix: every kernel × every variant at
/// 2 workers under the two extreme policies (fully static vs stealing).
#[test]
fn conformance_smoke_two_workers() {
    use easypap::prelude::Schedule;
    let failures = common::run_matrix(
        &[Schedule::Static, Schedule::NonmonotonicDynamic(1)],
        &[2],
    );
    assert!(
        failures.is_empty(),
        "variants diverged from their seq golden image:\n  {}",
        failures.join("\n  ")
    );
}

/// The full matrix: every kernel × every variant × all five policies ×
/// {1, 2, 4, 8} workers. Tier-2 only (`--features ezp-check`).
#[cfg(feature = "ezp-check")]
#[test]
fn conformance_full_matrix() {
    let failures = common::run_matrix(&common::policies(), &common::WORKER_COUNTS);
    assert!(
        failures.is_empty(),
        "{} matrix cells diverged from their seq golden image:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}
