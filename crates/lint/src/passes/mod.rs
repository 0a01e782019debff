//! Phase 2: the cross-file pass over the [`crate::model::Model`].
//!
//! A pass is a pure function from the finished symbol model to a list
//! of diagnostics; suppression is resolved inside the pass (a
//! cross-file finding may be silenced either at the reported site or
//! at the declaration that anchors the invariant — see the pass's
//! docs). [`run`] times it so the CI report can track its cost against
//! the lint lane's 5-second budget.

pub mod atomics;

use crate::diag::Diagnostic;
use crate::model::Model;
use std::time::Instant;

/// Name of the cross-file pass.
pub const PASS_NAME: &str = "atomics-pairing";

/// Wall-time and finding count for one pass execution.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name.
    pub name: &'static str,
    /// Findings the pass produced (post-suppression).
    pub findings: usize,
    /// Wall time of the pass in milliseconds.
    pub wall_ms: f64,
}

/// Runs the cross-file pass and returns its diagnostics plus its
/// statistics.
pub fn run(model: &Model) -> (Vec<Diagnostic>, PassStat) {
    let t0 = Instant::now();
    let found = atomics::check(model);
    let stat = PassStat {
        name: PASS_NAME,
        findings: found.len(),
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    };
    (found, stat)
}
