//! The analyzer must run clean over the workspace that ships it —
//! including over its own sources. This is the same invariant
//! `ci/verify.sh` enforces via the `ezp-lint` lane; keeping it as a
//! plain test means `cargo test` alone catches a regression.

use ezp_lint::lint_workspace;
use std::path::PathBuf;

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root);
    assert!(
        report.diagnostics.is_empty(),
        "expected a lint-clean workspace, got:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree, rather than silently
    // scanning an empty directory.
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}
