//! Corpus-driven conformance tests: the rule and the pass each have a
//! `bad/` tree that must fire (and fire only that rule) and a `good/`
//! tree that must be clean. The corpus lives under
//! `tests/lint_fixtures/`, which the workspace walker deliberately
//! skips so the intentionally-bad files never fail the self-clean run.

use ezp_lint::{lint_workspace, Report};
use std::path::PathBuf;

fn fixture(case: &str) -> Report {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(case);
    lint_workspace(&dir)
}

/// Asserts the `bad/` side of `case` fires `rule` at least once and
/// fires nothing else, and the `good/` side is completely clean.
fn assert_pair(case: &str, rule: &str) {
    let bad = fixture(&format!("{case}/bad"));
    assert!(
        !bad.diagnostics.is_empty(),
        "{case}/bad produced no findings"
    );
    for d in &bad.diagnostics {
        assert_eq!(
            d.rule, rule,
            "{case}/bad fired unexpected rule {} at {}:{}",
            d.rule, d.path, d.line
        );
    }
    let good = fixture(&format!("{case}/good"));
    assert!(
        good.diagnostics.is_empty(),
        "{case}/good is not clean:\n{}",
        good.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(good.files_scanned, 1);
}

#[test]
fn ordering_needs_justification_pair() {
    assert_pair("ordering", "ordering-needs-justification");
}

// ---- cross-file pass corpus (PR 10) -----------------------------------

#[test]
fn atomics_pairing_pass_pair() {
    assert_pair("atomics_pairing", "atomics-pairing");
    // one finding per seeded defect: unpaired release (at the store),
    // untagged relaxed-only field (at the decl), unjustified mix (at
    // the relaxed read)
    let bad = fixture("atomics_pairing/bad");
    assert_eq!(bad.diagnostics.len(), 3);
    assert!(bad.diagnostics.iter().any(|d| d.message.contains("`flag`")));
    assert!(bad.diagnostics.iter().any(|d| d.message.contains("`hits`")));
    assert!(bad.diagnostics.iter().any(|d| d.message.contains("`seq`")));
}
