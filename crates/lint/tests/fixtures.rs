//! Corpus-driven conformance tests: every rule has a `bad/` tree that
//! must fire (and fire only that rule) and a `good/` tree that must be
//! clean. The corpus lives under `tests/lint_fixtures/`, which the
//! workspace walker deliberately skips so the intentionally-bad files
//! never fail the self-clean run.

use ezp_lint::{lint_workspace, lint_workspace_only, Report};
use std::path::PathBuf;

fn fixture_dir(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(case)
}

fn fixture(case: &str) -> Report {
    lint_workspace(&fixture_dir(case))
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
}

#[test]
fn unsafe_needs_safety_pair() {
    assert_pair("unsafe_safety", "unsafe-needs-safety");
}

#[test]
fn ordering_needs_justification_pair() {
    assert_pair("ordering", "ordering-needs-justification");
}

#[test]
fn no_lock_in_hot_path_pair() {
    assert_pair("hotpath", "no-lock-in-hot-path");
}

#[test]
fn determinism_pair() {
    assert_pair("determinism", "determinism");
}

#[test]
fn suppression_round_trip() {
    // `suppression/allowed` is byte-for-byte the `ordering/bad`
    // violation plus an `allow(ordering-needs-justification)` marker on
    // the line above the site: the unsuppressed twin fires (previous
    // test), the suppressed one must not.
    let allowed = fixture("suppression/allowed");
    assert!(
        allowed.diagnostics.is_empty(),
        "suppression did not switch the finding off:\n{}",
        allowed
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn unknown_suppression_is_itself_a_finding() {
    let report = fixture("suppression/unknown");
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].rule, "unknown-suppression");
    assert!(report.diagnostics[0].message.contains("no-such-rule"));
}

#[test]
fn reports_count_scanned_files() {
    // park.rs + pool.rs
    assert_eq!(fixture("hotpath/good").files_scanned, 2);
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

#[test]
fn pass_suppressions_anchor_at_declarations() {
    // The corpus reproduces the atomics_pairing defect with an
    // `allow(<pass>)` marker at the *declaration* site; a clean run
    // proves decl-anchored suppression covers every access site and
    // that the pass name validates as a known suppression.
    let r = fixture("suppression/pass_allowed");
    assert!(
        r.diagnostics.is_empty(),
        "decl-anchored pass suppression did not hold:\n{}",
        r.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn only_filter_restricts_to_one_rule_or_the_pass() {
    let dir = fixture_dir("atomics_pairing/bad");
    let hit = lint_workspace_only(&dir, Some("atomics-pairing"));
    assert_eq!(hit.diagnostics.len(), 3);
    assert_eq!(hit.pass_stats.len(), 1);
    assert_eq!(hit.pass_stats[0].name, "atomics-pairing");
    assert_eq!(hit.pass_stats[0].findings, 3);
    // a line rule sees nothing in this corpus and does not run the pass
    let line = lint_workspace_only(&dir, Some("unsafe-needs-safety"));
    assert!(line.diagnostics.is_empty());
    assert!(line.pass_stats.is_empty());
    // ...and the pass stays out of a line rule's corpus
    let other = lint_workspace_only(&fixture_dir("ordering/bad"), Some("atomics-pairing"));
    assert!(other.diagnostics.is_empty());
}
