//! The per-line rule: weak atomic orderings in the crates whose
//! soundness is their ordering argument carry that argument in writing.
//! See `docs/static-analysis.md` for the rationale and the taxonomy.

use crate::diag::Diagnostic;
use crate::lexer::{self, find_word, Line};

/// How many *code* lines above a site an `ORDERING:` comment (or a
/// field's taxonomy tag) may sit and still count as justifying it.
/// Comment and blank lines do not consume the window — a long
/// justification paragraph must not push itself out of range — but
/// more than this much unrelated code between comment and site means
/// the comment is justifying something else.
pub const JUSTIFICATION_WINDOW: usize = 8;

/// Atomic orderings that demand a written justification. `SeqCst` is
/// the workspace's default spine and needs none; everything weaker (or
/// mixed, like `AcqRel`) encodes a per-site argument that must be
/// written down next to the site.
const JUSTIFY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// **ordering-needs-justification** — non-SeqCst atomic orderings in
/// `crates/sched` and `crates/chan` production code need an
/// `ORDERING:` comment saying whether the access is counter-only
/// (Relaxed is fine) or part of a synchronizing edge (and with what it
/// pairs). SeqCst sites are exempt — the workspace treats SeqCst as the
/// default spine. `chan` is in scope because its SPSC ring is a
/// sanctioned unsafe island whose soundness *is* its ordering argument.
/// `rel` is the file's path relative to the lint root.
pub fn check_source(rel: &str, lines: &[Line], out: &mut Vec<Diagnostic>) {
    if !rel.split('/').any(|c| c == "sched" || c == "chan") {
        return;
    }
    for (i, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let mut from = 0;
        while let Some(pos) = find_word(&l.code, "Ordering", from) {
            from = pos + "Ordering".len();
            let rest: String = l.code.chars().skip(from).collect();
            let Some(tail) = rest.strip_prefix("::") else {
                continue;
            };
            let ident: String = tail.chars().take_while(|c| c.is_alphanumeric()).collect();
            if JUSTIFY_ORDERINGS.contains(&ident.as_str())
                && !lexer::justified(lines, i, "ORDERING:", JUSTIFICATION_WINDOW)
            {
                out.push(Diagnostic {
                    rule: "ordering-needs-justification",
                    path: rel.to_string(),
                    line: i + 1,
                    message: format!(
                        "Ordering::{ident} without an ORDERING: comment; say whether this \
                         access is counter-only or synchronizing (and what it pairs with)"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_source(rel, &lex_file(src), &mut out);
        out
    }

    #[test]
    fn ordering_rule_scopes_to_sched_and_exempts_seqcst() {
        let src = "a.store(1, Ordering::Relaxed);\n";
        assert_eq!(run("crates/sched/src/pool.rs", src).len(), 1);
        assert!(run("crates/perf/src/counters.rs", src).is_empty());
        let seqcst = "a.store(1, Ordering::SeqCst);\n";
        assert!(run("crates/sched/src/pool.rs", seqcst).is_empty());
        let justified = "// ORDERING: counter-only\na.store(1, Ordering::Relaxed);\n";
        assert!(run("crates/sched/src/pool.rs", justified).is_empty());
        // the chan crate's ring is in scope too (PR 8)
        assert_eq!(run("crates/chan/src/ring.rs", src).len(), 1);
        assert!(run("crates/chan/src/ring.rs", justified).is_empty());
    }

    #[test]
    fn ordering_rule_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { a.load(Ordering::Relaxed); }\n}\n";
        assert!(run("crates/sched/src/pool.rs", src).is_empty());
    }

    #[test]
    fn justification_window_counts_code_lines_only() {
        // nine *code* lines between comment and site exceed the window
        let far = format!(
            "// ORDERING: stale\n{}a.load(Ordering::Acquire);\n",
            "let a = 1;\n".repeat(9)
        );
        assert_eq!(run("crates/sched/src/pool.rs", &far).len(), 1);
        // ...but comment and blank lines do not consume it
        let prose = format!(
            "// ORDERING: long argument follows\n{}\na.load(Ordering::Acquire);\n",
            "// …more prose\n".repeat(12)
        );
        assert!(run("crates/sched/src/pool.rs", &prose).is_empty());
    }
}
