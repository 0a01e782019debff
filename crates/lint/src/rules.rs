//! The rule set: each rule enforces one invariant the scheduler's
//! correctness argument leans on. See `docs/static-analysis.md` for the
//! rationale behind every rule and the suppression syntax.

use crate::diag::Diagnostic;
use crate::lexer::{self, find_word, has_word, Line};

/// How many *code* lines above a site a `SAFETY:` / `ORDERING:`
/// comment may sit and still count as justifying it. Comment and blank
/// lines do not consume the window — a long justification paragraph
/// must not push itself out of range — but more than this much
/// unrelated code between comment and site means the comment is
/// justifying something else.
pub const JUSTIFICATION_WINDOW: usize = 8;

/// One catalogue entry for `ezp-lint --rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule or pass name, as used in diagnostics and `allow(…)`.
    pub name: &'static str,
    /// Severity: every shipped rule is `deny` (any finding fails the
    /// run with exit 1); the field exists so a future `warn` tier does
    /// not need a format change.
    pub severity: &'static str,
    /// `line` (per-line rule) or `pass` (cross-file pass).
    pub kind: &'static str,
    /// One-line description for `--rules`.
    pub desc: &'static str,
}

/// The full rule/pass catalogue, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unsafe-needs-safety",
        severity: "deny",
        kind: "line",
        desc: "every unsafe site carries a SAFETY: comment stating the invariant",
    },
    RuleInfo {
        name: "ordering-needs-justification",
        severity: "deny",
        kind: "line",
        desc: "non-SeqCst atomic orderings in sched/chan carry an ORDERING: comment",
    },
    RuleInfo {
        name: "no-lock-in-hot-path",
        severity: "deny",
        kind: "line",
        desc: "Mutex/RwLock/Condvar stay out of the de-contended scheduler files",
    },
    RuleInfo {
        name: "determinism",
        severity: "deny",
        kind: "line",
        desc: "no wall clock or OS entropy in ezp-check-replayed modules",
    },
    RuleInfo {
        name: "atomics-pairing",
        severity: "deny",
        kind: "pass",
        desc: "Release writes pair with an acquire side; Relaxed-only fields carry a taxonomy tag",
    },
];

/// The meta-check on the suppression markers themselves: an `allow(…)`
/// naming no rule is reported under this name. Valid for `--only`; not
/// a catalogue row, because nothing in a source file can violate it
/// except a marker.
pub const UNKNOWN_SUPPRESSION: &str = "unknown-suppression";

/// Is `name` a shipped rule, the pass, or the suppression meta-check?
pub fn is_known_rule(name: &str) -> bool {
    name == UNKNOWN_SUPPRESSION || RULES.iter().any(|r| r.name == name)
}

/// Every rule name `allow(…)` may legitimately use.
pub fn known_rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// File names of the scheduler hot path, where lock *types* are banned
/// (PR 4 removed them; this rule keeps them out). Blocking itself is
/// not: `pool.rs` and `taskgraph.rs` park through `ParkLot`, the
/// documented fallback in `crates/core/src/park.rs`.
const HOT_PATH_FILES: &[&str] = &["pool.rs", "deque.rs", "dispenser.rs", "taskgraph.rs"];

/// Blocking primitives banned from the hot path.
const LOCK_TOKENS: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// File names of ezp-check-replayed modules: code here re-executes
/// under the virtual scheduler, where a run must be a pure function of
/// `(strategy, seed)`.
const REPLAYED_FILES: &[&str] = &["vexec.rs", "shadow.rs", "schedule.rs"];

/// Wall-clock / OS-entropy constructs banned from replayed modules,
/// with the replacement each message points at.
const NONDETERMINISM: &[(&str, &str)] = &[
    ("Instant", "virtual time (step counts) or a caller-supplied clock"),
    ("SystemTime", "virtual time (step counts) or a caller-supplied clock"),
    ("HashMap", "BTreeMap (RandomState-seeded iteration order varies per process)"),
    ("HashSet", "BTreeSet (RandomState-seeded iteration order varies per process)"),
    ("RandomState", "ezp_testkit::Rng, seeded from the schedule seed"),
    ("thread_rng", "ezp_testkit::Rng, seeded from the schedule seed"),
];

/// Atomic orderings that demand a written justification. `SeqCst` is
/// the workspace's default spine and needs none; everything weaker (or
/// mixed, like `AcqRel`) encodes a per-site argument that must be
/// written down next to the site.
const JUSTIFY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// A lexed `.rs` file plus the path facts rules scope on.
pub struct SourceFile<'a> {
    /// Path relative to the lint root, `/`-separated.
    pub rel: &'a str,
    /// Lexed lines.
    pub lines: &'a [Line],
}

impl SourceFile<'_> {
    fn file_name(&self) -> &str {
        self.rel.rsplit('/').next().unwrap_or(self.rel)
    }

    fn has_component(&self, comp: &str) -> bool {
        self.rel.split('/').any(|c| c == comp)
    }

    /// [`lexer::justified`] within [`JUSTIFICATION_WINDOW`] code lines.
    fn justified(&self, line: usize, tag: &str) -> bool {
        lexer::justified(self.lines, line, tag, JUSTIFICATION_WINDOW)
    }
}

/// Runs every source rule over one file, appending findings.
pub fn check_source(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    unsafe_needs_safety(f, out);
    ordering_needs_justification(f, out);
    no_lock_in_hot_path(f, out);
    determinism(f, out);
}

fn push(out: &mut Vec<Diagnostic>, rule: &'static str, f: &SourceFile<'_>, line: usize, msg: String) {
    out.push(Diagnostic {
        rule,
        path: f.rel.to_string(),
        line: line + 1,
        message: msg,
    });
}

/// **unsafe-needs-safety** — every `unsafe` block, fn, trait or impl
/// must carry a `SAFETY:` comment on the same line or in the comment
/// block directly above it. Applies everywhere, tests included: an
/// unsound test is still unsound.
fn unsafe_needs_safety(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    for (i, l) in f.lines.iter().enumerate() {
        if has_word(&l.code, "unsafe") && !f.justified(i, "SAFETY:") {
            push(
                out,
                "unsafe-needs-safety",
                f,
                i,
                "unsafe site without a SAFETY: comment; state the invariant that makes \
                 this sound (and who upholds it) within the 8 lines above"
                    .into(),
            );
        }
    }
}

/// **ordering-needs-justification** — non-SeqCst atomic orderings in
/// `crates/sched` and `crates/chan` production code need an
/// `ORDERING:` comment saying whether the access is counter-only
/// (Relaxed is fine) or part of a synchronizing edge (and with what it
/// pairs). SeqCst sites are exempt — the workspace treats SeqCst as the
/// default spine. `chan` is in scope because its SPSC ring is a
/// sanctioned unsafe island whose soundness *is* its ordering argument.
fn ordering_needs_justification(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if !(f.has_component("sched") || f.has_component("chan")) {
        return;
    }
    for (i, l) in f.lines.iter().enumerate() {
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
            if JUSTIFY_ORDERINGS.contains(&ident.as_str()) && !f.justified(i, "ORDERING:") {
                push(
                    out,
                    "ordering-needs-justification",
                    f,
                    i,
                    format!(
                        "Ordering::{ident} without an ORDERING: comment; say whether this \
                         access is counter-only or synchronizing (and what it pairs with)"
                    ),
                );
            }
        }
    }
}

/// **no-lock-in-hot-path** — the `Mutex` / `RwLock` / `Condvar` *types*
/// are banned from the scheduler hot-path files PR 4 de-contended
/// (`pool.rs` / `deque.rs` / `dispenser.rs` / `taskgraph.rs` under a
/// `sched` directory). Test modules are exempt: tests may use locks as
/// oracles. The rule sees tokens, not behaviour: `pool.rs` and
/// `taskgraph.rs` do block, through the `ParkLot` of
/// `crates/core/src/park.rs`, which no scoped file name covers.
fn no_lock_in_hot_path(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if !f.has_component("sched") || !HOT_PATH_FILES.contains(&f.file_name()) {
        return;
    }
    for (i, l) in f.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for tok in LOCK_TOKENS {
            if has_word(&l.code, tok) {
                push(
                    out,
                    "no-lock-in-hot-path",
                    f,
                    i,
                    format!(
                        "{tok} in a de-contended hot-path file; use the lock-free protocols \
                         (atomics + the ParkLot fallback of crates/core/src/park.rs)"
                    ),
                );
            }
        }
    }
}

/// **determinism** — ezp-check replays runs from `(strategy, seed)`, so
/// the replayed modules (`vexec.rs`, `shadow.rs`, `schedule.rs`) must
/// not read wall clocks or OS entropy, and must not iterate
/// RandomState-seeded maps. Test modules are exempt.
fn determinism(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if !REPLAYED_FILES.contains(&f.file_name()) {
        return;
    }
    for (i, l) in f.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for (tok, instead) in NONDETERMINISM {
            if has_word(&l.code, tok) {
                push(
                    out,
                    "determinism",
                    f,
                    i,
                    format!(
                        "{tok} in an ezp-check-replayed module breaks seed replay; \
                         use {instead}"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let lines = lex_file(src);
        let f = SourceFile { rel, lines: &lines };
        let mut out = Vec::new();
        check_source(&f, &mut out);
        out
    }

    #[test]
    fn unsafe_without_safety_fires_and_with_safety_passes() {
        let bad = run("x/src/a.rs", "unsafe { do_it() }\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "unsafe-needs-safety");
        let good = run("x/src/a.rs", "// SAFETY: pointer is live\nunsafe { do_it() }\n");
        assert!(good.is_empty());
        let trailing = run("x/src/a.rs", "unsafe { do_it() } // SAFETY: live\n");
        assert!(trailing.is_empty());
    }

    #[test]
    fn safety_comment_too_far_above_does_not_count() {
        // nine *code* lines between comment and site exceed the window
        let src = format!("// SAFETY: stale\n{}unsafe {{ x() }}\n", "let a = 1;\n".repeat(9));
        assert_eq!(run("x/src/a.rs", &src).len(), 1);
    }

    #[test]
    fn comment_and_blank_lines_do_not_consume_the_window() {
        let src = format!(
            "// SAFETY: long argument follows\n{}\nunsafe {{ x() }}\n",
            "// …more prose\n".repeat(12)
        );
        assert!(run("x/src/a.rs", &src).is_empty());
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
    fn locks_banned_only_in_hot_path_files() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(run("crates/sched/src/pool.rs", src).len(), 1);
        assert!(run("crates/core/src/park.rs", src).is_empty());
        assert!(run("crates/monitor/src/live.rs", src).is_empty());
        // simsched's taskgraph.rs is not the hot path
        assert!(run("crates/simsched/src/taskgraph.rs", src).is_empty());
    }

    #[test]
    fn lock_in_hot_path_test_module_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(run("crates/sched/src/deque.rs", src).is_empty());
    }

    #[test]
    fn determinism_bans_wall_clock_in_replayed_files() {
        let src = "let t = Instant::now();\n";
        assert_eq!(run("crates/sched/src/vexec.rs", src).len(), 1);
        assert!(run("crates/core/src/time.rs", src).is_empty());
        let map = "let m: HashMap<u32, u32> = HashMap::new();\n";
        assert_eq!(run("crates/core/src/shadow.rs", map).len(), 1);
    }
}
