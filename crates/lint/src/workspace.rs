//! Workspace discovery and the lint engine driver.
//!
//! [`lint_workspace`] walks a directory tree, collects every `.rs` file
//! (skipping `target/`, VCS metadata and the intentionally-bad
//! `lint_fixtures/` corpora), then runs the two-phase engine:
//! **phase 1** lexes each source once, running the per-line rules *and*
//! feeding the same lexed lines into the [`crate::model::Model`];
//! **phase 2** runs the cross-file pass of [`crate::passes`] over the
//! finished model. Per-line findings are filtered through suppressions
//! here; pass findings resolve their own suppressions (they may be
//! anchored at a declaration site far from the finding).

use crate::diag::Diagnostic;
use crate::lexer::{allowed_at, lex_file};
use crate::model::Model;
use crate::passes::{self, PassStat};
use crate::rules::{self, SourceFile};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "lint_fixtures", "node_modules"];

/// A completed lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, in file/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Finding count and wall-time of the cross-file pass, when it ran.
    pub pass_stats: Vec<PassStat>,
    /// Wall time of the whole run in milliseconds.
    pub total_ms: f64,
}

/// Lints every source file under `root`.
pub fn lint_workspace(root: &Path) -> Report {
    lint_workspace_only(root, None)
}

/// [`lint_workspace`], restricted to the single rule or pass named by
/// `only` when it is `Some` (the CLI's `--only` flag).
pub fn lint_workspace_only(root: &Path, only: Option<&str>) -> Report {
    let t0 = Instant::now();
    let mut sources = Vec::new();
    walk(root, &mut sources);
    let mut report = Report::default();
    let wanted = |name: &str| only.is_none_or(|o| o == name);

    let mut model = Model::new();
    for spath in &sources {
        let Ok(text) = std::fs::read_to_string(spath) else {
            continue;
        };
        report.files_scanned += 1;
        let lines = lex_file(&text);
        let rel = rel_path(root, spath);
        model.add_source(&rel, &lines);
        let file = SourceFile { rel: &rel, lines: &lines };
        let mut found = Vec::new();
        rules::check_source(&file, &mut found);
        report.diagnostics.extend(
            found
                .into_iter()
                .filter(|d| wanted(d.rule) && !allowed_at(&lines, d.line - 1, d.rule)),
        );
        // Validate the suppressions themselves: an `allow(...)` naming
        // an unknown rule silently does nothing — exactly how a typo
        // would disarm a real suppression — so it is itself a finding.
        if wanted(rules::UNKNOWN_SUPPRESSION) {
            for (i, line) in lines.iter().enumerate() {
                for a in &line.allows {
                    if !rules::is_known_rule(a) {
                        report.diagnostics.push(Diagnostic {
                            rule: rules::UNKNOWN_SUPPRESSION,
                            path: rel.clone(),
                            line: i + 1,
                            message: format!(
                                "allow({a}) names no known rule or pass; valid names: {}",
                                rules::known_rule_names().join(", ")
                            ),
                        });
                    }
                }
            }
        }
    }

    // Phase 2: the cross-file pass over the finished model.
    if wanted(passes::PASS_NAME) {
        let (diags, stat) = passes::run(&model);
        report.diagnostics.extend(diags);
        report.pass_stats.push(stat);
    }

    report.diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    report.total_ms = t0.elapsed().as_secs_f64() * 1000.0;
    report
}

/// `/`-separated path of `p` relative to `root`.
fn rel_path(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects `.rs` sources.
fn walk(dir: &Path, sources: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, sources);
        } else if name.ends_with(".rs") {
            sources.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_paths_are_slash_separated_and_root_relative() {
        let root = Path::new("/a/b");
        assert_eq!(rel_path(root, Path::new("/a/b/c/d.rs")), "c/d.rs");
    }
}
