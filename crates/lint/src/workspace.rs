//! Workspace discovery and the lint engine driver.
//!
//! [`lint_workspace`] walks a directory tree, collects every `.rs` file
//! (skipping `target/`, VCS metadata and the intentionally-bad
//! `lint_fixtures/` corpora), then runs the two-phase engine:
//! **phase 1** lexes each source once, running the per-line rule *and*
//! feeding the same lexed lines into the [`crate::model::Model`];
//! **phase 2** runs the cross-file pass of [`crate::atomics`] over the
//! finished model.

use crate::diag::Diagnostic;
use crate::lexer::lex_file;
use crate::model::Model;
use crate::{atomics, rules};
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "lint_fixtures", "node_modules"];

/// A completed lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, in file/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

/// Lints every source file under `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let mut sources = Vec::new();
    walk(root, &mut sources);
    let mut report = Report::default();
    let mut model = Model::new();
    for spath in &sources {
        let Ok(text) = std::fs::read_to_string(spath) else {
            continue;
        };
        report.files_scanned += 1;
        let lines = lex_file(&text);
        let rel = rel_path(root, spath);
        model.add_source(&rel, &lines);
        rules::check_source(&rel, &lines, &mut report.diagnostics);
    }
    report.diagnostics.extend(atomics::check(&model));
    report
        .diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
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
