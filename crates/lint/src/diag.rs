//! Diagnostics and their text / JSON renderings.

use std::fmt;

use crate::workspace::Report;

/// One finding: a rule violated at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name, e.g. `unsafe-needs-safety`.
    pub rule: &'static str,
    /// Path of the offending file, relative to the lint root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation, including the fix direction.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Output format of the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One `path:line: [rule] message` line per diagnostic.
    Text,
    /// A machine-readable report object (`--format=json`).
    Json,
}

/// Renders a full report in the requested format.
///
/// The JSON shape is **version 2**: version 1's fields are unchanged
/// (`tool`, `files_scanned`, `diagnostic_count`, `diagnostics`), and
/// the report gains `total_ms` (wall time of the whole run) plus a
/// `passes` array with one `{name, findings, wall_ms}` object per
/// cross-file pass — `ci/verify.sh` gates on both.
pub fn render(report: &Report, format: Format) -> String {
    let diags = &report.diagnostics;
    match format {
        Format::Text => {
            let mut out = String::new();
            for d in diags {
                out.push_str(&d.to_string());
                out.push('\n');
            }
            if !report.pass_stats.is_empty() {
                let per_pass: Vec<String> = report
                    .pass_stats
                    .iter()
                    .map(|p| format!("{} {}", p.name, p.findings))
                    .collect();
                out.push_str(&format!(
                    "ezp-lint: passes: {} ({:.0} ms total)\n",
                    per_pass.join(", "),
                    report.total_ms
                ));
            }
            out.push_str(&format!(
                "ezp-lint: {} diagnostic(s) in {} file(s) scanned\n",
                diags.len(),
                report.files_scanned
            ));
            out
        }
        Format::Json => {
            let mut out = String::from("{\n");
            out.push_str("  \"tool\": \"ezp-lint\",\n");
            out.push_str("  \"version\": 2,\n");
            out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
            out.push_str(&format!("  \"total_ms\": {:.1},\n", report.total_ms));
            out.push_str("  \"passes\": [");
            for (i, p) in report.pass_stats.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    {{\"name\": {}, \"findings\": {}, \"wall_ms\": {:.1}}}",
                    json_string(p.name),
                    p.findings,
                    p.wall_ms
                ));
            }
            if !report.pass_stats.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("],\n");
            out.push_str(&format!("  \"diagnostic_count\": {},\n", diags.len()));
            out.push_str("  \"diagnostics\": [");
            for (i, d) in diags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
                    json_string(d.rule),
                    json_string(&d.path),
                    d.line,
                    json_string(&d.message)
                ));
            }
            if !diags.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("]\n}\n");
            out
        }
    }
}

/// Escapes a string for JSON output (the same minimal escaping
/// `ezp-core::json` performs; duplicated here so the linter stays
/// dependency-free).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::PassStat;

    fn sample() -> Report {
        Report {
            diagnostics: vec![Diagnostic {
                rule: "unsafe-needs-safety",
                path: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "an \"unsafe\" block needs a SAFETY: comment".into(),
            }],
            files_scanned: 3,
            pass_stats: vec![PassStat {
                name: "atomics-pairing",
                findings: 0,
                wall_ms: 1.25,
            }],
            total_ms: 12.5,
        }
    }

    #[test]
    fn text_format_is_one_line_per_diag_plus_summaries() {
        let out = render(&sample(), Format::Text);
        assert!(out.contains("crates/x/src/lib.rs:7: [unsafe-needs-safety]"));
        assert!(out.contains("passes: atomics-pairing 0"));
        assert!(out.contains("1 diagnostic(s) in 3 file(s)"));
    }

    #[test]
    fn json_format_escapes_counts_and_reports_passes() {
        let out = render(&sample(), Format::Json);
        assert!(out.contains("\"version\": 2"));
        assert!(out.contains("\"diagnostic_count\": 1"));
        assert!(out.contains("\\\"unsafe\\\""));
        assert!(out.contains("\"files_scanned\": 3"));
        assert!(out.contains("\"total_ms\": 12.5"));
        assert!(out.contains("{\"name\": \"atomics-pairing\", \"findings\": 0, \"wall_ms\": 1.2}"));
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let out = render(&Report::default(), Format::Json);
        assert!(out.contains("\"diagnostics\": []"));
        assert!(out.contains("\"passes\": []"));
    }
}
