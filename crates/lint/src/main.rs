//! `ezp-lint` CLI: lint the workspace, print diagnostics, exit nonzero
//! on any finding. See `docs/static-analysis.md`.

#![deny(unsafe_code)]

use ezp_lint::workspace::lint_workspace_only;
use ezp_lint::{render, Format};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ezp-lint — static analysis for the EASYPAP workspace

USAGE:
    ezp-lint [--root <dir>] [--format=text|json] [--only <rule>]
             [--rules | --list-rules]

OPTIONS:
    --root <dir>       Workspace root to lint (default: nearest ancestor
                       of the current directory containing a [workspace]
                       manifest, else the current directory)
    --format=<fmt>     Output format: text (default) or json
    --only <rule>      Run a single rule or pass (fast local iteration)
    --rules            Print the full catalogue — name, severity, kind,
                       one-line description — and exit
    --list-rules       Print just the rule/pass names and exit

EXIT STATUS:
    0  no diagnostics
    1  at least one diagnostic
    2  usage or I/O error

Suppress a finding on one line (or the line below the comment) with:
    // ezp-lint: allow(<rule-name>)
Cross-file pass findings may also be suppressed at the declaration that
anchors them (the atomic field).
";

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--list-rules" => {
                for r in ezp_lint::rules::RULES {
                    println!("{}", r.name);
                }
                return ExitCode::SUCCESS;
            }
            "--rules" => {
                for r in ezp_lint::rules::RULES {
                    println!("{:<30} {:<5} {:<5} {}", r.name, r.severity, r.kind, r.desc);
                }
                return ExitCode::SUCCESS;
            }
            "--format=text" => format = Format::Text,
            "--format=json" => format = Format::Json,
            "--only" => match args.next() {
                Some(name) => {
                    if !ezp_lint::rules::is_known_rule(&name) {
                        eprintln!(
                            "ezp-lint: --only {name:?} names no known rule or pass; \
                             run --rules for the catalogue"
                        );
                        return ExitCode::from(2);
                    }
                    only = Some(name);
                }
                None => {
                    eprintln!("ezp-lint: --only needs a rule name argument");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("ezp-lint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("ezp-lint: unknown argument {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(find_workspace_root);
    if !root.is_dir() {
        eprintln!("ezp-lint: root {} is not a directory", root.display());
        return ExitCode::from(2);
    }
    let report = lint_workspace_only(&root, only.as_deref());
    print!("{}", render(&report, format));
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        if format == Format::Json {
            // The JSON body goes to stdout (usually a report file); make
            // sure a human watching the terminal still sees the verdict.
            eprintln!(
                "ezp-lint: {} diagnostic(s); run `cargo run -p ezp-lint` for details",
                report.diagnostics.len()
            );
        }
        ExitCode::FAILURE
    }
}

/// Nearest ancestor of the current directory whose `Cargo.toml` has a
/// `[workspace]` table; falls back to the current directory, so running
/// from anywhere inside the repo lints the whole repo.
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return cwd,
        }
    }
}
