//! `ezp-lint` CLI: lint the workspace, print diagnostics, exit nonzero
//! on any finding. See `docs/static-analysis.md`.

#![deny(unsafe_code)]

use ezp_lint::lint_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ezp-lint — atomic-ordering arguments in the EASYPAP workspace

USAGE:
    ezp-lint [--root <dir>]

OPTIONS:
    --root <dir>    Workspace root to lint (default: nearest ancestor of
                    the current directory containing a [workspace]
                    manifest, else the current directory)

EXIT STATUS:
    0  no diagnostics
    1  at least one diagnostic
    2  usage error
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
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
    let report = lint_workspace(&root);
    for d in &report.diagnostics {
        println!("{d}");
    }
    println!(
        "ezp-lint: {} diagnostic(s) in {} file(s) scanned",
        report.diagnostics.len(),
        report.files_scanned
    );
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
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
