//! # easypap-cli — the `easypap`, `easyview` and `easyplot` commands
//!
//! These are the front doors the paper's students use:
//!
//! ```text
//! easypap --kernel mandel --variant omp_tiled --tile-size 16 \
//!         --iterations 50 --no-display
//! 50 iterations completed in 579 ms
//! ```
//!
//! The library half of this crate implements the three commands as pure
//! functions from argument vectors to output text, so the whole CLI
//! surface is unit-testable; the `src/bin/*.rs` wrappers only print.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod easypap;
pub mod easyplot;
pub mod easyview;
pub mod serve_cmd;

pub use easypap::run_easypap;
pub use easyplot::run_easyplot;
pub use easyview::run_easyview;

/// Prints a command's output to stdout and maps I/O failures to an
/// exit code: a broken pipe (`easypap ... | head`) is a normal way for
/// a consumer to say "enough" and exits 0; any other write error is
/// reported and exits 1.
///
/// The `src/bin/*.rs` wrappers ended with `print!("{out}")`, which
/// panics on `EPIPE` because Rust disables `SIGPIPE` — piping a run
/// into `head -1` produced a panic trace instead of a clean exit.
pub fn emit(out: &str) -> i32 {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => 0,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error writing to stdout: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    /// Every `"--flag"` literal in the non-test part of `source`.
    fn flag_literals(source: &str) -> Vec<&str> {
        let code = source.split("#[cfg(test)]").next().unwrap();
        let mut flags = Vec::new();
        for (at, _) in code.match_indices("\"--") {
            let rest = &code[at + 1..];
            let len = rest
                .find(|c: char| c != '-' && !c.is_ascii_lowercase())
                .unwrap_or(rest.len());
            if len > 2 && rest[len..].starts_with('"') {
                flags.push(&rest[..len]);
            }
        }
        flags
    }

    /// `docs/knobs.md` is the ledger of every knob and what justifies
    /// it; a flag added to a parser without a row there fails here.
    #[test]
    fn every_parsed_flag_has_a_row_in_the_knob_ledger() {
        let ledger = include_str!("../../../docs/knobs.md");
        let parsers = [
            ("params.rs", include_str!("../../core/src/params.rs")),
            ("serve_cmd.rs", include_str!("serve_cmd.rs")),
            ("easyview.rs", include_str!("easyview.rs")),
            ("easyplot.rs", include_str!("easyplot.rs")),
        ];
        for (file, source) in parsers {
            let flags = flag_literals(source);
            assert!(flags.len() >= 6, "{file}: flag extraction found only {flags:?}");
            for flag in flags {
                assert!(
                    ledger.contains(&format!("`{flag}`")),
                    "{file} parses {flag}, which has no row in docs/knobs.md"
                );
            }
        }
    }
}
