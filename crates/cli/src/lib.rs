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

/// The whole of each `src/bin/*.rs`: runs `command` on the process's
/// arguments, prints its output ([`emit`]) or `name: error`, and exits.
pub fn run_main(name: &str, command: fn(Vec<String>) -> ezp_core::Result<String>) -> ! {
    let code = match command(std::env::args().skip(1).collect()) {
        Ok(out) => emit(&out),
        Err(e) => {
            eprintln!("{name}: {e}");
            1
        }
    };
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use crate::{easyplot::EASYPLOT, easyview::EASYVIEW, serve_cmd::SERVE, serve_cmd::SUBMIT};
    use ezp_core::params::{parse, Command, Grammar, EASYPAP};

    /// The table-driven tests of `docs/testing.md`, for one command.
    fn check_table<C: Default>(cmd: &Command<C>) {
        let run = |argv: &[String]| parse(cmd, argv, &mut C::default()).map_err(|e| e.to_string());
        for (at, flag) in cmd.flags.iter().enumerate() {
            // hygiene: no spelling is shadowed by an earlier row, and the
            // row parses with a value its grammar allows
            for name in flag.names {
                let found = cmd.flags.iter().position(|f| f.names.contains(name));
                assert_eq!(found, Some(at), "{} {name} is shadowed", cmd.name);
            }
            let name = flag.names[0];
            let sample = match flag.grammar {
                Grammar::Switch(_) => name.to_string(),
                Grammar::Text(_) => format!("{name}=x"),
                Grammar::Int(min, ..) => format!("{name}={min}"),
                Grammar::OneOf(words, _) | Grammar::OptOneOf(words, _) => format!("{name}={}", words[0]),
                Grammar::Custom(example, _) => format!("{name}={example}"),
            };
            assert_eq!(run(&[sample]), Ok(vec![]), "{}", cmd.name);
            // boundary: every spelling takes min and max and refuses, by
            // name and range, what lies just outside and the widths that
            // used to wrap. More than 32 bits is for identifiers, never for
            // what sizes a loop or a buffer: a bound cannot be dropped
            let Grammar::Int(min, max, _) = flag.grammar else { continue };
            let wide = ["--seed", "--at"].contains(&name);
            assert!(wide || max <= u32::MAX.into(), "{} {} needs a bound", cmd.name, flag.usage());
            let (lo, hi) = (u128::from(min), u128::from(max));
            for n in [lo.wrapping_sub(1), lo, hi, hi + 1, 1 << 32, 1 << 63, (1 << 64) - 1, 1 << 64] {
                for name in flag.names {
                    for argv in [vec![name.to_string(), n.to_string()], vec![format!("{name}={n}")]] {
                        let refusal = |e: &String| {
                            let range = format!("{min}..={max}");
                            e.starts_with("configuration error") && e.contains(name) && e.contains(&range)
                        };
                        let got = run(&argv);
                        let fine = if (lo..=hi).contains(&n) { got.is_ok() } else { got.as_ref().is_err_and(refusal) };
                        assert!(fine, "{} {argv:?}: {got:?}", cmd.name);
                    }
                }
            }
        }
    }

    #[test]
    fn every_row_is_reachable_and_every_integer_row_holds_its_bounds() {
        check_table(&EASYPAP);
        check_table(&SERVE);
        check_table(&SUBMIT);
        check_table(&EASYVIEW);
        check_table(&EASYPLOT);
    }

    /// `easypap submit` describes a job with `easypap`'s own rows and
    /// talks to the port `easypap serve` listens on.
    #[test]
    fn rows_shared_by_two_commands_parse_identically() {
        fn shared<A, B>(a: &Command<A>, b: &Command<B>) -> usize {
            let pairs = a.flags.iter().flat_map(|fa| b.flags.iter().map(move |fb| (fa, fb)));
            pairs
                .filter(|(fa, fb)| fa.names[0] == fb.names[0])
                .inspect(|(fa, fb)| assert_eq!(fa.usage(), fb.usage(), "{} vs {}", a.name, b.name))
                .count()
        }
        assert_eq!(shared(&EASYPAP, &SUBMIT), 6);
        assert_eq!(shared(&SERVE, &SUBMIT), 1);
    }

    /// `docs/knobs.md` is the ledger of every knob and what justifies
    /// it. Two-way: a row without a ledger line fails, and so does a
    /// ledger line (outside *Removed*) naming a flag no table has — or
    /// a *Removed* line naming one a table still has.
    #[test]
    fn the_knob_ledger_and_the_flag_tables_list_the_same_flags() {
        fn names<C>(cmd: &Command<C>) -> Vec<&'static str> {
            cmd.flags.iter().flat_map(|f| f.names).copied().collect()
        }
        let ledger = include_str!("../../../docs/knobs.md");
        let removed = &ledger[ledger.find("\n## Removed").expect("no section Removed")..];
        let tables = [
            ("easypap", names(&EASYPAP)),
            ("easypap serve", names(&SERVE)),
            ("easypap submit", names(&SUBMIT)),
            ("easyview", names(&EASYVIEW)),
            ("easyplot", names(&EASYPLOT)),
        ];
        // `command --flag` tokens in the first cell of each Removed line
        let gone = removed.lines().filter_map(|line| line.strip_prefix("| ")?.split(" | ").next());
        for token in gone.flat_map(|cell| cell.split('`').skip(1).step_by(2)) {
            let Some((command, flag)) = token.rsplit_once(' ') else { continue };
            for (_, names) in tables.iter().filter(|(name, _)| *name == command) {
                assert!(!names.contains(&flag), "`{token}` is listed as removed, but parses");
            }
        }
        let sections = [
            ("## `easypap` (", names(&EASYPAP)),
            ("## `easypap serve`", [names(&SERVE), names(&SUBMIT)].concat()),
            ("## `easyview`", names(&EASYVIEW)),
            ("## `easyplot`", names(&EASYPLOT)),
        ];
        for (heading, names) in sections {
            let start = ledger.find(heading).unwrap_or_else(|| panic!("no section {heading}"));
            let section = ledger[start + 2..].split("\n## ").next().unwrap();
            // the `--flag` tokens in the first cell of each table line
            let documented: Vec<&str> = section
                .lines()
                .filter_map(|line| line.strip_prefix("| ")?.split(" | ").next())
                .flat_map(|cell| cell.split('`').skip(1).step_by(2))
                .filter(|token| token.starts_with('-'))
                .collect();
            for name in &names {
                assert!(documented.contains(name), "{heading}: {name} has no ledger line");
            }
            for token in documented {
                assert!(names.contains(&token), "{heading}: the ledger lists {token}, no row does");
            }
        }
    }
}
