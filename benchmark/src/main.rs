//! `ezp-benchmark` — the repo's frozen end-to-end benchmark.
//!
//! ```text
//! ezp-benchmark --workload W --seed N --seconds S --trace 0|1   one measured run (BENCHMARK.json's command)
//! ezp-benchmark [--seed N] [--seconds S] [--out DIR] [--twice]  every workload, both passes, results.json
//! ezp-benchmark compare A/results.json B/results.json           regression verdict per metric and workload
//! ```
//!
//! `benchmark/run.sh` builds the programs under test and this binary,
//! then forwards its arguments here. See `benchmark/README.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod child;
mod e2e;
mod layers;
mod procfs;
mod report;
mod serve_client;
mod spans;
mod stats;
mod traced;
mod workloads;

use child::Bins;
use std::path::PathBuf;

/// Parsed command line.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    twice: bool,
    bin_dir: PathBuf,
    spec: PathBuf,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: false,
        twice: false,
        bin_dir: PathBuf::from("target/release"),
        spec: PathBuf::from("BENCHMARK.json"),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--twice" {
            cli.twice = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: invalid value `{value}`");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--bin-dir" => cli.bin_dir = PathBuf::from(value),
            "--spec" => cli.spec = PathBuf::from(value),
            "--out" => cli.out = PathBuf::from(value),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(cli)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return report::compare_cmd(&args[1..]);
    }
    let cli = parse_cli(&args)?;
    let bins = Bins::in_dir(&cli.bin_dir)?;
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    match &cli.workload {
        Some(name) => {
            let workload =
                workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let run = e2e::RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                bins,
                out_dir: cli.out.clone(),
            };
            let result = if cli.trace {
                traced::run(&run)?
            } else {
                report::RunResult::from_e2e(e2e::run(&run)?)
            };
            result.print_notes();
            // the contract: one JSON object, the last line of stdout
            println!("{}", result.to_json().dump());
            Ok(result.correct())
        }
        None => report::full_run(&cli.spec, &cli.out, cli.seed, cli.seconds, cli.twice, &bins),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ezp-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
