//! The `easyplot` command: turn performance CSVs into graphs (§II-C).
//!
//! ```text
//! easyplot --input easypap.csv --kernel mandel --speedup
//! easyplot --input easypap.csv -x threads -y time_us --svg plot.svg
//! ```
//!
//! Mirrors the paper's `easyplot --kernel mandel --col grain --speedup`:
//! filters rows, factors out constant parameters, auto-builds the
//! legend, and renders ASCII (default) or SVG.

use ezp_core::csv::CsvTable;
use ezp_core::error::{Error, Result};
use ezp_core::params::Grammar::{Switch, Text};
use ezp_core::params::{parse, Command, Flag};
use ezp_plot::{render_ascii, render_svg, Dataset};
use std::fmt::Write as _;
use std::io::Write as _;

/// Parsed `easyplot` invocation.
#[derive(Default)]
pub(crate) struct PlotArgs {
    /// `None`: the performance mode's `easypap.csv`.
    input: Option<String>,
    /// `None`: `threads`.
    x: Option<String>,
    /// `None`: `time_us`.
    y: Option<String>,
    filters: Vec<(String, String)>,
    speedup: bool,
    svg: Option<String>,
}

impl PlotArgs {
    fn keep(&mut self, column: &str, value: &str) {
        self.filters.push((column.to_string(), value.to_string()));
    }
}

/// The `easyplot` flag table.
#[rustfmt::skip]
pub(crate) static EASYPLOT: Command<PlotArgs> = Command {
    name: "easyplot",
    positionals: 0,
    modes: &[],
    flags: &[
        Flag::new(&["--input", "-i"], Text(|a, s| a.input = Some(s.to_string()))),
        Flag::new(&["--x", "-x"], Text(|a, s| a.x = Some(s.to_string()))),
        Flag::new(&["--y", "-y"], Text(|a, s| a.y = Some(s.to_string()))),
        Flag::new(&["--speedup"], Switch(|a| a.speedup = true)),
        Flag::new(&["--svg"], Text(|a, s| a.svg = Some(s.to_string()))),
        // paper-style filters, one per CSV column: --kernel mandel, ...
        Flag::new(&["--kernel"], Text(|a, s| a.keep("kernel", s))),
        Flag::new(&["--variant"], Text(|a, s| a.keep("variant", s))),
        Flag::new(&["--schedule"], Text(|a, s| a.keep("schedule", s))),
        Flag::new(&["--machine"], Text(|a, s| a.keep("machine", s))),
        Flag::new(&["--dim"], Text(|a, s| a.keep("dim", s))),
        Flag::new(&["--tile"], Text(|a, s| a.keep("tile", s))),
        Flag::new(&["--iterations"], Text(|a, s| a.keep("iterations", s))),
    ],
};

/// Runs `easyplot` and returns the console output (the ASCII chart, or
/// a confirmation line in SVG mode).
pub fn run_easyplot<I, S>(argv: I) -> Result<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = PlotArgs::default();
    parse(&EASYPLOT, argv, &mut args)?;
    let (x, y) = (
        args.x.as_deref().unwrap_or("threads"),
        args.y.as_deref().unwrap_or("time_us"),
    );
    let table = CsvTable::load(args.input.as_deref().unwrap_or(crate::easypap::PERF_CSV))?;
    // apply the column filters
    let filtered = table.filter(|row| {
        args.filters
            .iter()
            .all(|(col, val)| row.get(col) == Some(val.as_str()))
    });
    if filtered.is_empty() {
        return Err(Error::Config(format!(
            "no rows left after filtering {:?}",
            args.filters
        )));
    }
    let mut data = Dataset::from_table(&filtered, x, y, &["run"])?;
    if args.speedup {
        let ref_time = reference_time(&filtered, x)?;
        data = data.into_speedup(ref_time);
    }
    let mut out = String::new();
    match &args.svg {
        Some(path) => {
            ezp_core::file::rewrite(path, |w| {
                Ok(w.write_all(render_svg(&data, 640.0, 420.0).as_bytes())?)
            })?;
            writeln!(out, "plot written to {path}").unwrap();
            writeln!(out, "{}", data.constants_line()).unwrap();
        }
        None => out.push_str(&render_ascii(&data, 72, 20)),
    }
    Ok(out)
}

/// The `refTime` of a speedup plot: the mean time of the rows with the
/// smallest x value (typically `threads=1`, the sequential reference).
fn reference_time(table: &CsvTable, x_col: &str) -> Result<f64> {
    let xi = table
        .col(x_col)
        .ok_or_else(|| Error::Config(format!("no column `{x_col}`")))?;
    let ti = table
        .col("time_us")
        .ok_or_else(|| Error::Config("no column `time_us`".into()))?;
    let min_x = table
        .rows
        .iter()
        .filter_map(|r| r[xi].parse::<f64>().ok())
        .fold(f64::INFINITY, f64::min);
    let times: Vec<f64> = table
        .rows
        .iter()
        .filter(|r| r[xi].parse::<f64>().map(|v| v == min_x).unwrap_or(false))
        .filter_map(|r| r[ti].parse().ok())
        .collect();
    if times.is_empty() {
        return Err(Error::Config("no reference rows for speedup".into()));
    }
    Ok(times.iter().sum::<f64>() / times.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csv(name: &str) -> std::path::PathBuf {
        let mut t = CsvTable::new(vec![
            "machine",
            "kernel",
            "variant",
            "dim",
            "tile",
            "threads",
            "schedule",
            "iterations",
            "time_us",
            "run",
        ]);
        for (threads, sched, time) in [
            ("1", "static", "1000"),
            ("2", "static", "600"),
            ("4", "static", "400"),
            ("1", "dynamic,2", "1000"),
            ("2", "dynamic,2", "520"),
            ("4", "dynamic,2", "270"),
        ] {
            t.push_row(vec![
                "host",
                "mandel",
                "omp_tiled",
                "1024",
                "16",
                threads,
                sched,
                "10",
                time,
                "0",
            ])
            .unwrap();
        }
        // one blur row that the --kernel filter must drop
        t.push_row(vec![
            "host", "blur", "seq", "1024", "16", "1", "static", "10", "9999", "0",
        ])
        .unwrap();
        let path =
            std::env::temp_dir().join(format!("ezp_plot_cli_{}_{name}.csv", std::process::id()));
        t.save(&path).unwrap();
        path
    }

    #[test]
    fn ascii_speedup_plot_matches_fig6_contract() {
        let csv = sample_csv("speedup");
        let out = run_easyplot([
            "--input",
            csv.to_str().unwrap(),
            "--kernel",
            "mandel",
            "--speedup",
        ])
        .unwrap();
        // legend from the varying column only
        assert!(out.contains("schedule=static"));
        assert!(out.contains("schedule=dynamic,2"));
        // constants factored out and listed
        assert!(out.contains("kernel=mandel"));
        assert!(out.contains("dim=1024"));
        assert!(out.contains("refTime=1000"));
        assert!(out.contains("threads -> speedup"));
        std::fs::remove_file(csv).unwrap();
    }

    #[test]
    fn svg_output() {
        let csv = sample_csv("svg");
        let svg = std::env::temp_dir().join(format!("ezp_plot_{}.svg", std::process::id()));
        let out = run_easyplot([
            "--input",
            csv.to_str().unwrap(),
            "--kernel",
            "mandel",
            "--svg",
            svg.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("plot written"));
        assert!(std::fs::read_to_string(&svg).unwrap().contains("<polyline"));
        std::fs::remove_file(csv).unwrap();
        std::fs::remove_file(svg).unwrap();
    }

    #[test]
    fn retired_hist_flag_is_an_unknown_option() {
        let err = run_easyplot(["--hist", "schedule"]).unwrap_err();
        assert!(err.to_string().contains("unknown option `--hist`"), "{err}");
    }

    #[test]
    fn filter_with_no_matches_errors() {
        let csv = sample_csv("nomatch");
        let res = run_easyplot(["--input", csv.to_str().unwrap(), "--kernel", "nothing"]);
        assert!(res.is_err());
        std::fs::remove_file(csv).unwrap();
    }

    #[test]
    fn reference_time_uses_min_x_rows() {
        let csv = sample_csv("ref");
        let table = CsvTable::load(&csv).unwrap();
        let filtered = table.filter(|r| r.get("kernel") == Some("mandel"));
        assert_eq!(reference_time(&filtered, "threads").unwrap(), 1000.0);
        std::fs::remove_file(csv).unwrap();
    }

    #[test]
    fn unknown_option_errors() {
        assert!(run_easyplot(["--frobnicate"]).is_err());
    }
}
