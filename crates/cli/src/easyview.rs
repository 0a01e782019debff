//! The `easyview` command: post-mortem trace exploration (§II-D).
//!
//! ```text
//! easyview trace.ezv                        # Gantt chart, all iterations
//! easyview trace.ezv --iter 7:9             # restrict the range
//! easyview trace.ezv --cpu 3                # coverage map of CPU 3
//! easyview trace.ezv --at 1234567           # tasks crossing a timestamp
//! easyview a.ezv --compare b.ezv            # two-trace comparison
//! easyview trace.ezv --svg gantt.svg        # export the Gantt as SVG
//! easyview explain trace.ezv                # causal profile + advice
//! ```

use ezp_core::error::{Error, Result};
use ezp_core::params::Grammar::{Custom, Int, Text};
use ezp_core::params::{fit, int_in, parse, Command, Flag};
use ezp_view::{CoverageMap, GanttModel, TraceComparison};
use std::fmt::Write as _;

/// Columns of the ASCII Gantt chart.
const GANTT_COLUMNS: usize = 100;

/// Parsed `easyview` options; the bare words (`explain`, the trace) are
/// what [`parse`] hands back.
#[derive(Default)]
pub(crate) struct ViewArgs {
    iter_range: Option<(u32, u32)>,
    cpu: Option<usize>,
    at: Option<u64>,
    compare: Option<String>,
    svg: Option<String>,
    /// `--highlight out.ppm`: render the tiles under the mouse (at
    /// `--at T`, or mid-span) over a thumbnail, like Fig. 7's right pane.
    highlight: Option<String>,
}

/// The `easyview` flag table. `--iter` and `--cpu` are held to the
/// loaded trace's own ranges once it is read.
#[rustfmt::skip]
pub(crate) static EASYVIEW: Command<ViewArgs> = Command {
    name: "easyview",
    positionals: 2,
    modes: &[],
    flags: &[
        Flag::new(&["--iter"], Custom("1:3", |a, s| {
            let (lo, hi) = s.split_once(':').ok_or_else(|| Error::Config(format!("--iter wants lo:hi, got `{s}`")))?;
            let bound = |n| int_in("--iter", n, 0, u32::MAX as u64).map(fit);
            a.iter_range = Some((bound(lo)?, bound(hi)?));
            Ok(())
        })),
        Flag::new(&["--cpu"], Int(0, 65535, |a, n| a.cpu = Some(fit(n)))),
        Flag::new(&["--at"], Int(0, u64::MAX, |a, n| a.at = Some(n))),
        Flag::new(&["--compare"], Text(|a, s| a.compare = Some(s.to_string()))),
        Flag::new(&["--svg"], Text(|a, s| a.svg = Some(s.to_string()))),
        Flag::new(&["--highlight"], Text(|a, s| a.highlight = Some(s.to_string()))),
    ],
};

/// Runs `easyview` and returns the console output.
pub fn run_easyview<I, S>(args: I) -> Result<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut opts = ViewArgs::default();
    let words = parse(&EASYVIEW, args, &mut opts)?;
    // `easyview explain <trace>`: causal-profiling report instead of
    // the Gantt chart
    let (explain, trace_path) = match words.as_slice() {
        [verb, path] if verb == "explain" => (true, path),
        [path] if path != "explain" => (false, path),
        [_, extra] => return Err(EASYVIEW.unknown(extra)),
        _ => return Err(Error::Config("usage: easyview [explain] <trace.ezv> [options]".into())),
    };
    let trace = ezp_trace::io::load(trace_path)?;
    let first = trace.iterations.first().map_or(1, |s| s.iteration);
    let last = trace.iterations.last().map_or(1, |s| s.iteration);
    let (lo, hi) = match opts.iter_range {
        None => (first, last),
        Some((lo, hi)) if first <= lo && lo <= hi && hi <= last => (lo, hi),
        Some((lo, hi)) => {
            return Err(Error::Config(format!(
                "`--iter {lo}:{hi}`: want lo <= hi, both among the trace's iterations {first}..={last}"
            )))
        }
    };
    if let Some(cpu) = opts.cpu {
        int_in("--cpu", &cpu.to_string(), 0, trace.meta.threads.saturating_sub(1) as u64)?;
    }
    let mut out = String::new();
    writeln!(
        out,
        "trace: {} ({} iterations, {} tasks, {} CPUs, schedule {})",
        trace.meta.label,
        trace.iteration_count(),
        trace.tasks.len(),
        trace.meta.threads,
        trace.meta.schedule
    )
    .unwrap();

    if explain {
        writeln!(out, "\n=== Explain (causal profile) ===").unwrap();
        out.push_str(&ezp_view::explain(&trace)?.render());
        return Ok(out);
    }

    if let Some(other_path) = &opts.compare {
        let other = ezp_trace::io::load(other_path)?;
        let cmp = TraceComparison::new(&trace, &other)?;
        writeln!(out, "\n=== Trace comparison ===").unwrap();
        writeln!(out, "{}", cmp.summary()).unwrap();
        for (it, base, opt) in cmp.per_iteration() {
            writeln!(
                out,
                "  iteration {it}: {} -> {} (x{:.2})",
                ezp_core::time::format_duration_ns(base),
                ezp_core::time::format_duration_ns(opt),
                base as f64 / opt.max(1) as f64
            )
            .unwrap();
        }
        let fast = cmp.tasks_faster_than(5.0);
        writeln!(out, "  {} tasks at least 5x faster", fast.len()).unwrap();
        return Ok(out);
    }

    let gantt = GanttModel::new(&trace, lo, hi);

    if opts.at.is_some() || opts.highlight.is_some() {
        let t = opts
            .at
            .unwrap_or_else(|| gantt.t0 + (gantt.t1.saturating_sub(gantt.t0)) / 2);
        writeln!(out, "\n=== Tasks crossing t={t} (vertical mouse mode) ===").unwrap();
        let crossing = gantt.tasks_at_time(t);
        for task in &crossing {
            writeln!(out, "  {}", GanttModel::bubble(task)).unwrap();
        }
        if let Some(path) = &opts.highlight {
            // Fig. 7's right pane: highlighted tiles over a thumbnail of
            // the computed surface (a neutral grid stands in for the
            // image, which the trace does not store)
            let grid = trace.meta.grid()?;
            let mut thumb = ezp_core::Img2D::filled(
                128,
                128,
                ezp_core::Rgba::new(60, 60, 60, 255),
            );
            let tiles: Vec<ezp_core::Tile> = crossing
                .iter()
                .map(|r| grid.tile_of_pixel(r.x.min(grid.width() - 1), r.y.min(grid.height() - 1)))
                .collect();
            ezp_render::highlight_tiles(&mut thumb, trace.meta.dim, &tiles, ezp_core::Rgba::YELLOW);
            std::fs::write(path, thumb.to_ppm())?;
            writeln!(out, "highlight thumbnail -> {path}").unwrap();
        }
        return Ok(out);
    }

    if let Some(cpu) = opts.cpu {
        writeln!(out, "\n=== Coverage map of CPU {cpu}, iterations {lo}..{hi} ===").unwrap();
        let cov = CoverageMap::new(&trace, cpu, lo, hi)?;
        out.push_str(&cov.to_ascii());
        writeln!(
            out,
            "covered {} tiles, locality {:.3}",
            cov.covered_tiles(),
            cov.locality()
        )
        .unwrap();
        return Ok(out);
    }

    writeln!(out, "\n=== Task statistics ===").unwrap();
    out.push_str(&ezp_view::stats::render(&trace));
    writeln!(out, "\n=== Gantt chart, iterations {lo}..{hi} ===").unwrap();
    out.push_str(&gantt.to_ascii(GANTT_COLUMNS));
    if let Some(svg_path) = &opts.svg {
        std::fs::write(svg_path, gantt.to_svg(1000.0, 24.0))?;
        writeln!(out, "SVG written to {svg_path}").unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_monitor::report::IterationSpan;
    use ezp_monitor::TileRecord;
    use ezp_trace::{Trace, TraceMeta};

    fn sample_trace_file(name: &str) -> std::path::PathBuf {
        let mk = |it: u32, x: usize, s: u64, e: u64, w: usize| TileRecord {
            iteration: it,
            x,
            y: 0,
            w: 16,
            h: 16,
            start_ns: s,
            end_ns: e,
            worker: w,
        };
        let trace = Trace {
            meta: TraceMeta {
                kernel: "mandel".into(),
                variant: "omp".into(),
                dim: 64,
                tile_size: 16,
                threads: 2,
                schedule: "dynamic".into(),
                label: format!("mandel/{name}"),
            },
            iterations: vec![
                IterationSpan {
                    iteration: 1,
                    start_ns: 0,
                    end_ns: 100,
                },
                IterationSpan {
                    iteration: 2,
                    start_ns: 100,
                    end_ns: 200,
                },
            ],
            tasks: vec![
                mk(1, 0, 0, 50, 0),
                mk(1, 16, 0, 80, 1),
                mk(2, 32, 100, 150, 0),
                mk(2, 48, 100, 190, 1),
            ],
            edges: Vec::new(),
            counters: None,
        };
        let path = std::env::temp_dir().join(format!(
            "ezp_view_cli_{}_{}_{name}.ezv",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").replace("::", "_")
        ));
        ezp_trace::io::save(&trace, &path).unwrap();
        path
    }

    #[test]
    fn gantt_output() {
        let path = sample_trace_file("gantt");
        let out = run_easyview([path.to_str().unwrap()]).unwrap();
        assert!(out.contains("Gantt chart, iterations 1..2"));
        assert!(out.contains("Task statistics"));
        assert!(out.contains("tasks: 4"));
        assert!(out.contains("CPU  0"));
        assert!(out.contains("CPU  1"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn iteration_range_and_at() {
        let path = sample_trace_file("at");
        let out =
            run_easyview([path.to_str().unwrap(), "--iter", "1:1", "--at", "25"]).unwrap();
        assert!(out.contains("Tasks crossing t=25"));
        assert!(out.contains("CPU 0"));
        assert!(out.contains("CPU 1"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn coverage_mode() {
        let path = sample_trace_file("cov");
        let out = run_easyview([path.to_str().unwrap(), "--cpu", "0"]).unwrap();
        assert!(out.contains("Coverage map of CPU 0"));
        assert!(out.contains("covered 2 tiles"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn compare_mode() {
        let a = sample_trace_file("cmp_a");
        let b = sample_trace_file("cmp_b");
        let out =
            run_easyview([a.to_str().unwrap(), "--compare", b.to_str().unwrap()]).unwrap();
        assert!(out.contains("Trace comparison"));
        assert!(out.contains("iteration 1"));
        std::fs::remove_file(a).unwrap();
        std::fs::remove_file(b).unwrap();
    }

    #[test]
    fn svg_export() {
        let path = sample_trace_file("svg");
        let svg_path = std::env::temp_dir().join(format!("ezp_view_{}.svg", std::process::id()));
        let out = run_easyview([
            path.to_str().unwrap(),
            "--svg",
            svg_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("SVG written"));
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(svg_path).unwrap();
    }

    #[test]
    fn highlight_mode_writes_thumbnail() {
        let path = sample_trace_file("hl");
        let thumb = std::env::temp_dir().join(format!("ezp_view_hl_{}.ppm", std::process::id()));
        let out = run_easyview([
            path.to_str().unwrap(),
            "--at",
            "25",
            "--highlight",
            thumb.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("highlight thumbnail"));
        let bytes = std::fs::read(&thumb).unwrap();
        assert!(bytes.starts_with(b"P6\n128 128\n"));
        // some pixels must be highlighted (yellow-ish, not all gray)
        assert!(bytes[15..].chunks(3).any(|c| c[0] > 200 && c[1] > 200 && c[2] < 100));
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(thumb).unwrap();
    }

    #[test]
    fn explain_mode_renders_causal_profile() {
        let path = sample_trace_file("explain");
        let out = run_easyview(["explain", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("Explain (causal profile)"), "{out}");
        assert!(out.contains("work T1"), "{out}");
        assert!(out.contains("span Tinf"), "{out}");
        assert!(out.contains("# advice:"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn errors() {
        assert!(run_easyview(Vec::<&str>::new()).is_err()); // no trace
        assert!(run_easyview(["/nonexistent.ezv"]).is_err());
        let path = sample_trace_file("err");
        assert!(run_easyview([path.to_str().unwrap(), "--iter", "abc"]).is_err());
        assert!(run_easyview([path.to_str().unwrap(), "--bogus"]).is_err());
        std::fs::remove_file(path).unwrap();
    }

    /// A selection the trace cannot satisfy used to print an empty
    /// chart and exit 0; each names the flag and what the trace holds.
    #[test]
    fn selections_outside_the_trace_are_configuration_errors() {
        let path = sample_trace_file("outside");
        let cases = [
            (["--iter", "2:1"], "iterations 1..=2"), // lo > hi
            (["--iter", "7:9"], "iterations 1..=2"), // past the last iteration
            (["--cpu", "99"], "0..=1"),              // the trace has 2 CPUs
        ];
        for (selection, range) in cases {
            let err = run_easyview([path.to_str().unwrap(), selection[0], selection[1]])
                .expect_err(selection[1])
                .to_string();
            assert!(err.starts_with("configuration error"), "{selection:?}: {err}");
            assert!(err.contains(selection[0]) && err.contains(range), "{selection:?}: {err}");
        }
        std::fs::remove_file(path).unwrap();
    }

    /// `Trace::validate` does not check where a task sits, so a trace
    /// with a task far below a 64-pixel image saves and loads. Every
    /// mode must answer it, skipping the tile no view can place.
    #[test]
    fn a_task_outside_the_image_is_skipped_by_every_mode() {
        let trace = Trace {
            meta: TraceMeta {
                kernel: "mandel".into(),
                variant: "omp".into(),
                dim: 64,
                tile_size: 16,
                threads: 1,
                schedule: "static".into(),
                label: "hostile".into(),
            },
            iterations: vec![IterationSpan { iteration: 1, start_ns: 0, end_ns: 10 }],
            tasks: vec![TileRecord {
                iteration: 1,
                x: 0,
                y: 1 << 20,
                w: 16,
                h: 16,
                start_ns: 0,
                end_ns: 10,
                worker: 0,
            }],
            edges: Vec::new(),
            counters: None,
        };
        let bytes = ezp_trace::io::to_bytes(&trace).unwrap();
        assert_eq!(ezp_trace::io::from_bytes(&bytes).unwrap(), trace);
        let path = std::env::temp_dir().join(format!("ezp_view_far_{}.ezv", std::process::id()));
        let thumb = path.with_extension("ppm");
        std::fs::write(&path, bytes).unwrap();
        let (p, t) = (path.to_str().unwrap(), thumb.to_str().unwrap());
        let modes: [&[&str]; 5] = [
            &[p],
            &[p, "--cpu", "0"],
            &[p, "--at", "5", "--highlight", t],
            &[p, "--compare", p],
            &["explain", p],
        ];
        let run = |argv: &&[&str]| run_easyview(*argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        let outs: Vec<String> = modes.iter().map(run).collect();
        assert!(outs[1].contains("covered 0 tiles"), "{}", outs[1]);
        assert!(outs[4].contains("n=1 ") && !outs[4].contains("tile #"), "{}", outs[4]);
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(thumb).unwrap();
    }

    #[test]
    fn retired_width_flag_is_an_unknown_option() {
        let err = run_easyview(["run.ezv", "--width", "80"]).unwrap_err();
        assert!(err.to_string().contains("unknown option `--width`"), "{err}");
    }
}
