//! Output checks: what the programs printed and wrote against an
//! in-process `seq` reference of the same arguments.

use crate::workloads::{Cmd, Expect};
use ezp_core::csv::CsvTable;
use ezp_core::kernel::NullProbe;
use ezp_core::perf::{run_kernel, CSV_HEADER};
use ezp_core::{Rgba, RunConfig};
use ezp_serve::proto::fnv1a;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// FNV-1a over the frame's pixel words in little-endian byte order —
/// the digest `ezp-serve` puts in its `done` frames.
pub fn digest(pixels: &[Rgba]) -> u64 {
    let bytes: Vec<u8> = pixels.iter().flat_map(|p| p.0.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// What the in-process run of a command's arguments produced.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Iterations the run completed (fewer than requested when the
    /// kernel converges early), which the child must print too.
    pub iterations: u32,
    /// Digest of the final image, identical for the `seq` variant.
    pub digest: u64,
    /// The final frame as the PPM the CLI dumps in display modes.
    pub ppm: Vec<u8>,
}

/// Runs `args` in process through `ezp_core::perf::run_kernel`, once as
/// given and once with `--variant seq`, and requires both to produce
/// the same image and iteration count.
pub fn reference(args: &[String]) -> Result<Reference, String> {
    let cfg = RunConfig::parse_args(args.iter().map(String::as_str)).map_err(|e| e.to_string())?;
    let reg = ezp_kernels::registry();
    let run = |cfg: RunConfig| -> Result<Reference, String> {
        let what = format!("{} {}", cfg.kernel, cfg.variant);
        let (outcome, ctx) = run_kernel(&reg, cfg, Arc::new(NullProbe))
            .map_err(|e| format!("in-process {what}: {e}"))?;
        Ok(Reference {
            iterations: outcome.completed_iterations,
            digest: digest(ctx.images.cur().as_slice()),
            ppm: ctx.images.cur().to_ppm(),
        })
    };
    let seq = run(cfg.clone().variant("seq"))?;
    let own = run(cfg.clone())?;
    if (own.digest, own.iterations) != (seq.digest, seq.iterations) {
        return Err(format!(
            "{} {}: digest {:016x} after {} iterations, seq gives {:016x} after {}",
            cfg.kernel, cfg.variant, own.digest, own.iterations, seq.digest, seq.iterations
        ));
    }
    Ok(own)
}

/// The digest a `done` frame for `spec` must carry: that of the
/// in-process `seq` run of the same spec, formatted as the daemon does.
pub fn job_digest(spec: &ezp_serve::JobSpec) -> Result<String, String> {
    let cfg = RunConfig::new(&spec.kernel)
        .variant("seq")
        .size(spec.size)
        .tile(spec.tile)
        .iterations(spec.iterations)
        .threads(1);
    let (_, ctx) = run_kernel(&ezp_kernels::registry(), cfg, Arc::new(NullProbe))
        .map_err(|e| format!("in-process job reference: {e}"))?;
    Ok(format!("{:016x}", digest(ctx.images.cur().as_slice())))
}

/// `run_tuned` of the streaming kernel `args` name must emit frames
/// byte-identical to `run_seq` (checked on `frames` frames).
pub fn stream_reference(args: &[String], frames: usize) -> Result<(), String> {
    let cfg = RunConfig::parse_args(args.iter().map(String::as_str)).map_err(|e| e.to_string())?;
    let kernel = ezp_stream::stream_kernel(&cfg.kernel)
        .ok_or_else(|| format!("no streaming kernel `{}`", cfg.kernel))?;
    let mut pool = ezp_sched::acquire_pool(cfg.threads);
    let (tuned, stats) = kernel
        .run_tuned(
            cfg.dim,
            frames,
            cfg.stream_mode,
            cfg.threads,
            cfg.chan_tuning(),
            &mut pool,
            &NullProbe,
        )
        .map_err(|e| e.to_string())?;
    if stats.frames != frames || tuned != kernel.run_seq(cfg.dim, frames) {
        return Err(format!(
            "{} run_tuned differs from run_seq over {frames} frames",
            cfg.kernel
        ));
    }
    Ok(())
}

/// The count and the integer-millisecond figure of the line the
/// program prints about itself: `50 iterations completed in 579 ms` or
/// `150000 frames streamed (...) in 741 ms`.
pub fn parse_reported(stdout: &str, marker: &str) -> Option<(u64, u64)> {
    let line = stdout.lines().find(|l| l.contains(marker))?;
    let count = line.split_whitespace().next()?.parse().ok()?;
    let ms = line.strip_suffix(" ms")?.rsplit(' ').next()?.parse().ok()?;
    Some((count, ms))
}

/// Sum of the per-iteration `duration_ns` of a `--stats=json` report,
/// in ms, and how many iterations it lists. It is the printed
/// `completed in X ms` (the two agreed within 1 ms at sizing) at a
/// resolution that does not round a 40 ms run to a whole number.
pub fn report_iterations_ms(stdout: &str) -> (u64, f64) {
    const KEY: &str = "\"duration_ns\":";
    let mut count = 0;
    let mut ns = 0u64;
    for (at, _) in stdout.match_indices(KEY) {
        let digits = stdout[at + KEY.len()..].trim_start();
        let end = digits
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(digits.len());
        if let Ok(v) = digits[..end].parse::<u64>() {
            count += 1;
            ns += v;
        }
    }
    (count, ns as f64 / 1e6)
}

/// Checks one finished child against its expectation. Returns the
/// figure the program reported about itself, in ms, when it prints one.
pub fn check_output(
    cmd: &Cmd,
    reference: Option<&Reference>,
    success: bool,
    stdout: &str,
) -> Result<Option<f64>, String> {
    if !success {
        return Err(format!("{:?} exited non-zero", cmd.args));
    }
    match cmd.expect {
        Expect::Iterations => {
            let want = reference.map(|r| u64::from(r.iterations));
            let has_report = cmd.args.iter().any(|a| a == "--stats=json");
            match parse_reported(stdout, " iterations completed in ") {
                Some((n, _)) if Some(n) == want && has_report => {
                    match report_iterations_ms(stdout) {
                        (listed, ms) if listed == n => Ok(Some(ms)),
                        (listed, _) => Err(format!(
                            "{:?}: the stats report lists {listed} of {n} iterations",
                            cmd.args
                        )),
                    }
                }
                Some((n, ms)) if Some(n) == want => Ok(Some(ms as f64)),
                got => Err(format!(
                    "{:?}: wanted {want:?} iterations, printed {got:?}",
                    cmd.args
                )),
            }
        }
        Expect::Frames(frames) => match parse_reported(stdout, " frames streamed ") {
            Some((n, ms)) if n == frames as u64 => Ok(Some(ms as f64)),
            got => Err(format!(
                "{:?}: wanted {frames} frames, printed {got:?}",
                cmd.args
            )),
        },
        Expect::Explain => {
            if stdout.contains("# advice:") {
                Ok(None)
            } else {
                Err("easyview explain printed no advice section".to_string())
            }
        }
    }
}

/// Incremental reader of the `easypap.csv` a workload directory
/// accumulates: each call returns the `time_us` of the rows appended
/// since the previous one, so per-operation reads stay O(new rows).
pub struct CsvTail {
    path: PathBuf,
    offset: u64,
    /// Rows seen so far.
    pub rows: usize,
}

impl CsvTail {
    /// A reader positioned before the header of `dir/easypap.csv`.
    pub fn new(dir: &Path) -> CsvTail {
        CsvTail {
            path: dir.join("easypap.csv"),
            offset: 0,
            rows: 0,
        }
    }

    /// `time_us` of every row appended since the last call.
    pub fn new_rows_us(&mut self) -> Result<Vec<u64>, String> {
        let err = |e: std::io::Error| format!("{}: {e}", self.path.display());
        let mut file = std::fs::File::open(&self.path).map_err(err)?;
        file.seek(SeekFrom::Start(self.offset)).map_err(err)?;
        let mut text = String::new();
        file.read_to_string(&mut text).map_err(err)?;
        let first = self.offset == 0;
        self.offset += text.len() as u64;
        let header = CSV_HEADER.join(",");
        let table = if first {
            if text.lines().next() != Some(header.as_str()) {
                return Err(format!(
                    "{} does not start with the perf-mode header",
                    self.path.display()
                ));
            }
            CsvTable::parse(&text)
        } else {
            CsvTable::parse(&format!("{header}\n{text}"))
        }
        .map_err(|e| format!("{}: {e}", self.path.display()))?;
        let col = table
            .column("time_us")
            .ok_or("easypap.csv has no time_us column")?;
        self.rows += col.len();
        col.iter()
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("time_us `{v}` is not a number"))
            })
            .collect()
    }
}

/// The trace a monitored run saved must hold one task per tile per
/// iteration and survive a decode/encode round trip byte for byte.
pub fn check_trace(path: &Path, tiles: usize, iterations: u32) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let trace = ezp_trace::io::from_bytes(&bytes).map_err(|e| format!("decode trace: {e}"))?;
    let want = tiles * iterations as usize;
    if trace.tasks.len() != want || trace.iteration_count() != iterations as usize {
        return Err(format!(
            "trace holds {} tasks over {} iterations, wanted {want} over {iterations}",
            trace.tasks.len(),
            trace.iteration_count()
        ));
    }
    let again = ezp_trace::io::to_bytes(&trace).map_err(|e| format!("re-encode trace: {e}"))?;
    if again != bytes {
        return Err("trace does not re-encode to the bytes it was decoded from".to_string());
    }
    Ok(())
}

/// The daemon's shutdown summary must balance:
/// `served A job(s) (C completed, X cancelled, F failed), R rejected`
/// with `A == C + X + F` and `F == R == 0`. Returns `A`.
pub fn check_daemon_summary(summary: &str) -> Result<u64, String> {
    let line = summary
        .lines()
        .find(|l| l.starts_with("served "))
        .ok_or("no `served` line")?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    let [admitted, completed, cancelled, failed, rejected] = nums[..] else {
        return Err(format!("cannot read the totals out of `{line}`"));
    };
    if admitted != completed + cancelled + failed || failed != 0 || rejected != 0 {
        return Err(format!("daemon accounting does not balance: `{line}`"));
    }
    Ok(admitted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_lines_parse() {
        let out = "50 iterations completed in 579 ms\nresult appended to easypap.csv\n";
        assert_eq!(
            parse_reported(out, " iterations completed in "),
            Some((50, 579))
        );
        let out =
            "150000 frames streamed (153600000 bytes, ordered emission, farm width 2) in 741 ms\n";
        assert_eq!(
            parse_reported(out, " frames streamed "),
            Some((150000, 741))
        );
        assert_eq!(parse_reported("nothing here", " frames streamed "), None);
        assert_eq!(
            report_iterations_ms(
                r#"{"iterations":[{"iteration":1,"duration_ns":1500000},{"iteration":2,"duration_ns": 250000}]}"#
            ),
            (2, 1.75)
        );
        assert_eq!(
            report_iterations_ms("2 iterations completed in 1 ms"),
            (0, 0.0)
        );
    }

    #[test]
    fn daemon_summary_must_balance() {
        let ok = "served 60006 job(s) (60006 completed, 0 cancelled, 0 failed), 0 rejected\npool leases: 3\n";
        assert_eq!(check_daemon_summary(ok), Ok(60006));
        let lost = "served 10 job(s) (8 completed, 1 cancelled, 0 failed), 0 rejected\n";
        assert!(check_daemon_summary(lost).is_err());
        let rejected = "served 10 job(s) (10 completed, 0 cancelled, 0 failed), 2 rejected\n";
        assert!(check_daemon_summary(rejected).is_err());
        assert!(check_daemon_summary("garbage").is_err());
    }

    #[test]
    fn variants_agree_with_seq_in_process() {
        let args: Vec<String> = "--kernel mandel --variant omp_tiled --size 64 --tile-size 16 \
                                 --iterations 2 --threads 2 --no-display"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let r = reference(&args).unwrap();
        assert_eq!(r.iterations, 2);
        assert!(r.ppm.starts_with(b"P6\n64 64\n255\n"));
    }

    #[test]
    fn csv_tail_reads_only_new_rows() {
        let dir = crate::child::TempDir::new(&std::env::temp_dir(), "ezp-bench-csv").unwrap();
        let path = dir.path().join("easypap.csv");
        let row = |us: u64| -> Vec<String> {
            let mut r: Vec<String> = vec!["m", "k", "v", "64", "16", "2", "dynamic,2", "2"]
                .into_iter()
                .map(str::to_string)
                .collect();
            r.extend([us.to_string(), "0".to_string()]);
            r
        };
        let mut tail = CsvTail::new(dir.path());
        CsvTable::append_row_to_file(&path, &CSV_HEADER, &row(11)).unwrap();
        CsvTable::append_row_to_file(&path, &CSV_HEADER, &row(22)).unwrap();
        assert_eq!(tail.new_rows_us().unwrap(), [11, 22]);
        CsvTable::append_row_to_file(&path, &CSV_HEADER, &row(33)).unwrap();
        assert_eq!(tail.new_rows_us().unwrap(), [33]);
        assert_eq!(tail.new_rows_us().unwrap(), Vec::<u64>::new());
        assert_eq!(tail.rows, 3);
    }
}
