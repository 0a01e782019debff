//! Performance mode: run a kernel to completion, time it, report it.
//!
//! This is §II-C of the paper: with `--no-display` EASYPAP "runs silently
//! and reports the overall wall clock time after completion of the
//! requested number of iterations", prints
//! `50 iterations completed in 579 ms`, and appends the completion time
//! together with all execution/configuration parameters to a CSV file
//! that `easyplot` consumes.

use crate::csv::CsvTable;
use crate::error::Result;
use crate::kernel::{KernelCtx, Probe};
use crate::params::RunConfig;
use crate::registry::Registry;
use crate::time::Stopwatch;
use std::path::Path;
use std::sync::Arc;

/// The CSV schema of performance records. Matches the parameters shown in
/// the caption of the paper's Fig. 6 (`machine=... dim=... kernel=...
/// variant=... iterations=...` plus the swept ones).
pub const CSV_HEADER: [&str; 10] = [
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
];

/// Outcome of one timed kernel run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The configuration that produced this outcome.
    pub cfg: RunConfig,
    /// Total wall-clock time in nanoseconds.
    pub elapsed_ns: u64,
    /// Iterations actually executed (may be less than requested when the
    /// kernel reports a steady state).
    pub completed_iterations: u32,
    /// `Some(it)` when the kernel converged at iteration `it`.
    pub converged_at: Option<u32>,
}

impl RunOutcome {
    /// Wall-clock time in microseconds (the CSV unit; the paper's
    /// `refTime=669009` is µs).
    pub fn time_us(&self) -> u64 {
        self.elapsed_ns / 1_000
    }

    /// The console line of the performance mode:
    /// `50 iterations completed in 579 ms`.
    pub fn summary(&self) -> String {
        format!(
            "{} iterations completed in {} ms",
            self.completed_iterations,
            self.elapsed_ns / 1_000_000
        )
    }

    /// This outcome as a CSV row under [`CSV_HEADER`]. `run` numbers
    /// repeated identical configurations (0-based).
    pub fn csv_row(&self, run: usize) -> Vec<String> {
        vec![
            machine_name(),
            self.cfg.kernel.clone(),
            self.cfg.variant.clone(),
            self.cfg.dim.to_string(),
            self.cfg.tile_size.to_string(),
            self.cfg.threads.to_string(),
            self.cfg.schedule.as_omp_str(),
            self.cfg.iterations.to_string(),
            self.time_us().to_string(),
            run.to_string(),
        ]
    }

    /// Appends this outcome to `path`, creating the file (with header) on
    /// first use.
    pub fn append_csv(&self, path: impl AsRef<Path>, run: usize) -> Result<()> {
        CsvTable::append_row_to_file(path, &CSV_HEADER, &self.csv_row(run))
    }
}

/// The machine identifier stored in the CSV `machine` column.
pub fn machine_name() -> String {
    std::env::var("EZP_MACHINE")
        .or_else(|_| std::env::var("HOSTNAME"))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Runs one kernel variant to completion under `cfg` and measures it.
///
/// This is EASYPAP's hidden main loop: instantiate the kernel, `init` it,
/// hand the whole iteration budget to the variant, stop the clock, then
/// refresh the image once so callers can inspect/dump the final frame.
/// Returns the outcome together with the final context (for image
/// inspection) — callers that only want numbers can drop it.
pub fn run_kernel(
    registry: &Registry,
    cfg: RunConfig,
    probe: Arc<dyn Probe>,
) -> Result<(RunOutcome, KernelCtx)> {
    run_kernel_boxed(registry, cfg, probe).map(|(outcome, ctx, _)| (outcome, ctx))
}

/// [`run_kernel`], additionally returning the kernel instance so callers
/// can query post-run state (e.g. [`crate::Kernel::stats_counters`]).
pub fn run_kernel_boxed(
    registry: &Registry,
    cfg: RunConfig,
    probe: Arc<dyn Probe>,
) -> Result<(RunOutcome, KernelCtx, Box<dyn crate::Kernel>)> {
    cfg.validate()?;
    let mut kernel = registry.create_variant(&cfg.kernel, &cfg.variant)?;
    let iterations = cfg.iterations;
    let variant = cfg.variant.clone();
    let mut ctx = KernelCtx::new(cfg.clone())?.with_probe(probe);
    kernel.init(&mut ctx)?;
    crate::time::init_clock();
    let sw = Stopwatch::start();
    let converged_at = kernel.compute(&mut ctx, &variant, iterations)?;
    let elapsed_ns = sw.elapsed_ns();
    kernel.refresh_image(&mut ctx)?;
    let completed_iterations = converged_at.unwrap_or(iterations);
    Ok((
        RunOutcome {
            cfg,
            elapsed_ns,
            completed_iterations,
            converged_at,
        },
        ctx,
        kernel,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Result as EzpResult;
    use crate::kernel::{Kernel, NullProbe};
    use crate::Rgba;

    /// A kernel that paints each pixel with the iteration count.
    struct Painter;

    impl Kernel for Painter {
        fn name(&self) -> &'static str {
            "painter"
        }
        fn variants(&self) -> Vec<&'static str> {
            vec!["seq", "half"]
        }
        fn init(&mut self, ctx: &mut KernelCtx) -> EzpResult<()> {
            ctx.images.cur_mut().fill(Rgba::BLACK);
            Ok(())
        }
        fn compute(
            &mut self,
            ctx: &mut KernelCtx,
            variant: &str,
            nb_iter: u32,
        ) -> EzpResult<Option<u32>> {
            let stop = if variant == "half" { nb_iter / 2 } else { nb_iter };
            for it in 1..=stop {
                ctx.probe.iteration_start(it);
                ctx.images.cur_mut().fill(Rgba(it));
                ctx.probe.iteration_end(it);
            }
            Ok(if stop < nb_iter { Some(stop) } else { None })
        }
    }

    fn reg() -> Registry {
        let mut r = Registry::new();
        r.register("painter", || Box::new(Painter));
        r
    }

    #[test]
    fn run_reports_iterations_and_time() {
        let cfg = RunConfig::new("painter").size(16).tile(8).iterations(10);
        let (out, ctx) = run_kernel(&reg(), cfg, Arc::new(NullProbe)).unwrap();
        assert_eq!(out.completed_iterations, 10);
        assert!(out.converged_at.is_none());
        assert_eq!(ctx.images.cur().get(0, 0), Rgba(10));
        let s = out.summary();
        assert!(s.starts_with("10 iterations completed in"));
        assert!(s.ends_with("ms"));
    }

    #[test]
    fn early_convergence_is_reported() {
        let cfg = RunConfig::new("painter")
            .variant("half")
            .size(16)
            .tile(8)
            .iterations(10);
        let (out, _) = run_kernel(&reg(), cfg, Arc::new(NullProbe)).unwrap();
        assert_eq!(out.converged_at, Some(5));
        assert_eq!(out.completed_iterations, 5);
    }

    #[test]
    fn unknown_variant_fails_before_running() {
        let cfg = RunConfig::new("painter").variant("gpu").size(16).tile(8);
        assert!(run_kernel(&reg(), cfg, Arc::new(NullProbe)).is_err());
    }

    #[test]
    fn csv_row_matches_header() {
        let cfg = RunConfig::new("painter").size(16).tile(8).iterations(3);
        let (out, _) = run_kernel(&reg(), cfg, Arc::new(NullProbe)).unwrap();
        let row = out.csv_row(2);
        assert_eq!(row.len(), CSV_HEADER.len());
        assert_eq!(row[1], "painter");
        assert_eq!(row[7], "3");
        assert_eq!(row[9], "2");
        assert_eq!(row[8], out.time_us().to_string());
    }

    #[test]
    fn csv_append_accumulates_runs() {
        let dir = std::env::temp_dir().join(format!("ezp_perf_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf.csv");
        std::fs::remove_file(&path).ok();
        let cfg = RunConfig::new("painter").size(16).tile(8).iterations(2);
        for run in 0..3 {
            let (out, _) = run_kernel(&reg(), cfg.clone(), Arc::new(NullProbe)).unwrap();
            out.append_csv(&path, run).unwrap();
        }
        let table = CsvTable::load(&path).unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table.column("run").unwrap(), vec!["0", "1", "2"]);
        std::fs::remove_file(&path).unwrap();
    }
}
