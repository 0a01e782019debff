//! # ezp-exp — experiment automation (`expTools`, paper §II-C, Fig. 5)
//!
//! The paper's students write small Python scripts:
//!
//! ```python
//! easypap_options["--kernel "] = ["mandel"]
//! easypap_options["--variant "] = ["omp_tiled"]
//! easypap_options["--grain "]  = [16, 32]
//! omp_icv["OMP_NUM_THREADS="]  = list(range(2, 13, 2))
//! execute('easypap', omp_icv, easypap_options, runs=10)
//! ```
//!
//! [`Sweep`] is the Rust equivalent: declare option axes, take the
//! cartesian product, run every combination `runs` times through the
//! kernel registry (in-process — no fork needed), and append every
//! result to the shared CSV that `ezp-plot` consumes.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use ezp_core::csv::CsvTable;
use ezp_core::error::Result;
use ezp_core::kernel::NullProbe;
use ezp_core::perf::{run_kernel, RunOutcome, CSV_HEADER};
use ezp_core::{Registry, RunConfig};
use std::path::Path;
use std::sync::Arc;

/// A cartesian parameter sweep.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    /// Option axes in declaration order: `(flag, values)`.
    axes: Vec<(String, Vec<String>)>,
    /// Repetitions per combination (the Fig. 5 script uses `runs=10`).
    runs: usize,
}

impl Sweep {
    /// An empty sweep with one run per combination.
    pub fn new() -> Self {
        Sweep {
            axes: Vec::new(),
            runs: 1,
        }
    }

    /// Declares an option axis, e.g. `set("--grain", ["16", "32"])`.
    /// Declaring the same flag twice replaces the previous values.
    pub fn set<S: ToString>(mut self, flag: &str, values: impl IntoIterator<Item = S>) -> Self {
        let values: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
        assert!(!values.is_empty(), "an axis needs at least one value");
        if let Some(axis) = self.axes.iter_mut().find(|(f, _)| f == flag) {
            axis.1 = values;
        } else {
            self.axes.push((flag.to_string(), values));
        }
        self
    }

    /// Shorthand for a single-valued axis.
    pub fn fixed<S: ToString>(self, flag: &str, value: S) -> Self {
        self.set(flag, [value])
    }

    /// Number of repetitions per combination.
    pub fn runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "need at least one run");
        self.runs = runs;
        self
    }

    /// Number of distinct configurations (excluding repetitions).
    pub fn combinations(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Materializes every combination as an argument vector.
    pub fn arg_vectors(&self) -> Vec<Vec<String>> {
        let mut out = vec![Vec::new()];
        for (flag, values) in &self.axes {
            let mut next = Vec::with_capacity(out.len() * values.len());
            for prefix in &out {
                for v in values {
                    let mut args = prefix.clone();
                    args.push(flag.clone());
                    args.push(v.clone());
                    next.push(args);
                }
            }
            out = next;
        }
        out
    }

    /// Runs the sweep: every combination × `runs`, silently (performance
    /// mode), appending one CSV row per run to `csv_path` and returning
    /// all outcomes. Combinations whose configuration fails to validate
    /// return an error (nothing is silently skipped).
    pub fn execute(
        &self,
        registry: &Registry,
        csv_path: impl AsRef<Path>,
    ) -> Result<Vec<RunOutcome>> {
        let csv_path = csv_path.as_ref();
        let mut outcomes = Vec::with_capacity(self.combinations() * self.runs);
        for args in self.arg_vectors() {
            let cfg = RunConfig::parse_args(args.iter().map(String::as_str))?;
            for run in 0..self.runs {
                let (outcome, _ctx) = run_kernel(registry, cfg.clone(), Arc::new(NullProbe))?;
                outcome.append_csv(csv_path, run)?;
                outcomes.push(outcome);
            }
        }
        Ok(outcomes)
    }

    /// Loads the accumulated CSV back (convenience for plot pipelines).
    pub fn load_results(csv_path: impl AsRef<Path>) -> Result<CsvTable> {
        CsvTable::load(csv_path)
    }
}

/// The canonical CSV header the sweep produces (re-exported for
/// consumers that want to build tables by hand).
pub fn csv_header() -> &'static [&'static str] {
    &CSV_HEADER
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::error::Result as EzpResult;
    use ezp_core::{Kernel, KernelCtx};

    /// A fast kernel for sweep tests.
    struct Noop;

    impl Kernel for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn variants(&self) -> Vec<&'static str> {
            vec!["seq", "par"]
        }
        fn init(&mut self, _ctx: &mut KernelCtx) -> EzpResult<()> {
            Ok(())
        }
        fn compute(&mut self, _ctx: &mut KernelCtx, _v: &str, _n: u32) -> EzpResult<Option<u32>> {
            Ok(None)
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register("noop", || Box::new(Noop));
        r
    }

    fn tmp_csv(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("ezp_exp_{}_{}.csv", name, std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn cartesian_product_counts() {
        let sweep = Sweep::new()
            .fixed("--kernel", "noop")
            .set("--grain", [16, 32])
            .set("--threads", [1, 2, 3]);
        assert_eq!(sweep.combinations(), 6);
        assert_eq!(sweep.arg_vectors().len(), 6);
        // order: last axis varies fastest
        let first = &sweep.arg_vectors()[0];
        assert_eq!(first, &vec!["--kernel", "noop", "--grain", "16", "--threads", "1"]);
    }

    #[test]
    fn setting_same_flag_replaces() {
        let sweep = Sweep::new().set("--grain", [16]).set("--grain", [32, 64]);
        assert_eq!(sweep.combinations(), 2);
    }

    #[test]
    fn execute_appends_one_row_per_run() {
        let csv = tmp_csv("rows");
        let sweep = Sweep::new()
            .fixed("--kernel", "noop")
            .fixed("--size", 64)
            .fixed("--tile-size", 16)
            .set("--variant", ["seq", "par"])
            .set("--threads", [1, 2])
            .runs(3);
        let outcomes = sweep.execute(&registry(), &csv).unwrap();
        assert_eq!(outcomes.len(), 2 * 2 * 3);
        let table = CsvTable::load(&csv).unwrap();
        assert_eq!(table.len(), 12);
        assert_eq!(table.header, csv_header());
        // runs column cycles 0,1,2
        assert_eq!(table.row(0).get("run"), Some("0"));
        assert_eq!(table.row(2).get("run"), Some("2"));
        std::fs::remove_file(&csv).unwrap();
    }

    #[test]
    fn sweep_feeds_plot_pipeline() {
        let csv = tmp_csv("plot");
        Sweep::new()
            .fixed("--kernel", "noop")
            .fixed("--size", 64)
            .fixed("--tile-size", 16)
            .set("--threads", [1, 2, 4])
            .set("--schedule", ["static", "dynamic,2"])
            .runs(2)
            .execute(&registry(), &csv)
            .unwrap();
        let table = Sweep::load_results(&csv).unwrap();
        let data =
            ezp_plot_check(&table).expect("plot pipeline must accept sweep output");
        assert_eq!(data, 2); // two legend series: the two schedules
        std::fs::remove_file(&csv).unwrap();
    }

    // minimal inline check to avoid a circular dev-dependency on ezp-plot:
    // count distinct schedule values that would become legend entries
    fn ezp_plot_check(table: &CsvTable) -> Option<usize> {
        let mut schedules: Vec<&str> = table.column("schedule")?;
        schedules.sort_unstable();
        schedules.dedup();
        Some(schedules.len())
    }

    #[test]
    fn invalid_configuration_fails_loudly() {
        let csv = tmp_csv("bad");
        let sweep = Sweep::new().fixed("--kernel", "noop").fixed("--tile-size", 0);
        assert!(sweep.execute(&registry(), &csv).is_err());
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_axis_rejected() {
        drop(Sweep::new().set("--grain", Vec::<String>::new()));
    }
}
