//! Results: the JSON one run prints, the `results.json` of a full set,
//! the `BENCHMARK.json` name/schema self-check, and `compare`.

use crate::child::Bins;
use crate::e2e::{self, E2e, RunArgs, E2E_METRICS};
use crate::layers::LAYER_METRICS;
use crate::procfs;
use crate::traced;
use crate::workloads::WORKLOADS;
use ezp_core::json::{Json, ToJson};
use std::collections::BTreeSet;
use std::path::Path;

/// One measured run of one workload, either pass.
#[derive(Debug, Default)]
pub struct RunResult {
    /// `(metric, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Failed checks outside the counted operations.
    pub problems: Vec<String>,
    /// Context for the reader, printed to stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Wraps the untraced pass.
    pub fn from_e2e(e: E2e) -> RunResult {
        RunResult {
            metrics: e
                .metrics
                .iter()
                .map(|&(n, v, u)| (n.to_string(), v, u.to_string()))
                .collect(),
            attempted: e.attempted,
            failed: e.failed,
            problems: e.problems,
            notes: e.notes,
        }
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Writes problems and notes to stderr.
    pub fn print_notes(&self) {
        for p in &self.problems {
            eprintln!("FAILED CHECK: {p}");
        }
        for n in &self.notes {
            eprintln!("note: {n}");
        }
    }

    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Float(*value)), ("unit", unit.to_json())]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The parts of `BENCHMARK.json` the tools read.
pub struct Spec {
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    /// `(name, unit, lower_is_better, bound)`.
    pub end_to_end: Vec<(String, String, bool, f64)>,
    /// `(name, unit, lower_is_better)`.
    pub per_layer: Vec<(String, String, bool)>,
}

impl Spec {
    /// Reads and validates `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<&[Json], String> {
            j.get(key)
                .ok_or(format!("BENCHMARK.json has no `{key}`"))?
                .as_arr()
                .map_err(|e| e.to_string())
        };
        let s = |v: &Json, key: &str| v.field::<String>(key).map_err(|e| e.to_string());
        let lower = |v: &Json| -> Result<bool, String> {
            match s(v, "better")?.as_str() {
                "lower" => Ok(true),
                "higher" => Ok(false),
                other => Err(format!("`better` is `{other}`, not lower or higher")),
            }
        };
        let spec = Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((s(w, "name")?, s(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| {
                    let bound = m.field::<f64>("bound").map_err(|e| e.to_string())?;
                    Ok((s(m, "name")?, s(m, "unit")?, lower(m)?, bound))
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| Ok((s(m, "name")?, s(m, "unit")?, lower(m)?)))
                .collect::<Result<_, String>>()?,
        };
        spec.check_limits()?;
        spec.check_tables()?;
        Ok(spec)
    }

    /// Names match `[A-Za-z0-9_.-]+`, are unique, and the counts stay
    /// within 8 workloads / 16 end-to-end / 128 per-layer metrics.
    fn check_limits(&self) -> Result<(), String> {
        let names = self
            .workloads
            .iter()
            .map(|w| &w.0)
            .chain(self.end_to_end.iter().map(|m| &m.0))
            .chain(self.per_layer.iter().map(|m| &m.0));
        let mut seen = BTreeSet::new();
        for n in names {
            let ok = !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !ok {
                return Err(format!(
                    "name `{n}` does not match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
                ));
            }
            if !seen.insert(n) {
                return Err(format!("name `{n}` is used twice"));
            }
        }
        let counts = [
            ("workloads", self.workloads.len(), 2, 8),
            ("end_to_end", self.end_to_end.len(), 1, 16),
            ("per_layer", self.per_layer.len(), 1, 128),
        ];
        for (what, n, lo, hi) in counts {
            if !(lo..=hi).contains(&n) {
                return Err(format!("{n} {what} entries, allowed {lo}..={hi}"));
            }
        }
        if !self
            .end_to_end
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2)
        {
            return Err("end_to_end lacks `setup_s` in s, lower is better".to_string());
        }
        if let Some(m) = self.end_to_end.iter().find(|m| !(m.3 > 0.0 && m.3 <= 0.25)) {
            return Err(format!("bound of `{}` is outside (0, 0.25]", m.0));
        }
        Ok(())
    }

    /// `BENCHMARK.json` says what the source tables say: the gated
    /// workloads with the same `why`, the same metrics with the same
    /// unit and direction — and every per-layer metric names its layer
    /// and the `metric@workload` it should move (those two live in the
    /// source table only; `BENCHMARK.json` has no key for them).
    fn check_tables(&self) -> Result<(), String> {
        let want: Vec<_> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        if self.workloads != want {
            return Err(
                "BENCHMARK.json workloads differ from the gated ones of benchmark/src/workloads.rs"
                    .to_string(),
            );
        }
        let e2e: Vec<_> = self
            .end_to_end
            .iter()
            .map(|m| (m.0.as_str(), m.1.as_str(), m.2))
            .collect();
        let want: Vec<_> = E2E_METRICS
            .iter()
            .map(|&(n, u, b)| (n, u, b == "lower"))
            .collect();
        if e2e != want {
            return Err("BENCHMARK.json end_to_end differs from benchmark/src/e2e.rs".to_string());
        }
        let layers: Vec<_> = self
            .per_layer
            .iter()
            .map(|m| (m.0.as_str(), m.1.as_str(), m.2))
            .collect();
        let want: Vec<_> = LAYER_METRICS
            .iter()
            .map(|d| (d.name, d.unit, d.better == "lower"))
            .collect();
        if layers != want {
            return Err(
                "BENCHMARK.json per_layer differs from benchmark/src/layers.rs".to_string(),
            );
        }
        match LAYER_METRICS
            .iter()
            .find(|d| d.layer.is_empty() || d.moves.is_empty())
        {
            Some(d) => Err(format!(
                "per-layer metric `{}` names no layer or nothing it moves",
                d.name
            )),
            None => Ok(()),
        }
    }

    /// Every name the spec lists is emitted by the run of its pass and
    /// vice versa, with the unit the spec states.
    pub fn check_emitted(&self, pass: &str, got: &RunResult) -> Result<(), String> {
        let listed: Vec<(&str, &str)> = match pass {
            "end_to_end" => self
                .end_to_end
                .iter()
                .map(|m| (m.0.as_str(), m.1.as_str()))
                .collect(),
            _ => self
                .per_layer
                .iter()
                .map(|m| (m.0.as_str(), m.1.as_str()))
                .collect(),
        };
        for (name, unit) in &listed {
            match got.metrics.iter().find(|m| m.0 == *name) {
                None => {
                    return Err(format!(
                        "{pass} metric `{name}` is in BENCHMARK.json but was not emitted"
                    ))
                }
                Some(m) if m.2 != *unit => {
                    return Err(format!(
                        "{pass} metric `{name}` emitted in `{}`, BENCHMARK.json says `{unit}`",
                        m.2
                    ))
                }
                Some(_) => {}
            }
        }
        match got
            .metrics
            .iter()
            .find(|m| !listed.iter().any(|l| l.0 == m.0))
        {
            Some(m) => Err(format!(
                "{pass} metric `{}` was emitted but is not in BENCHMARK.json",
                m.0
            )),
            None => Ok(()),
        }
    }
}

/// Runs every workload through both passes, prints every metric as
/// `name workload value unit`, runs the name/schema self-check and
/// writes `results.json` (plus `trace_<workload>.json`, written by the
/// traced pass) into `out`. Returns whether everything was correct.
fn one_set(spec: &Spec, out: &Path, seed: u64, seconds: f64, bins: &Bins) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let (nproc, cpu_model) = procfs::host_info();
    let mut correct = true;
    let mut rows = Vec::new();
    for workload in &WORKLOADS {
        let args = RunArgs {
            workload,
            seed,
            seconds,
            bins: bins.clone(),
            out_dir: out.to_path_buf(),
        };
        eprintln!("== {} (untraced, {seconds} s)", workload.name);
        let e2e = RunResult::from_e2e(e2e::run(&args)?);
        eprintln!("== {} (traced)", workload.name);
        let layers = traced::run(&args)?;
        for (pass, r) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            spec.check_emitted(pass, r)?;
            r.print_notes();
            correct &= r.correct();
            for (name, value, unit) in &r.metrics {
                println!("{name} {} {value} {unit}", workload.name);
            }
            rows.push(Json::obj([
                ("workload", workload.name.to_json()),
                ("pass", pass.to_json()),
                ("result", r.to_json()),
                ("notes", r.notes.to_json()),
            ]));
        }
        println!(
            "failed_share {} {} ratio",
            workload.name,
            e2e.failed as f64 / e2e.attempted.max(1) as f64
        );
    }
    let doc = Json::obj([
        ("seed", seed.to_json()),
        ("seconds", Json::Float(seconds)),
        ("nproc", nproc.to_json()),
        ("cpu_model", cpu_model.to_json()),
        ("correct", Json::Bool(correct)),
        ("runs", Json::Arr(rows)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(correct)
}

/// The one command: a full set (two with `--twice`, then `compare`).
pub fn full_run(
    spec_path: &Path,
    out: &Path,
    seed: u64,
    seconds: f64,
    twice: bool,
    bins: &Bins,
) -> Result<bool, String> {
    let spec = Spec::load(spec_path)?;
    if !twice {
        return one_set(&spec, out, seed, seconds, bins);
    }
    let (a, b) = (out.join("A"), out.join("B"));
    let ok = one_set(&spec, &a, seed, seconds, bins)? & one_set(&spec, &b, seed, seconds, bins)?;
    Ok(compare(&spec, &a.join("results.json"), &b.join("results.json"))? && ok)
}

/// `(workload, metric) -> value` of the untraced rows of a results file.
fn load_e2e(path: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    let runs = j
        .get("runs")
        .ok_or("results file has no `runs`")?
        .as_arr()
        .map_err(|e| e.to_string())?;
    for run in runs
        .iter()
        .filter(|r| r.field::<String>("pass").is_ok_and(|p| p == "end_to_end"))
    {
        let workload: String = run.field("workload").map_err(|e| e.to_string())?;
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{workload}: no metrics object"));
        };
        for (name, m) in metrics {
            out.push((
                workload.clone(),
                name.clone(),
                m.field::<f64>("value").map_err(|e| e.to_string())?,
            ));
        }
    }
    Ok(out)
}

/// Verdict on one `(metric, workload)` pair: `b` against `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// Within the bound (or better).
    Same,
    /// One side is missing or not a usable number.
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Classifies one pair under `bound`.
pub fn verdict(a: Option<f64>, b: Option<f64>, lower_is_better: bool, bound: f64) -> Verdict {
    match (a, b) {
        (Some(a), Some(b)) if a.is_finite() && b.is_finite() && a > 0.0 => {
            if worsening(a, b, lower_is_better) > bound {
                Verdict::Worse
            } else {
                Verdict::Same
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// Prints the comparison table; true when no pair is `worse` or
/// `unresolved`.
fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load_e2e(a)?, load_e2e(b)?);
    let find = |rows: &[(String, String, f64)], w: &str, m: &str| {
        rows.iter().find(|r| r.0 == w && r.1 == m).map(|r| r.2)
    };
    println!(
        "{:<16} {:<15} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "workload", "A", "B", "change", "bound"
    );
    let mut clean = true;
    for (metric, _unit, lower, bound) in &spec.end_to_end {
        for workload in &WORKLOADS {
            let w = workload.name;
            let (va, vb) = (find(&ra, w, metric), find(&rb, w, metric));
            let v = verdict(va, vb, *lower, *bound);
            // a workload BENCHMARK.json does not list is shown, not judged
            clean &= v == Verdict::Same || !workload.gated;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
            let change = match (va, vb) {
                (Some(x), Some(y)) if x > 0.0 => {
                    format!("{:+.1}%", worsening(x, y, *lower) * 100.0)
                }
                _ => "-".to_string(),
            };
            println!(
                "{metric:<16} {w:<15} {:>14} {:>14} {change:>8} {:>5.0}%  {}",
                show(va),
                show(vb),
                bound * 100.0,
                match v {
                    _ if !workload.gated => "not gated",
                    Verdict::Worse => "worse",
                    Verdict::Same => "same",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("(change is how much worse B is than A; negative means better)");
    Ok(clean)
}

/// `ezp-benchmark compare A/results.json B/results.json [--spec FILE]`.
pub fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let (files, spec) = match args {
        [a, b] => ((a, b), "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => ((a, b), spec.as_str()),
        _ => {
            return Err(
                "usage: compare A/results.json B/results.json [--spec BENCHMARK.json]".to_string(),
            )
        }
    };
    compare(
        &Spec::load(Path::new(spec))?,
        Path::new(files.0),
        Path::new(files.1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // lower is better: +4% is within a 5% bound, +6% is not
        assert_eq!(verdict(Some(100.0), Some(104.0), true, 0.05), Verdict::Same);
        assert_eq!(
            verdict(Some(100.0), Some(106.0), true, 0.05),
            Verdict::Worse
        );
        assert_eq!(verdict(Some(100.0), Some(50.0), true, 0.05), Verdict::Same);
        // higher is better: a drop is the worsening
        assert_eq!(
            verdict(Some(100.0), Some(94.0), false, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Some(100.0), Some(130.0), false, 0.05),
            Verdict::Same
        );
        assert_eq!(verdict(None, Some(1.0), true, 0.05), Verdict::Unresolved);
        assert_eq!(
            verdict(Some(0.0), Some(1.0), true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Some(1.0), Some(f64::NAN), true, 0.05),
            Verdict::Unresolved
        );
    }

    /// The name/schema self-check against the committed file: limits,
    /// `setup_s`, bounds, and agreement with the source tables.
    #[test]
    fn committed_benchmark_json_matches_the_source_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            spec.workloads.len(),
            WORKLOADS.iter().filter(|w| w.gated).count()
        );
        assert_eq!(spec.per_layer.len(), LAYER_METRICS.len());
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let r = RunResult {
            metrics: vec![("setup_s".into(), 0.8127, "s".into())],
            attempted: 10,
            failed: 0,
            ..RunResult::default()
        };
        assert_eq!(
            r.to_json().dump(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        let bad = RunResult {
            attempted: 10,
            failed: 1,
            ..RunResult::default()
        };
        assert!(!bad.correct());
        let none = RunResult::default();
        assert!(
            !none.correct(),
            "a run that attempted nothing is not correct"
        );
    }
}
