//! The `easypap` command: run a kernel variant under the framework.

use ezp_core::ezp_debug;
use ezp_core::kernel::{EdgeKind, MultiProbe, NullProbe, Probe, RuntimeEvent, TileStamp};
use ezp_core::params::{DisplayMode, StatsFormat};
use ezp_core::perf::{run_kernel_boxed, RunOutcome};
use ezp_core::{Error, Result, RunConfig, WorkerId};
use ezp_kernels::life::Life;
use ezp_kernels::registry;
use ezp_monitor::{activity, Monitor, MonitorReport, UnifiedReport};
use ezp_perf::PerfProbe;
use ezp_trace::{Trace, TraceMeta};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Default CSV file of the performance mode.
pub const PERF_CSV: &str = "easypap.csv";

/// Runs `easypap` with the given arguments (program name excluded) and
/// returns the console output.
pub fn run_easypap<I, S>(args: I) -> Result<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    // subcommands come first, before the flag grammar: `easypap serve`
    // runs the persistent daemon, `easypap submit` is its client
    match args.first().map(String::as_str) {
        Some("serve") => return crate::serve_cmd::run_serve(&args[1..]),
        Some("submit") => return crate::serve_cmd::run_submit(&args[1..]),
        _ => {}
    }
    let cfg = RunConfig::parse_args(args.iter().map(String::as_str))?;
    // `easypap --list`: enumerate kernels and variants, like the original
    // framework's discovery of `<kernel>_compute_<variant>` symbols
    if cfg.list {
        let reg = registry();
        let mut out = String::from("available kernels:\n");
        for name in reg.kernel_names() {
            let k = reg.create(name)?;
            out.push_str(&format!("  {name:<12} variants: {}\n", k.variants().join(", ")));
        }
        out.push_str("streaming kernels (--stream=N):\n");
        for k in ezp_stream::stream_registry() {
            out.push_str(&format!("  {:<12} {}\n", k.name(), k.describe()));
        }
        return Ok(out);
    }
    // `--debug` raises the process-wide log level; EZP_LOG still works
    // for runs without the flag.
    if cfg.debug {
        ezp_core::log::set_level(ezp_core::log::Level::Debug);
    }
    let mut out = String::new();

    // Fig. 13 special case: MPI debugging shows every rank's windows;
    // the per-rank reports live on the concrete Life kernel.
    if cfg.shows_rank_windows() {
        return run_life_mpi_debug(cfg);
    }

    // `--stream=N`: the streaming frame driver pushes N frames through a
    // skeleton kernel instead of iterating one image in place
    if cfg.stream_frames.is_some() {
        return run_stream(cfg);
    }

    let reg = registry();
    // assemble the probe stack: monitoring/tracing feed off a Monitor
    // (the trace is the harvested report); `--stats`/`--trace-events`
    // add the perf probe for runtime counters and spans
    let monitor = if cfg.display == DisplayMode::Monitoring
        || cfg.trace
        || cfg.explain
        || cfg.trace_events.is_some()
    {
        Some(Arc::new(Monitor::new(cfg.threads, cfg.grid()?)))
    } else {
        None
    };
    // `--trace`/`--explain` also want the perf probe: the counter
    // snapshot (idle causes included) embeds into the saved trace and
    // feeds the explain report
    let perf = if cfg.stats.is_some() || cfg.trace || cfg.explain || cfg.trace_events.is_some() {
        Some(Arc::new(PerfProbe::new(cfg.threads)))
    } else {
        None
    };
    let mut probes: Vec<Arc<dyn Probe>> = Vec::new();
    if let Some(m) = &monitor {
        probes.push(m.clone());
    }
    if let Some(p) = &perf {
        probes.push(p.clone());
    }
    ezp_debug!(
        "easypap",
        "probe stack: monitor={} perf={}",
        monitor.is_some(),
        perf.is_some()
    );
    let probe: Arc<dyn Probe> = match probes.len() {
        0 => Arc::new(NullProbe),
        // a composite reads the clock for every bracket; a lone
        // `PerfProbe` (`--stats` alone) needs none
        1 => probes.remove(0),
        _ => Arc::new(MultiProbe::new(probes)),
    };

    // `--frames DIR` replaces the animated window: run iteration by
    // iteration and dump each frame
    let (outcome, ctx, kernel) = match &cfg.frames_dir {
        Some(dir) => run_with_frames(&reg, cfg.clone(), probe, dir)?,
        None => run_kernel_boxed(&reg, cfg.clone(), probe)?,
    };
    writeln!(out, "{}", outcome.summary()).unwrap();

    if let Some(dir) = &cfg.frames_dir {
        // the initial state, then one frame per completed iteration
        let frames = outcome.completed_iterations + 1;
        writeln!(out, "{frames} frames written to {dir}/").unwrap();
    } else if cfg.display == DisplayMode::None {
        outcome.append_csv(PERF_CSV, 0)?;
        writeln!(out, "result appended to {PERF_CSV}").unwrap();
    } else {
        // no SDL window in this reproduction: dump the final frame
        let frame = format!("{}-{}.ppm", cfg.kernel, cfg.variant);
        let mut file = BufWriter::new(File::create(&frame)?);
        ctx.images.cur().write_ppm(&mut file)?;
        file.flush()?;
        writeln!(out, "final frame written to {frame}").unwrap();
    }
    if cfg.ansi {
        out.push_str(&ezp_render::ansi::to_ansi(&ezp_render::downscale(
            ctx.images.cur(),
            cfg.dim.min(64),
            cfg.dim.min(64),
        )));
    }

    let mut report: Option<MonitorReport> = monitor.as_ref().map(|m| m.report());
    if let Some(report) = &report {
        if cfg.display == DisplayMode::Monitoring {
            writeln!(out, "\n=== Activity Monitor ===").unwrap();
            out.push_str(&activity::render_report(report));
            if let Some(last) = report.iterations.last() {
                writeln!(out, "\n=== Tiling window (iteration {}) ===", last.iteration).unwrap();
                out.push_str(&report.tiling_snapshot(last.iteration).to_ascii());
                writeln!(out, "\n=== Heat map (iteration {}) ===", last.iteration).unwrap();
                out.push_str(&report.heat_map(last.iteration).to_ascii());
            }
        }
    }
    if cfg.trace || cfg.explain {
        lend_as_trace(&cfg, &mut report, |trace| {
            trace.counters = perf.as_ref().map(|p| p.snapshot());
            if cfg.trace {
                at(&cfg.trace_file, ezp_trace::io::save(trace, &cfg.trace_file))?;
                writeln!(
                    out,
                    "trace ({} tasks, {} iterations, {} edges) written to {}",
                    trace.tasks.len(),
                    trace.iteration_count(),
                    trace.edges.len(),
                    cfg.trace_file
                )
                .unwrap();
            }
            if cfg.explain {
                writeln!(out, "\n=== Explain (causal profile) ===").unwrap();
                out.push_str(&ezp_view::explain(trace)?.render());
            }
            Ok(())
        })?;
    }

    observability_tail(&mut out, &cfg, report, perf.as_ref(), kernel.stats_counters())?;
    Ok(out)
}

/// An I/O error says "No such file or directory" and not which: put the
/// path a flag pointed at in front of it.
fn at<T>(path: &str, result: Result<T>) -> Result<T> {
    result.map_err(|e| match e {
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), format!("{path}: {io}"))),
        other => other,
    })
}

/// `--kernel <name> --stream=N`: push N frames through a streaming
/// skeleton kernel. Farm stages replicate once per `--threads` worker
/// and frames leave the pipeline in `--stream-mode` order.
fn run_stream(cfg: RunConfig) -> Result<String> {
    use ezp_stream::{stream_kernel, stream_registry};
    let frames = cfg.stream_frames.unwrap_or(0);
    let kernel = stream_kernel(&cfg.kernel).ok_or_else(|| {
        let names: Vec<&str> = stream_registry().iter().map(|k| k.name()).collect();
        Error::Config(format!(
            "unknown streaming kernel '{}' (available: {})",
            cfg.kernel,
            names.join(", ")
        ))
    })?;
    let mut out = String::new();
    let mut pool = ezp_sched::acquire_pool(cfg.threads);
    let farm_width = cfg.threads;
    let perf = cfg.stats.map(|_| Arc::new(PerfProbe::new(cfg.threads)));
    ezp_debug!(
        "easypap",
        "stream mode: {} frames, farm width {farm_width}, {} emission",
        frames,
        cfg.stream_mode
    );
    let probe: Arc<dyn Probe> = match &perf {
        Some(p) => p.clone(),
        None => Arc::new(NullProbe),
    };
    let sw = ezp_core::time::Stopwatch::start();
    let (outputs, stats) =
        kernel.run(cfg.dim, frames, cfg.stream_mode, farm_width, &mut pool, &*probe)?;
    let bytes: usize = outputs.iter().map(|(_, b)| b.len()).sum();
    writeln!(
        out,
        "{} frames streamed ({bytes} bytes, {} emission, farm width {farm_width}) in {} ms",
        stats.frames,
        cfg.stream_mode,
        sw.elapsed_ms()
    )
    .unwrap();
    writeln!(
        out,
        "in flight <= {}, reorder depth <= {}, stage occupancy <= {}, {} backpressure stalls",
        stats.max_frames_in_flight,
        stats.max_reorder_depth,
        stats.max_stage_occupancy,
        stats.backpressure_stalls
    )
    .unwrap();
    observability_tail(&mut out, &cfg, None, perf.as_ref(), Vec::new())?;
    Ok(out)
}

/// Runs `f` on the run's report (if any) viewed as a trace. A trace and
/// a report hold the same vectors, so the records move there and back
/// instead of being copied.
fn lend_as_trace(
    cfg: &RunConfig,
    report: &mut Option<MonitorReport>,
    f: impl FnOnce(&mut Trace) -> Result<()>,
) -> Result<()> {
    if let Some(owned) = report.take() {
        let mut trace = Trace::from_owned_report(TraceMeta::from_config(cfg), owned);
        f(&mut trace)?;
        *report = Some(trace.into_report()?);
    }
    Ok(())
}

/// The `--trace-events` file and the `--stats` report, appended after
/// everything else so scripted consumers can split the report off the
/// human-readable lines above. Shared by the one-shot (with or without
/// `--frames`) and `--stream` runs; `extra_counters` carries kernel-provided counters
/// (per-worker values) into the `--stats` snapshot.
fn observability_tail(
    out: &mut String,
    cfg: &RunConfig,
    mut report: Option<MonitorReport>,
    perf: Option<&Arc<PerfProbe>>,
    extra_counters: Vec<(String, Vec<u64>)>,
) -> Result<()> {
    let spans = perf.map(|p| p.span_snapshot()).unwrap_or_default();
    if let Some(path) = &cfg.trace_events {
        lend_as_trace(cfg, &mut report, |trace| {
            let doc = ezp_trace::to_chrome(trace, &spans);
            at(path, std::fs::write(path, doc.dump()).map_err(Error::from))?;
            writeln!(
                out,
                "trace events ({} tiles, {} spans) written to {path}",
                trace.tasks.len(),
                spans.len()
            )
            .unwrap();
            Ok(())
        })?;
    }

    if let (Some(format), Some(perf)) = (cfg.stats, perf) {
        let mut snapshot = perf.snapshot();
        for (name, per_worker) in extra_counters {
            snapshot.push(&name, per_worker);
        }
        let unified = UnifiedReport::new(report, snapshot, spans);
        ezp_debug!(
            "easypap",
            "stats: {} counters, {} spans",
            unified.counters.counters.len(),
            unified.spans.len()
        );
        let rendered = match format {
            StatsFormat::Text => unified.to_text(),
            StatsFormat::Json => unified.to_json().dump(),
            StatsFormat::Csv => unified.to_csv(),
        };
        out.push_str(&rendered);
        if !rendered.ends_with('\n') {
            out.push('\n');
        }
    }
    Ok(())
}

/// What `run_with_frames` puts in front of the run's probes: each of
/// its `compute(.., 1)` calls announces "iteration 1", and a monitor or
/// trace needs the run's numbering, so iteration ids are shifted by the
/// iterations already `done`. Everything else is forwarded untouched.
struct FrameNumbering {
    inner: Arc<dyn Probe>,
    /// counter-only: the count is the entire payload. The driver stores
    /// it between two `compute` calls and the next call reads it.
    done: AtomicU32,
}

impl Probe for FrameNumbering {
    fn iteration_start(&self, iteration: u32) {
        self.inner.iteration_start(self.done.load(Ordering::Relaxed) + iteration);
    }
    fn iteration_end(&self, iteration: u32) {
        self.inner.iteration_end(self.done.load(Ordering::Relaxed) + iteration);
    }
    fn start_tile(&self, worker: WorkerId) {
        self.inner.start_tile(worker);
    }
    fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
        self.inner.end_tile(x, y, w, h, worker);
    }
    fn start_tile_at(&self, worker: WorkerId, now_ns: u64) {
        self.inner.start_tile_at(worker, now_ns);
    }
    fn end_tile_at(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId, now_ns: u64) {
        self.inner.end_tile_at(x, y, w, h, worker, now_ns);
    }
    fn wants_tile_stamps(&self) -> bool {
        self.inner.wants_tile_stamps()
    }
    fn tiles_done(&self, worker: WorkerId, stamps: &[TileStamp]) {
        self.inner.tiles_done(worker, stamps);
    }
    fn runtime_event(&self, worker: WorkerId, event: RuntimeEvent) {
        self.inner.runtime_event(worker, event);
    }
    fn wants_runtime_events(&self) -> bool {
        self.inner.wants_runtime_events()
    }
    fn dep_edge(&self, from: usize, to: usize, kind: EdgeKind) {
        self.inner.dep_edge(from, to, kind);
    }
    fn wants_dep_edges(&self) -> bool {
        self.inner.wants_dep_edges()
    }
}

/// `--frames DIR`: the animated-window replacement. The kernel runs one
/// iteration at a time, refreshing and dumping a frame after each, so
/// the directory ends up holding the same "series of images computed at
/// each iteration" the SDL window would have shown. One leased pool
/// serves every iteration: each `compute(.., 1)` of a parallel variant
/// calls `acquire_pool`, which without a lease would spawn and join a
/// whole pool per frame.
fn run_with_frames(
    reg: &ezp_core::Registry,
    cfg: RunConfig,
    probe: Arc<dyn Probe>,
    frames_dir: &str,
) -> Result<(RunOutcome, ezp_core::KernelCtx, Box<dyn ezp_core::Kernel>)> {
    let mut kernel = reg.create_variant(&cfg.kernel, &cfg.variant)?;
    let numbering = Arc::new(FrameNumbering { inner: probe, done: AtomicU32::new(0) });
    let mut ctx = ezp_core::KernelCtx::new(cfg.clone())?.with_probe(numbering.clone());
    kernel.init(&mut ctx)?;
    let mut sink = at(frames_dir, ezp_render::FrameSink::new(frames_dir))?;
    kernel.refresh_image(&mut ctx)?;
    sink.present(ctx.images.cur())?; // initial state
    let sw = ezp_core::time::Stopwatch::start();
    let mux = ezp_sched::PoolMux::new(1, cfg.threads);
    let converged_at = mux.lease().install(cfg.threads, || -> Result<Option<u32>> {
        for it in 1..=cfg.iterations {
            let converged = kernel.compute(&mut ctx, &cfg.variant, 1)?;
            kernel.refresh_image(&mut ctx)?;
            sink.present(ctx.images.cur())?;
            numbering.done.store(it, Ordering::Relaxed);
            if converged.is_some() {
                return Ok(Some(it));
            }
        }
        Ok(None)
    })?;
    let outcome = RunOutcome {
        elapsed_ns: sw.elapsed_ns(),
        completed_iterations: converged_at.unwrap_or(cfg.iterations),
        converged_at,
        cfg,
    };
    Ok((outcome, ctx, kernel))
}

/// `easypap --kernel life --variant mpi_omp --mpirun "-np N" --debug M`:
/// run the MPI Game of Life and show the monitoring windows of every
/// rank (Fig. 13).
fn run_life_mpi_debug(cfg: RunConfig) -> Result<String> {
    use ezp_core::{Kernel, KernelCtx};
    let mut out = String::new();
    ezp_debug!("easypap", "mpi debug mode: {} ranks, {} threads each", cfg.mpi_ranks, cfg.threads);
    let mut kernel = Life::default();
    let iterations = cfg.iterations;
    let variant = cfg.variant.clone();
    let mut ctx = KernelCtx::new(cfg.clone())?;
    kernel.init(&mut ctx)?;
    let sw = ezp_core::time::Stopwatch::start();
    let converged = kernel.compute(&mut ctx, &variant, iterations)?;
    let done = converged.unwrap_or(iterations);
    writeln!(out, "{done} iterations completed in {} ms", sw.elapsed_ms()).unwrap();
    kernel.refresh_image(&mut ctx)?;
    for (rank, report) in kernel.last_mpi_reports.iter().enumerate() {
        writeln!(out, "\n=== Monitoring window of MPI process {rank} ===").unwrap();
        if let Some(last) = report.iterations.last() {
            out.push_str(&report.tiling_snapshot(last.iteration).to_ascii());
        }
        out.push_str(&activity::render_idleness_history(report));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // the CLI writes artifacts into the cwd; tests must not change it
    // concurrently, so all cwd-touching tests share one lock
    static CWD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn in_tmp_dir<T>(f: impl FnOnce() -> T) -> T {
        let _guard = CWD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!(
            "ezp_cli_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let r = f();
        std::env::set_current_dir(old).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        r
    }

    /// The `--stats=json` report, which a run prints as its last line:
    /// the raw line and its counters.
    fn stats_json(out: &str) -> (&str, ezp_perf::CounterSnapshot) {
        use ezp_core::json::{FromJson, Json};
        let line = out.lines().rev().find(|l| l.starts_with('{')).expect("no JSON in output");
        let doc = Json::parse(line).unwrap();
        (line, ezp_perf::CounterSnapshot::from_json(doc.get("counters").unwrap()).unwrap())
    }

    #[test]
    fn list_shows_all_kernels_and_variants() {
        let out = run_easypap(["--list"]).unwrap();
        for k in ["mandel", "blur", "life", "ccomp", "sandpile", "heat", "spin"] {
            assert!(out.contains(k), "missing kernel {k} in --list");
        }
        assert!(out.contains("omp_tiled"));
        assert!(out.contains("mpi_omp"));
        assert!(out.contains("taskdep"));
    }

    #[test]
    fn performance_mode_prints_paper_line_and_appends_csv() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel",
                "mandel",
                "--variant",
                "omp_tiled",
                "--size",
                "64",
                "--tile-size",
                "16",
                "--iterations",
                "2",
                "--threads",
                "2",
                "--no-display",
            ])
            .unwrap();
            assert!(out.contains("2 iterations completed in"));
            assert!(out.contains("ms"));
            assert!(std::path::Path::new(PERF_CSV).exists());
        });
    }

    #[test]
    fn display_mode_dumps_a_frame() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "invert", "--variant", "seq", "--size", "32", "--tile-size", "8",
            ])
            .unwrap();
            assert!(out.contains("invert-seq.ppm"));
            let ppm = std::fs::read("invert-seq.ppm").unwrap();
            assert!(ppm.starts_with(b"P6\n32 32\n255\n"));
        });
    }

    #[test]
    fn monitoring_mode_prints_windows() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel",
                "mandel",
                "--variant",
                "omp_tiled",
                "--size",
                "64",
                "--tile-size",
                "16",
                "--iterations",
                "1",
                "--threads",
                "2",
                "--monitoring",
            ])
            .unwrap();
            assert!(out.contains("Activity Monitor"));
            assert!(out.contains("Tiling window"));
            assert!(out.contains("Heat map"));
            assert!(out.contains("CPU  0"));
        });
    }

    /// A `gpu` variant brackets its work-groups as tiles (on CPU 0: the
    /// host runs them in turn), so every observer has something to show.
    #[test]
    fn gpu_variant_is_seen_by_monitor_trace_and_explain() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "-k", "mandel", "-v", "gpu", "-s", "64", "-ts", "16", "-i", "2", "-n", "-t", "2",
                "--monitoring", "--trace", "--explain",
            ])
            .unwrap();
            assert_eq!(out.matches("16 tiles").count(), 2, "{out}");
            assert!(out.contains("trace (32 tasks, 2 iterations, 0 edges)"), "{out}");
            assert!(out.contains("P=4 ") && !out.contains("[no-tasks]"), "{out}");
        });
    }

    #[test]
    fn trace_mode_writes_a_loadable_trace() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel",
                "blur",
                "--variant",
                "omp_tiled",
                "--size",
                "32",
                "--tile-size",
                "8",
                "--iterations",
                "2",
                "--threads",
                "2",
                "--trace",
                "--no-display",
            ])
            .unwrap();
            assert!(out.contains("trace ("));
            let trace = ezp_trace::io::load("trace.ezv").unwrap();
            assert_eq!(trace.meta.kernel, "blur");
            assert_eq!(trace.iteration_count(), 2);
            assert_eq!(trace.tasks.len(), 2 * 16);
            // v2: the runtime-counter snapshot rides along in the trace
            let counters = trace.counters.expect("counters embedded in trace");
            assert!(counters.total("tasks_executed") > 0);
        });
    }

    #[test]
    fn explain_flag_appends_causal_profile() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel",
                "mandel",
                "--variant",
                "omp_tiled",
                "--size",
                "64",
                "--tile-size",
                "16",
                "--iterations",
                "2",
                "--threads",
                "2",
                "--explain",
                "--no-display",
                "--stats=json",
            ])
            .unwrap();
            let needles =
                ["Explain (causal profile)", "work T1", "span Tinf", "task latency", "p99", "# advice:"];
            for needle in needles {
                assert!(out.contains(needle), "no {needle:?} in {out}");
            }
            // at least one advisor slug, `[a-z-]+` in brackets
            let slug = |s: &str| s.split_once(']').is_some_and(|(w, _)| {
                !w.is_empty() && w.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
            });
            assert!(out.split('[').skip(1).any(slug), "no advisor recommendation in {out}");
            // 16-pixel mandel tiles are microseconds long: not a grain problem
            assert!(!out.contains("[grain-too-fine]"), "{out}");

            // the --stats=json report: schema 2, no counter that is 0 on
            // every slot, and idle causes that sum exactly to idle_ns
            let (line, counters) = stats_json(&out);
            assert!(line.starts_with("{\"schema\":2,"), "{line}");
            for c in &counters.counters {
                assert!(c.per_worker.iter().any(|&v| v != 0), "{} is 0 everywhere", c.name);
            }
            let causes: u64 = counters
                .counters
                .iter()
                .filter(|c| c.name.starts_with("idle_ns{cause="))
                .map(|c| c.total())
                .sum();
            assert!(causes > 0, "no per-cause idle counters");
            assert_eq!(causes, counters.total("idle_ns"));
        });
    }

    #[test]
    fn stats_json_reports_nonzero_task_counts() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "life", "--variant", "omp_tiled", "--size", "64", "--tile-size",
                "16", "--iterations", "3", "--threads", "2", "--no-display", "--stats=json",
                "--arg", "random:0.3",
            ])
            .unwrap();
            let (_, counters) = stats_json(&out);
            assert_eq!(counters.total("tasks_executed"), 3 * 16);
            assert!(counters.total("chunks_dispensed") > 0, "scheduler counters missing");
        });
    }

    #[test]
    fn stats_text_and_csv_formats_render() {
        in_tmp_dir(|| {
            let text = run_easypap([
                "--kernel", "mandel", "--variant", "omp_tiled", "--size", "32", "--tile-size",
                "8", "--iterations", "1", "--threads", "2", "--no-display", "--stats",
            ])
            .unwrap();
            assert!(text.contains("# TYPE ezp_tasks_executed counter"), "{text}");
            assert!(text.contains("ezp_tasks_executed{worker=\"0\"}"), "{text}");
            let csv = run_easypap([
                "--kernel", "mandel", "--variant", "omp_tiled", "--size", "32", "--tile-size",
                "8", "--iterations", "1", "--threads", "2", "--no-display", "--stats=csv",
            ])
            .unwrap();
            assert!(csv.contains("counter,worker,value"), "{csv}");
            assert!(csv.contains("tasks_executed"), "{csv}");
        });
    }

    #[test]
    fn stats_json_includes_mpi_comm_counters() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "life", "--variant", "mpi_omp", "--size", "64", "--tile-size",
                "16", "--iterations", "2", "--threads", "2", "--mpirun", "-np 2",
                "--no-display", "--stats=json", "--arg", "random:0.3",
            ])
            .unwrap();
            let (_, counters) = stats_json(&out);
            let find = |name: &str| counters.total(name);
            // 2 ranks exchange ghost rows every iteration
            assert!(find("mpi_msgs_sent") > 0);
            assert!(find("mpi_bytes_sent") > 0);
            assert_eq!(find("mpi_msgs_sent"), find("mpi_msgs_received"));
        });
    }

    #[test]
    fn trace_events_file_is_chrome_loadable() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "blur", "--variant", "omp_tiled", "--size", "32", "--tile-size",
                "8", "--iterations", "2", "--threads", "2", "--no-display", "--trace-events",
                "out.json",
            ])
            .unwrap();
            assert!(out.contains("trace events ("), "{out}");
            let text = std::fs::read_to_string("out.json").unwrap();
            let j = ezp_core::json::Json::parse(&text).unwrap();
            let events = j.get("traceEvents").unwrap().as_arr().unwrap();
            // thread metadata + 2 iterations + 2*16 tiles + spans
            assert!(events.len() >= 3 + 2 + 32, "only {} events", events.len());
            assert!(events.iter().any(|e| e
                .field::<String>("ph")
                .map(|p| p == "X")
                .unwrap_or(false)));
        });
    }

    #[test]
    fn mpi_debug_mode_shows_per_rank_windows() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel",
                "life",
                "--variant",
                "mpi_omp",
                "--size",
                "64",
                "--tile-size",
                "16",
                "--iterations",
                "3",
                "--threads",
                "2",
                "--mpirun",
                "-np 2",
                "--monitoring",
                "--debug",
                "M",
            ])
            .unwrap();
            assert!(out.contains("MPI process 0"));
            assert!(out.contains("MPI process 1"));
        });
    }

    #[test]
    fn frames_mode_dumps_per_iteration_images() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "scrollup", "--variant", "seq", "--size", "16", "--tile-size", "8",
                "--iterations", "3", "--frames", "anim",
            ])
            .unwrap();
            assert!(out.contains("3 iterations completed"));
            assert!(out.contains("4 frames written")); // initial + 3
            for i in 1..=4 {
                let f = format!("anim/frame-{i:04}.ppm");
                assert!(std::path::Path::new(&f).exists(), "missing {f}");
            }
        });
    }

    #[test]
    fn frames_mode_serves_every_iteration_from_one_leased_pool() {
        use ezp_core::{Kernel, KernelCtx};
        // what `acquire_pool(..).is_shared()` said in each `compute`
        static SHARED: std::sync::Mutex<Vec<bool>> = std::sync::Mutex::new(Vec::new());
        struct PoolSpy;
        impl Kernel for PoolSpy {
            fn name(&self) -> &'static str {
                "pool_spy"
            }
            fn variants(&self) -> Vec<&'static str> {
                vec!["omp"]
            }
            fn init(&mut self, _: &mut KernelCtx) -> Result<()> {
                Ok(())
            }
            fn compute(&mut self, ctx: &mut KernelCtx, _: &str, nb_iter: u32) -> Result<Option<u32>> {
                assert_eq!(nb_iter, 1, "frames mode computes one iteration per frame");
                let mut pool = ezp_sched::acquire_pool(ctx.cfg.threads);
                SHARED.lock().unwrap().push(pool.is_shared());
                pool.run(|_| {});
                Ok(None)
            }
        }
        let mut reg = ezp_core::Registry::new();
        reg.register("pool_spy", || Box::new(PoolSpy));
        in_tmp_dir(|| {
            let cfg = RunConfig::parse_args([
                "--kernel", "pool_spy", "--variant", "omp", "--size", "16", "--tile-size", "8",
                "--iterations", "3", "--threads", "2", "--frames", "anim",
            ])
            .unwrap();
            let (outcome, ..) = run_with_frames(&reg, cfg, Arc::new(NullProbe), "anim").unwrap();
            assert_eq!(outcome.completed_iterations, 3);
        });
        assert_eq!(*SHARED.lock().unwrap(), [true; 3], "an iteration spawned its own pool");
    }

    #[test]
    fn frames_mode_honours_every_observability_flag() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "mandel", "--variant", "omp_tiled", "--size", "64", "--tile-size",
                "16", "--iterations", "2", "--threads", "2", "--frames", "anim", "--trace",
                "--explain", "--monitoring", "--ansi", "--stats=json",
            ])
            .unwrap();
            assert!(out.contains("3 frames written to anim/"), "{out}");
            assert!(out.contains("Activity Monitor"), "{out}");
            assert!(out.contains("Tiling window (iteration 2)"), "{out}");
            assert!(out.contains("Explain (causal profile)"), "{out}");
            assert!(out.contains("\u{2580}"), "no --ansi preview");
            assert!(out.contains("\"tasks_executed\""), "no --stats report");
            // one compute per frame, yet the trace keeps the run's numbering
            let trace = ezp_trace::io::load("trace.ezv").unwrap();
            assert_eq!(trace.iteration_count(), 2);
            assert_eq!(trace.tasks.len(), 2 * 16);
            assert!(trace.tasks.iter().any(|t| t.iteration == 2));
        });
    }

    #[test]
    fn frame_numbering_keeps_the_monitor_on_stamps() {
        let grid = ezp_core::TileGrid::square(16, 8).unwrap();
        let monitor = Arc::new(Monitor::new(1, grid));
        let numbering = FrameNumbering { inner: monitor.clone(), done: AtomicU32::new(2) };
        // without forwarding, `--frames --monitoring` falls back to brackets
        assert!(numbering.wants_tile_stamps());
        numbering.iteration_start(1);
        let stamps: Vec<TileStamp> =
            grid.iter().map(|tile| TileStamp { tile, start_ns: 1, end_ns: 2 }).collect();
        numbering.tiles_done(0, &stamps);
        let records = monitor.report().records;
        assert_eq!(records.len(), grid.len());
        assert!(records.iter().all(|r| r.iteration == 3), "{records:?}");
    }

    /// A mode that cannot honour a flag says so (naming both) instead
    /// of running without it.
    #[test]
    fn stream_and_mpi_debug_modes_reject_the_flags_they_would_drop() {
        let cases: [(&[&str], &str, &[&[&str]]); 3] = [
            (
                &["--kernel", "mandel_zoom", "--stream=4", "--size", "16"],
                "--stream=N",
                &[
                    &["--monitoring"],
                    &["--trace"],
                    &["--trace-events", "te.json"],
                    &["--explain"],
                    &["--frames", "f"],
                    &["--ansi"],
                ],
            ),
            (
                &[
                    "--kernel", "life", "--variant", "mpi_omp", "--size", "64", "--tile-size",
                    "16", "--mpirun", "-np 2", "--debug", "M",
                ],
                "--debug M",
                &[
                    &["--stats=json"],
                    &["--trace"],
                    &["--trace-events", "te.json"],
                    &["--explain"],
                    &["--frames", "f"],
                    &["--ansi"],
                ],
            ),
            // the ranks' tiles reach no monitor this run could report from
            (
                &[
                    "--kernel", "life", "--variant", "mpi_omp", "--size", "64", "--tile-size",
                    "16", "--iterations", "2", "--no-display", "--mpirun", "-np 2",
                ],
                "distributed run (mpi_omp) without --debug M",
                &[&["--monitoring"], &["--trace"], &["--trace-events", "te.json"], &["--explain"]],
            ),
        ];
        in_tmp_dir(|| {
            for (base, mode, dropped) in cases {
                for extra in dropped {
                    let args: Vec<&str> = base.iter().chain(extra.iter()).copied().collect();
                    let err = run_easypap(args).expect_err(extra[0]).to_string();
                    let flag = extra[0].split('=').next().unwrap();
                    assert!(err.contains("configuration error"), "{err}");
                    assert!(err.contains(flag) && err.contains(mode), "{mode} + {flag}: {err}");
                }
            }
            assert_eq!(std::fs::read_dir(".").unwrap().count(), 0, "a rejected run left files");
        });
    }

    #[test]
    fn frames_mode_stops_at_convergence() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "life", "--variant", "seq", "--size", "16", "--tile-size", "8",
                "--iterations", "10", "--frames", "anim", "--arg", "block",
            ])
            .unwrap();
            assert!(out.contains("1 iterations completed"));
            assert!(out.contains("2 frames written"));
        });
    }

    #[test]
    fn ansi_preview_is_emitted() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel", "spin", "--variant", "seq", "--size", "32", "--tile-size", "8",
                "--ansi",
            ])
            .unwrap();
            assert!(out.contains("\u{2580}"), "half-block glyphs expected");
            assert!(out.contains("\x1b[38;2;"));
        });
    }

    #[test]
    fn stream_mode_runs_a_demo_and_reports_counters() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel",
                "mandel_zoom",
                "--stream=8",
                "--threads",
                "2",
                "--size",
                "16",
                "--no-display",
                "--stats=json",
            ])
            .unwrap();
            assert!(out.contains("8 frames streamed"), "{out}");
            assert!(out.contains("ordered emission"), "{out}");
            let (_, counters) = stats_json(&out);
            assert_eq!(counters.total("frames_emitted"), 8);
            assert!(counters.total("frames_in_flight") > 0);
            assert!(counters.total("stage_occupancy") > 0);
            // the gauges and the stall count are the run's StreamStats,
            // as the summary line prints them (an absent row is a 0)
            let summary = format!(
                "in flight <= {}, reorder depth <= {}, stage occupancy <= {}, \
                 {} backpressure stalls",
                counters.total("frames_in_flight"),
                counters.total("reorder_buffer_depth"),
                counters.total("stage_occupancy"),
                counters.total("backpressure_stalls"),
            );
            assert!(out.contains(&summary), "no {summary:?} in {out}");
        });
    }

    #[test]
    fn stream_mode_unordered_and_list_section() {
        in_tmp_dir(|| {
            let out = run_easypap([
                "--kernel",
                "wordcount",
                "--stream=6",
                "--stream-mode",
                "unordered",
                "--threads",
                "2",
                "--size",
                "8",
                "--no-display",
            ])
            .unwrap();
            assert!(out.contains("6 frames streamed"), "{out}");
            assert!(out.contains("unordered emission"), "{out}");
        });
        let list = run_easypap(["--list"]).unwrap();
        assert!(list.contains("streaming kernels"), "{list}");
        for k in ["mandel_zoom", "frame_diff", "wordcount"] {
            assert!(list.contains(k), "missing streaming kernel {k} in --list");
        }
    }

    #[test]
    fn stream_mode_rejects_unknown_kernels_and_bad_flags() {
        // a classic kernel is not a streaming kernel
        assert!(run_easypap(["--kernel", "mandel", "--stream=4", "--no-display"]).is_err());
        // a streaming flag without --stream is a config error
        let args = ["--kernel", "mandel_zoom", "--stream-mode", "unordered", "--no-display"];
        assert!(run_easypap(args).is_err());
    }

    #[test]
    fn bad_arguments_error_cleanly() {
        assert!(run_easypap(["--bogus"]).is_err());
        assert!(run_easypap(["--kernel", "unknown-kernel", "--no-display"]).is_err());
        assert!(run_easypap(["--kernel", "mandel", "--variant", "nope", "--no-display"]).is_err());
    }

    /// Lines that used to wrap, panic, abort or hang, and the hostile
    /// lanes `ci/verify.sh` ran as shell: each is refused by name before
    /// anything is allocated, spawned or written.
    #[test]
    fn hostile_values_are_refused_by_name() {
        let cases: [(&[&str], &[&str]); 11] = [
            (&["--iterations", "4294967296"], &["--iterations", "0..=4294967295"]),
            (&["--size", "4294967296"], &["--size", "1..=8192"]),
            (&["--size", "1000000"], &["--size", "1..=8192"]),
            (&["--variant", "omp_tiled", "--threads", "100000"], &["--threads", "1..=128"]),
            (&["--mpirun", "-np 100000"], &["--mpirun -np", "1..=32"]),
            (&["--stream=18446744073709551615"], &["--stream", "1..=1000000"]),
            (&["--trace=1"], &["--trace takes no value"]),
            // a default the user never typed is called one
            (&["--size", "16"], &["--tile-size 32 (the default)", "pass --tile-size 16"]),
            // the escape-time cap sizes mandel's palette table
            (&["--arg", "4294967295", "--size", "64"], &["max_iter", "exceeds the limit of 1048576"]),
            // a row per rank: rank 17 of 16 rows indexed past the board
            (&["-k", "life", "-v", "mpi_omp", "-s", "16", "-ts", "8", "--mpirun", "-np 17"], &["-np 17"]),
            // retired, not an alias
            (&["--variant", "omp_tiled_x4", "--size", "64"], &["no variant `omp_tiled_x4`"]),
        ];
        in_tmp_dir(|| {
            for (line, wanted) in cases {
                let args = ["--kernel", "mandel", "--no-display"].iter().chain(line).copied();
                let err = run_easypap(args).expect_err(line[0]).to_string();
                let config = err.starts_with("configuration error") || err.starts_with("no variant");
                assert!(config && wanted.iter().all(|w| err.contains(w)), "{line:?}: {err}");
            }
            assert_eq!(std::fs::read_dir(".").unwrap().count(), 0, "a refused run left files");
        });
    }

    /// "No such file or directory" names the file: the path a flag
    /// pointed at is in the error.
    #[test]
    fn io_errors_name_the_path_the_flag_pointed_at() {
        let sinks: [&[&str]; 3] =
            [&["--trace", "--trace-file", "file/t"], &["--trace-events", "file/t"], &["--frames", "file/t"]];
        in_tmp_dir(|| {
            std::fs::write("file", "").unwrap();
            for sink in sinks {
                let args = ["-k", "mandel", "-s", "32", "-ts", "8", "-n"].iter().chain(sink).copied();
                let err = run_easypap(args).expect_err(sink[0]).to_string();
                assert!(err.starts_with("I/O error: file/t: "), "{sink:?}: {err}");
            }
        });
    }

    /// A chunk size that leaves `usize` when multiplied or added must
    /// neither hang the loop nor run tiles twice; `--size=64` is `--size 64`.
    #[test]
    fn overflowing_schedule_chunks_run_each_of_64_tiles_once() {
        in_tmp_dir(|| {
            for schedule in ["dynamic,9223372036854775808", "static,9223372036854775808"] {
                let out = run_easypap([
                    "--kernel", "mandel", "--variant", "omp_tiled", "--size=64", "--tile-size=8",
                    "--threads", "2", "--schedule", schedule, "--stats=text", "--no-display",
                ])
                .unwrap();
                assert!(out.lines().any(|l| l == "ezp_tasks_executed 64"), "{schedule}: {out}");
            }
        });
    }

    /// The retired channel knobs, `--stages` and `--farm-width` are
    /// ordinary unknown options, with or without `--stream`.
    #[test]
    fn retired_channel_flags_are_unknown_options() {
        for gone in [
            "--wait-policy=yield",
            "--chan-backend=mpsc",
            "--stages=1,2,1",
            "--farm-width=2",
        ] {
            for stream in [&["--stream=2"][..], &[]] {
                let mut args = vec!["--kernel", "mandel_zoom", "--no-display", gone];
                args.extend_from_slice(stream);
                let err = run_easypap(args).expect_err(gone).to_string();
                assert!(err.contains("unknown option"), "{gone}: {err}");
            }
        }
    }
}
