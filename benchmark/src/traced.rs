//! The traced pass: one operation of the workload replayed in process,
//! calling the same public functions `crates/cli` calls in the same
//! order, each call wrapped in a span recorded from *this* file. The
//! spans give the ledger; a benchmark-owned [`Probe`] splits the kernel
//! call into tile compute, probe cost and dispatch/idle. The same
//! replay with the recorder off is the untraced side of
//! `ledger.trace_overhead`. Spans inside the programs themselves are a
//! later issue.

use crate::checks;
use crate::child::{Daemon, TempDir};
use crate::e2e::RunArgs;
use crate::layers;
use crate::report::RunResult;
use crate::serve_client::PairingClient;
use crate::spans::{self, Recorder, PARTS};
use crate::stats;
use crate::workloads::{Bin, Cmd, Expect, Kind, Workload, STREAM_FRAMES};
use ezp_core::json::{Json, ToJson};
use ezp_core::kernel::{IdleCause, MultiProbe, NullProbe, Probe, RuntimeEvent};
use ezp_core::params::DisplayMode;
use ezp_core::perf::run_kernel_boxed;
use ezp_core::{RunConfig, WorkerId};
use ezp_monitor::{activity, Monitor, UnifiedReport};
use ezp_perf::PerfProbe;
use ezp_serve::Response;
use ezp_trace::{Trace, TraceMeta};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Worker slots of the ledger probe; ranks beyond it fold onto the
/// low slots (only the per-slot sums are read, never a single slot).
const SLOTS: usize = 64;

/// One worker's running totals, alone on its cache line so the two
/// workers of a run do not bounce it between cores.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    // counter-only: each is written by the one thread serving the rank
    // and read after the region has been joined
    tile_start: AtomicU64,
    tile_ns: AtomicU64,
    probe_ns: AtomicU64,
    tiles: AtomicU64,
}

/// The benchmark's own [`Probe`]: timestamps every tile per worker,
/// times the calls into the probes the CLI would have installed
/// (`inner`), and — only when `events` is set, because listening makes
/// the scheduler read the clock per chunk — tallies [`RuntimeEvent`]s.
pub struct LedgerProbe {
    inner: Option<Arc<dyn Probe>>,
    events: bool,
    t0: Instant,
    slots: Vec<Slot>,
    // counter-only tallies, read after the run
    first_iteration_ns: AtomicU64,
    chunks: AtomicU64,
    steals_attempted: AtomicU64,
    steals_succeeded: AtomicU64,
    idle_ns: [AtomicU64; IdleCause::ALL.len()],
}

impl LedgerProbe {
    /// Wraps `inner` (the CLI's probe stack, `None` for perf mode);
    /// timestamps count from `t0`.
    pub fn new(inner: Option<Arc<dyn Probe>>, events: bool, t0: Instant) -> Self {
        LedgerProbe {
            inner,
            events,
            t0,
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            first_iteration_ns: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            steals_attempted: AtomicU64::new(0),
            steals_succeeded: AtomicU64::new(0),
            idle_ns: Default::default(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// `(attempted, succeeded)` steals tallied so far.
    pub fn steals(&self) -> (u64, u64) {
        (
            self.steals_attempted.load(Ordering::Relaxed),
            self.steals_succeeded.load(Ordering::Relaxed),
        )
    }

    fn sum(&self, f: impl Fn(&Slot) -> &AtomicU64) -> u64 {
        self.slots
            .iter()
            .map(|s| f(s).load(Ordering::Relaxed))
            .sum()
    }
}

impl Probe for LedgerProbe {
    fn iteration_start(&self, iteration: u32) {
        let _ = self.first_iteration_ns.compare_exchange(
            0,
            self.now().max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        if let Some(p) = &self.inner {
            p.iteration_start(iteration);
        }
    }
    fn iteration_end(&self, iteration: u32) {
        if let Some(p) = &self.inner {
            p.iteration_end(iteration);
        }
    }
    fn start_tile(&self, worker: WorkerId) {
        let slot = &self.slots[worker % SLOTS];
        let mut now = self.now();
        if let Some(p) = &self.inner {
            p.start_tile(worker);
            let after = self.now();
            slot.probe_ns.fetch_add(after - now, Ordering::Relaxed);
            now = after;
        }
        slot.tile_start.store(now, Ordering::Relaxed);
    }
    fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
        let slot = &self.slots[worker % SLOTS];
        let now = self.now();
        slot.tile_ns.fetch_add(
            now - slot.tile_start.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        slot.tiles.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.inner {
            p.end_tile(x, y, w, h, worker);
            slot.probe_ns.fetch_add(self.now() - now, Ordering::Relaxed);
        }
    }
    fn runtime_event(&self, worker: WorkerId, event: RuntimeEvent) {
        if self.events {
            match event {
                RuntimeEvent::ChunkDispensed { .. } => {
                    self.chunks.fetch_add(1, Ordering::Relaxed);
                }
                RuntimeEvent::Steals {
                    attempted,
                    succeeded,
                } => {
                    self.steals_attempted
                        .fetch_add(attempted, Ordering::Relaxed);
                    self.steals_succeeded
                        .fetch_add(succeeded, Ordering::Relaxed);
                }
                RuntimeEvent::IdleNs { ns, cause } => {
                    self.idle_ns[cause.index()].fetch_add(ns, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        if let Some(p) = &self.inner {
            p.runtime_event(worker, event);
        }
    }
    fn wants_runtime_events(&self) -> bool {
        self.events
            || self
                .inner
                .as_ref()
                .is_some_and(|p| p.wants_runtime_events())
    }
    fn dep_edge(&self, from: usize, to: usize, kind: ezp_core::kernel::EdgeKind) {
        if let Some(p) = &self.inner {
            p.dep_edge(from, to, kind);
        }
    }
    fn wants_dep_edges(&self) -> bool {
        self.inner.as_ref().is_some_and(|p| p.wants_dep_edges())
    }
}

/// Scheduler-event totals of the tally replay.
#[derive(Default)]
struct Tallies {
    chunks: u64,
    steals_succeeded: u64,
    idle_ns: [u64; IdleCause::ALL.len()],
    tiles: u64,
}

impl Tallies {
    fn absorb(&mut self, p: &LedgerProbe) {
        self.chunks += p.chunks.load(Ordering::Relaxed);
        self.steals_succeeded += p.steals_succeeded.load(Ordering::Relaxed);
        for (mine, theirs) in self.idle_ns.iter_mut().zip(&p.idle_ns) {
            *mine += theirs.load(Ordering::Relaxed);
        }
        self.tiles += p.sum(|s| &s.tiles);
    }
}

/// How one replay is instrumented.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Recorder off, the probe stack the CLI builds and nothing else.
    Untraced,
    /// Spans and tile timestamps: the replays the ledger is built from.
    Spans,
    /// Spans, tile timestamps and scheduler-event tallies. Listening to
    /// events makes the scheduler read the clock per chunk, so this
    /// replay feeds the tallies only, never the ledger.
    Tally,
}

/// `easypap --kernel K ...`: the classic run of `run_easypap`.
fn replay_kernel(
    rec: &mut Recorder,
    args: &[String],
    dir: &Path,
    mode: Mode,
    tallies: &mut Tallies,
) -> Result<(), String> {
    let e = |e: ezp_core::Error| e.to_string();
    let cfg = rec.span("parse_args", "core", "startup", |_| {
        RunConfig::parse_args(args.iter().map(String::as_str)).map_err(e)
    })?;
    let reg = rec.span("registry", "kernels", "startup", |_| {
        ezp_kernels::registry()
    });
    let wants_monitor = cfg.display == DisplayMode::Monitoring
        || cfg.trace
        || cfg.explain
        || cfg.trace_events.is_some();
    let monitor = if wants_monitor {
        let grid = cfg.grid().map_err(e)?;
        Some(rec.span("monitor_new", "monitor", "startup", |_| {
            Arc::new(Monitor::new(cfg.threads, grid))
        }))
    } else {
        None
    };
    let perf = if cfg.stats.is_some() || cfg.trace || cfg.explain || cfg.trace_events.is_some() {
        Some(rec.span("perf_probe_new", "perf", "startup", |_| {
            Arc::new(PerfProbe::new(cfg.threads))
        }))
    } else {
        None
    };
    let mut stack: Vec<Arc<dyn Probe>> = Vec::new();
    stack.extend(monitor.iter().map(|m| m.clone() as Arc<dyn Probe>));
    stack.extend(perf.iter().map(|p| p.clone() as Arc<dyn Probe>));
    let cli_probe: Option<Arc<dyn Probe>> =
        (!stack.is_empty()).then(|| Arc::new(MultiProbe::new(stack)) as Arc<dyn Probe>);
    let ledger_probe = (mode != Mode::Untraced).then(|| {
        Arc::new(LedgerProbe::new(
            cli_probe.clone(),
            mode == Mode::Tally,
            rec.t0,
        ))
    });
    let probe: Arc<dyn Probe> = match (&ledger_probe, cli_probe) {
        (Some(l), _) => l.clone(),
        (None, Some(p)) => p,
        (None, None) => Arc::new(NullProbe),
    };

    // everything `run_kernel_boxed` does besides the variant's compute
    // call (instantiate, allocate the image pair, init, final refresh)
    // is its self time: start-up
    let (outcome, ctx, kernel) = rec.span("run_kernel", "core", "startup", |rec| {
        let begin = rec.now_ns();
        let out = run_kernel_boxed(&reg, cfg.clone(), probe).map_err(e)?;
        if let Some(l) = &ledger_probe {
            let elapsed = out.0.elapsed_ns;
            let start = match l.first_iteration_ns.load(Ordering::Relaxed) {
                0 => rec.now_ns().saturating_sub(elapsed).max(begin),
                t => t.saturating_sub(1),
            };
            // the compute call: what is neither tile time nor probe
            // time is dispatch, barriers, pool spawn and parks
            let compute = rec.child(None, "compute", "sched", "dispatch_idle", start, elapsed);
            let workers = (cfg.threads * cfg.mpi_ranks).max(1) as u64;
            let tile_ns = l.sum(|s| &s.tile_ns) / workers;
            let probe_ns = l.sum(|s| &s.probe_ns) / workers;
            rec.child(compute, "tiles", "kernels", "compute", start, tile_ns);
            rec.child(
                compute,
                "tile_probes",
                "monitor",
                "probe",
                start + tile_ns,
                probe_ns,
            );
            if mode == Mode::Tally {
                tallies.absorb(l);
            }
        }
        Ok::<_, String>(out)
    })?;

    if cfg.display == DisplayMode::None {
        rec.span("append_csv", "core", "output", |_| {
            outcome.append_csv(dir.join("easypap.csv"), 0).map_err(e)
        })?;
    } else {
        rec.span("frame_dump", "core", "output", |_| {
            std::fs::write(
                dir.join(format!("{}-{}.ppm", cfg.kernel, cfg.variant)),
                ctx.images.cur().to_ppm(),
            )
            .map_err(|e| e.to_string())
        })?;
    }
    let report = monitor
        .as_ref()
        .map(|m| rec.span("monitor_report", "monitor", "probe", |_| m.report()));
    if let Some(report) = &report {
        if cfg.display == DisplayMode::Monitoring {
            rec.span("render_windows", "monitor", "output", |_| {
                let mut out = activity::render_report(report);
                if let Some(last) = report.iterations.last() {
                    out.push_str(&report.tiling_snapshot(last.iteration).to_ascii());
                    out.push_str(&report.heat_map(last.iteration).to_ascii());
                }
                std::hint::black_box(out.len())
            });
        }
        if cfg.trace {
            let trace = rec.span("trace_from_report", "trace", "output", |_| {
                let t = Trace::from_report(TraceMeta::from_config(&cfg), report);
                match &perf {
                    Some(p) => t.with_counters(p.snapshot()),
                    None => t,
                }
            });
            rec.span("trace_save", "trace", "output", |_| {
                ezp_trace::io::save(&trace, dir.join(&cfg.trace_file)).map_err(e)
            })?;
        }
    }
    if let (Some(_), Some(perf)) = (cfg.stats, &perf) {
        let (mut snapshot, spans) = rec.span("perf_snapshot", "perf", "probe", |_| {
            (perf.snapshot(), perf.span_snapshot())
        });
        for (name, per_worker) in kernel.stats_counters() {
            snapshot.push(&name, per_worker);
        }
        rec.span("unified_json", "monitor", "output", |_| {
            std::hint::black_box(
                UnifiedReport::new(report, snapshot, spans)
                    .to_json()
                    .dump()
                    .len(),
            )
        });
    }
    Ok(())
}

/// `easypap --kernel K --stream=N`: `run_stream` of the CLI.
/// `seq_frame_ns` is what one frame costs `run_seq` (measured once per
/// traced pass): frames × that ÷ workers is the compute the skeleton
/// executor had to place, the rest of `run_tuned` is the engine.
fn replay_stream(
    rec: &mut Recorder,
    args: &[String],
    mode: Mode,
    seq_frame_ns: f64,
    tallies: &mut Tallies,
) -> Result<(), String> {
    let e = |e: ezp_core::Error| e.to_string();
    let cfg = rec.span("parse_args", "core", "startup", |_| {
        RunConfig::parse_args(args.iter().map(String::as_str)).map_err(e)
    })?;
    let frames = cfg.stream_frames.unwrap_or(0);
    let kernel = rec
        .span("stream_kernel", "stream", "startup", |_| {
            ezp_stream::stream_kernel(&cfg.kernel)
        })
        .ok_or_else(|| format!("no streaming kernel `{}`", cfg.kernel))?;
    let mut pool = rec.span("acquire_pool", "sched", "startup", |_| {
        ezp_sched::acquire_pool(cfg.threads)
    });
    let farm_width = if cfg.farm_width == 0 {
        cfg.threads
    } else {
        cfg.farm_width
    };
    let ledger_probe = (mode == Mode::Tally).then(|| LedgerProbe::new(None, true, rec.t0));
    let probe: &dyn Probe = match &ledger_probe {
        Some(l) => l,
        None => &NullProbe,
    };
    rec.span("run_tuned", "stream", "dispatch_idle", |rec| {
        let start = rec.now_ns();
        let (outputs, stats) = kernel
            .run_tuned(
                cfg.dim,
                frames,
                cfg.stream_mode,
                farm_width,
                cfg.chan_tuning(),
                &mut pool,
                probe,
            )
            .map_err(e)?;
        if stats.frames != frames || outputs.len() != frames {
            return Err(format!("streamed {} of {frames} frames", stats.frames));
        }
        let compute_ns = seq_frame_ns * frames as f64 / cfg.threads as f64;
        rec.child(
            None,
            "frames",
            "stream",
            "compute",
            start,
            compute_ns as u64,
        );
        Ok(())
    })?;
    if let Some(l) = &ledger_probe {
        tallies.absorb(l);
    }
    rec.span("pool_drop", "sched", "startup", |_| drop(pool));
    Ok(())
}

/// `easyview explain trace.ezv`.
fn replay_explain(rec: &mut Recorder, args: &[String], dir: &Path) -> Result<(), String> {
    let file = args.last().ok_or("easyview: no trace argument")?;
    let trace = rec.span("trace_load", "trace", "analyze", |_| {
        ezp_trace::io::load(dir.join(file)).map_err(|e| e.to_string())
    })?;
    rec.span("explain", "view", "analyze", |_| {
        ezp_view::explain(&trace)
            .map(|r| std::hint::black_box(r.render().len()))
            .map_err(|e| e.to_string())
    })?;
    Ok(())
}

/// One operation of a CLI workload, in process.
fn replay_op(
    rec: &mut Recorder,
    op_id: u32,
    plan: &[Cmd],
    dir: &Path,
    mode: Mode,
    seq_frame_ns: f64,
    tallies: &mut Tallies,
) -> Result<(), String> {
    rec.operation(op_id, |rec| {
        for cmd in plan {
            match (cmd.bin, cmd.expect) {
                (Bin::Easypap, Expect::Frames(_)) => {
                    replay_stream(rec, &cmd.args, mode, seq_frame_ns, tallies)?
                }
                (Bin::Easypap, _) => replay_kernel(rec, &cmd.args, dir, mode, tallies)?,
                (Bin::Easyview, _) => replay_explain(rec, &cmd.args, dir)?,
            }
        }
        Ok(())
    })
}

/// What the replays of one workload produced.
struct Replays {
    /// Every span; those from `tally_start` on belong to the tally
    /// replay and stay out of the ledger.
    rec: Recorder,
    tally_start: usize,
    tallies: Tallies,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Alternates untraced and traced replays of one operation, then one
/// tally replay. `budget_s` bounds the wall spent; between 3 and
/// `max_ops` operations of each kind run.
fn run_replays(
    max_ops: usize,
    budget_s: f64,
    mut op: impl FnMut(&mut Recorder, u32, Mode, &mut Tallies) -> Result<(), String>,
) -> Replays {
    let mut r = Replays {
        rec: Recorder::new(true),
        tally_start: 0,
        tallies: Tallies::default(),
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut off = Recorder::new(false);
    // warm caches and lazily built state, untimed
    if let Err(e) = op(&mut off, 0, Mode::Untraced, &mut r.tallies) {
        r.errors.push(format!("warm-up replay: {e}"));
    }
    let begin = Instant::now();
    for i in 0..max_ops as u32 {
        if i >= 3 && begin.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        for mode in [Mode::Untraced, Mode::Spans] {
            let t = Instant::now();
            let rec = if mode == Mode::Spans {
                &mut r.rec
            } else {
                &mut off
            };
            let outcome = op(rec, i, mode, &mut r.tallies);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            r.attempted += 1;
            match outcome {
                Ok(()) if mode == Mode::Spans => r.traced_ms.push(ms),
                Ok(()) => r.untraced_ms.push(ms),
                Err(e) => {
                    r.failed += 1;
                    r.errors.push(e);
                }
            }
        }
    }
    r.attempted += 1;
    r.tally_start = r.rec.spans.len();
    if let Err(e) = op(&mut r.rec, max_ops as u32, Mode::Tally, &mut r.tallies) {
        r.failed += 1;
        r.errors.push(e);
    }
    r
}

fn replay_cli(a: &RunArgs) -> Result<Replays, String> {
    let w = a.workload;
    let plan = w.plan(a.seed);
    let dir = TempDir::new(&a.out_dir, &format!("{}-traced", w.name))
        .map_err(|e| format!("temp dir: {e}"))?;
    // what a frame costs when nothing but the kernel runs
    let seq_frame_ns = match plan.iter().find(|c| matches!(c.expect, Expect::Frames(_))) {
        Some(cmd) => {
            let cfg = RunConfig::parse_args(cmd.args.iter().map(String::as_str))
                .map_err(|e| e.to_string())?;
            let kernel = ezp_stream::stream_kernel(&cfg.kernel).ok_or("no streaming kernel")?;
            let frames = STREAM_FRAMES / 4;
            std::hint::black_box(kernel.run_seq(cfg.dim, frames));
            let t = Instant::now();
            std::hint::black_box(kernel.run_seq(cfg.dim, frames));
            t.elapsed().as_nanos() as f64 / frames as f64
        }
        None => 0.0,
    };
    Ok(run_replays(
        10,
        a.seconds * 0.4,
        |rec, op_id, mode, tallies| {
            replay_op(rec, op_id, &plan, dir.path(), mode, seq_frame_ns, tallies)
        },
    ))
}

/// `serve_jobs`: the client side only, against a spawned daemon —
/// write, wait for `accepted`, wait for `done`, with the kernel's own
/// `elapsed_ns` as the compute inside the wait and the rest of it the
/// daemon's overhead.
fn replay_serve(a: &RunArgs) -> Result<Replays, String> {
    let dir =
        TempDir::new(&a.out_dir, "serve_jobs-traced").map_err(|e| format!("temp dir: {e}"))?;
    let daemon = Daemon::spawn(&a.bins.easypap, dir.path(), 1, 2)?;
    let mut client = PairingClient::connect(&daemon.addr)?;
    let want = checks::job_digest(&Workload::job(0))?;
    let spec = Workload::job(0);
    let r = run_replays(400, a.seconds * 0.2, |rec, op_id, _mode, _tallies| {
        rec.operation(op_id, |rec| {
            rec.span("submit", "serve", "daemon_overhead", |rec| {
                let base = rec.t0;
                let p = client.submit(&spec)?;
                let ns = |t: Instant| t.duration_since(base).as_nanos() as u64;
                match &p.terminal {
                    Response::Done {
                        elapsed_ns, digest, ..
                    } if *digest == want => {
                        // in protocol order the kernel ran between the
                        // two frames; reordered, some time before `done`
                        let kernel_end = ns(p.finished);
                        rec.child(
                            None,
                            "kernel",
                            "kernels",
                            "compute",
                            kernel_end.saturating_sub(*elapsed_ns),
                            *elapsed_ns,
                        );
                        Ok(())
                    }
                    other => Err(format!("job not done correctly: {other:?}")),
                }
            })
        })
    });
    client.shutdown()?;
    drop(client);
    let admitted = checks::check_daemon_summary(&daemon.wait_summary()?)?;
    if admitted != r.attempted + 1 {
        return Err(format!(
            "daemon admitted {admitted} jobs, {} were sent",
            r.attempted + 1
        ));
    }
    Ok(r)
}

/// Runs the traced pass of one workload: replays, ledger, the
/// per-layer microbenchmarks, `trace_<workload>.json`.
pub fn run(a: &RunArgs) -> Result<RunResult, String> {
    let w = a.workload;
    let calib_before = layers::host_calib_ms();
    let r = match w.kind {
        Kind::Cli(_) => replay_cli(a)?,
        Kind::Serve => replay_serve(a)?,
    };
    if r.traced_ms.is_empty() || r.untraced_ms.is_empty() {
        return Err(format!("no replay of {} succeeded: {:?}", w.name, r.errors));
    }
    // parents only ever point backwards, so the prefix is self-contained
    let ledger = spans::ledger(&r.rec.spans[..r.tally_start]);
    let (traced, untraced) = (stats::median(&r.traced_ms), stats::median(&r.untraced_ms));

    let mut out = layers::Out::default();
    for part in PARTS {
        out.push(&format!("ledger.{part}_share"), ledger.share(part));
    }
    out.push("ledger.trace_overhead", traced / untraced - 1.0);
    out.push("ledger.op_ms", untraced);
    out.push("ledger.tiles_per_op", r.tallies.tiles as f64);
    out.push("ledger.chunks_per_op", r.tallies.chunks as f64);
    out.push("ledger.steals_per_op", r.tallies.steals_succeeded as f64);
    for cause in IdleCause::ALL {
        out.push(
            &format!("ledger.idle_ms.{}", cause.label()),
            r.tallies.idle_ns[cause.index()] as f64 / 1e6,
        );
    }
    layers::run_all(a, &mut out)?;
    let calib_after = layers::host_calib_ms();
    out.push("host.calib_ms", stats::median(&[calib_before, calib_after]));
    out.push("host.calib_drift", calib_after / calib_before);

    // spans are kept in memory until here and written once
    let (nproc, cpu_model) = crate::procfs::host_info();
    let meta = Json::obj([
        ("workload", w.name.to_json()),
        ("seed", a.seed.to_json()),
        ("nproc", nproc.to_json()),
        ("cpu_model", cpu_model.to_json()),
        ("traced_operations", r.traced_ms.len().to_json()),
        (
            "note",
            "pid = traced operation; the last pid is the tally replay (scheduler events on), \
             excluded from the ledger"
                .to_json(),
        ),
        (
            "ledger",
            Json::Obj(
                ledger
                    .shares
                    .iter()
                    .map(|(p, s)| (p.to_string(), Json::Float(*s)))
                    .collect(),
            ),
        ),
    ]);
    let path = a.out_dir.join(format!("trace_{}.json", w.name));
    std::fs::write(&path, spans::to_chrome(&r.rec.spans, meta).dump())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut problems = r.errors;
    let sum: f64 = ledger.shares.iter().map(|(_, s)| s).sum();
    if (sum - 1.0).abs() > 1e-6 {
        problems.push(format!("ledger shares sum to {sum}, not 1"));
    }
    let mut notes = vec![
        format!(
            "{} traced / {} untraced replays, spans in {}",
            r.traced_ms.len(),
            r.untraced_ms.len(),
            path.display()
        ),
        format!("host.calib_ms {calib_before:.2} before, {calib_after:.2} after"),
    ];
    if ledger.share("unattributed") > 0.10 {
        notes.push(format!(
            "unattributed share {:.3} is above 0.10",
            ledger.share("unattributed")
        ));
    }
    Ok(RunResult {
        metrics: out.into_metrics(),
        attempted: r.attempted,
        failed: r.failed,
        problems,
        notes,
    })
}
