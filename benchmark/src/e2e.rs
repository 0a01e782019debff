//! The untraced pass: set-up, a closed loop of operations for
//! `--seconds`, and the end-to-end metrics a user of the programs would
//! see — all taken from outside, by spawning `easypap` / `easyview` or
//! talking TCP to a spawned `easypap serve`.

use crate::checks::{self, CsvTail, Reference};
use crate::child::{self, Bins, Daemon, TempDir};
use crate::procfs;
use crate::serve_client::PairingClient;
use crate::stats;
use crate::workloads::{
    Bin, Cmd, Expect, Kind, Workload, SERVE_CONNECTIONS, STREAM_FRAMES, WARMUP_OPS,
};
use ezp_core::RunConfig;
use ezp_serve::Response;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Latency booked for a failed or refused operation: beyond any limit
/// a percentile could be compared with, yet still a JSON number.
const BEYOND_MS: f64 = 1e12;

/// Set-up is repeated (fresh directory, fresh daemon, fresh warm-up)
/// at least this often and `setup_s` is the median ...
const MIN_SETUPS: usize = 3;
/// ... and more often, up to this, while the repeats are cheap.
const MAX_SETUPS: usize = 15;
/// Wall budget for the extra set-up repeats.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// The end-to-end metrics, `(name, unit, better)`, in report order.
/// A listed metric is a gate, so four figures of the issue are notes
/// of every run instead:
/// * `failed_share` — a metric must never read 0 and this one always
///   should; it is the `failed` ÷ `attempted` of every result;
/// * `op_ms_tail` and `mpix_per_s` — on `serve_jobs`, ten runs of the
///   same code spread 21..29 % of their median on the driver's host
///   against the 25 % a bound may be, while the median held; on the
///   single-client workloads they say what `op_ms_p50` says (one
///   client in a closed loop completes 1 ÷ mean latency per second);
/// * `cpu_ms_per_op` — bimodal on `dispatch_fine` (268..397 ms at a
///   steady 213 ms wall: whether an idle worker spins or parks).
pub const E2E_METRICS: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("reported_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// What one invocation was asked to do.
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The programs under test.
    pub bins: Bins,
    /// Directory the scratch directories are created in.
    pub out_dir: PathBuf,
}

/// Result of the untraced pass.
#[derive(Debug, Default)]
pub struct E2e {
    /// `(metric, value, unit)` for every end-to-end metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed any check.
    pub failed: u64,
    /// Failed checks outside the timed operations (warm-up, references,
    /// final output checks); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Context for the reader: the latency percentile ladder, CPU per
    /// operation, whether the tail had ten samples beyond it.
    pub notes: Vec<String>,
}

/// One timed (or warm-up) operation.
struct OpResult {
    wall_ms: f64,
    reported_ms: f64,
    error: Option<String>,
}

/// A workload directory with its generated operation.
struct CliSetup {
    dir: TempDir,
    plan: Vec<Cmd>,
    csv: CsvTail,
    ops_run: usize,
    warmup_errors: Vec<String>,
}

fn program<'a>(bins: &'a Bins, cmd: &Cmd) -> &'a Path {
    match cmd.bin {
        Bin::Easypap => &bins.easypap,
        Bin::Easyview => &bins.easyview,
    }
}

/// Runs the children of one operation back to back; the clock covers
/// spawn through exit status collected, the checks run after it stops.
fn run_cli_op(bins: &Bins, refs: &[Option<Reference>], s: &mut CliSetup) -> OpResult {
    let t0 = Instant::now();
    let outputs: Vec<_> = s
        .plan
        .iter()
        .map(|cmd| child::run_to_end(program(bins, cmd), &cmd.args, s.dir.path()))
        .collect();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    s.ops_run += 1;

    let mut reported_ms = 0.0;
    let mut check = || -> Result<(), String> {
        for ((cmd, reference), output) in s.plan.iter().zip(refs).zip(&outputs) {
            let output = output
                .as_ref()
                .map_err(|e| format!("spawn {:?}: {e}", cmd.args))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let printed =
                checks::check_output(cmd, reference.as_ref(), output.status.success(), &stdout)?;
            if !cmd.appends_csv() {
                reported_ms += printed.unwrap_or(0.0);
            }
        }
        // perf-mode runs also log their time to the CSV, in µs: the
        // same figure as the printed line at a resolution that does
        // not quantise a 2 ms run to "0 ms"
        let want_rows = s.plan.iter().filter(|c| c.appends_csv()).count();
        if want_rows > 0 {
            let rows = s.csv.new_rows_us()?;
            if rows.len() != want_rows {
                return Err(format!(
                    "easypap.csv grew by {} rows, wanted {want_rows}",
                    rows.len()
                ));
            }
            reported_ms += rows.iter().sum::<u64>() as f64 / 1e3;
        }
        Ok(())
    };
    let error = check().err();
    OpResult {
        wall_ms,
        reported_ms,
        error,
    }
}

/// Repeats `setup` from scratch and returns the last state, the median
/// set-up time in seconds, and the problems `teardown` reported for the
/// states before it. Only `setup` is on the clock.
fn repeat_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S) -> Vec<String>,
) -> Result<(S, f64, Vec<String>), String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    let mut problems = Vec::new();
    loop {
        let t = Instant::now();
        let state = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS
            && (times.len() >= MAX_SETUPS || begin.elapsed() >= SETUP_BUDGET)
        {
            return Ok((state, stats::median(&times), problems));
        }
        problems.extend(teardown(state));
    }
}

/// CPU milliseconds this process, its reaped children and (when given)
/// a live daemon have used so far.
fn cpu_ms(daemon_pid: Option<u32>) -> f64 {
    let me = procfs::cpu_ticks("self");
    let daemon = daemon_pid.map_or(0, |pid| procfs::cpu_ticks(&pid.to_string()).own);
    (me.own + me.reaped_children + daemon) as f64 * procfs::MS_PER_TICK
}

/// Folds the timed operations into the metric list.
#[allow(clippy::too_many_arguments)]
fn summarize(
    w: &Workload,
    setup_s: f64,
    ops: &[OpResult],
    phase_s: f64,
    cpu_ms_total: f64,
    peak_rss_kb: u64,
    problems: Vec<String>,
) -> E2e {
    let n = ops.len();
    let ok = |o: &&OpResult| o.error.is_none();
    let lat = stats::sorted(
        ops.iter()
            .map(|o| {
                if o.error.is_none() {
                    o.wall_ms
                } else {
                    BEYOND_MS
                }
            })
            .collect(),
    );
    let reported = stats::sorted(
        ops.iter()
            .map(|o| {
                if o.error.is_none() {
                    o.reported_ms
                } else {
                    BEYOND_MS
                }
            })
            .collect(),
    );
    let done = ops.iter().filter(ok).count();
    let values = [
        setup_s,
        stats::percentile(&lat, 50),
        stats::percentile(&reported, 50),
        peak_rss_kb as f64 / 1024.0,
    ];
    let ladder = [10, 25, 50, 75, 90, 95, 99]
        .map(|p| format!("p{p} {:.3}", stats::percentile(&lat, p)))
        .join(", ");
    let tail = match stats::tail_percentile(n) {
        Some(p) => format!(
            "op_ms_tail {:.3} (p{p}, the highest percentile with ten of {n} samples beyond it)",
            stats::percentile(&lat, p)
        ),
        None => format!("op_ms_tail: {n} samples leave no percentile with ten beyond it"),
    };
    let notes = vec![
        format!("{n} timed operations, op_ms {ladder}"),
        tail,
        format!(
            "mpix_per_s {:.4} over the whole timed phase",
            done as f64 * w.mpix_per_op / phase_s
        ),
        format!(
            "cpu_ms_per_op {:.3} (user+system of children, client threads and daemon)",
            cpu_ms_total / n as f64
        ),
    ];
    E2e {
        metrics: E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name, v, unit))
            .collect(),
        attempted: n as u64,
        failed: (n - done) as u64,
        problems,
        notes,
    }
}

fn run_cli(a: &RunArgs) -> Result<E2e, String> {
    let w = a.workload;
    let mut problems = Vec::new();

    // Untimed: what the in-process `seq` reference says each command
    // must produce. Not part of set-up — it is the benchmark checking
    // the program, not the program getting ready.
    let refs: Vec<Option<Reference>> = w
        .plan(a.seed)
        .iter()
        .map(|cmd| match cmd.expect {
            Expect::Iterations => checks::reference(&cmd.args).map(Some),
            Expect::Frames(_) => {
                checks::stream_reference(&cmd.args, STREAM_FRAMES / 10).map(|()| None)
            }
            Expect::Explain => Ok(None),
        })
        .collect::<Result<_, _>>()?;

    let (mut setup, setup_s, earlier) = repeat_setup(
        || {
            let dir = TempDir::new(&a.out_dir, w.name).map_err(|e| format!("temp dir: {e}"))?;
            let csv = CsvTail::new(dir.path());
            let mut s = CliSetup {
                dir,
                plan: w.plan(a.seed),
                csv,
                ops_run: 0,
                warmup_errors: Vec::new(),
            };
            for _ in 0..WARMUP_OPS {
                let op = run_cli_op(&a.bins, &refs, &mut s);
                s.warmup_errors.extend(op.error);
            }
            Ok(s)
        },
        |s| s.warmup_errors,
    )?;
    problems.extend(
        earlier
            .into_iter()
            .chain(setup.warmup_errors.drain(..))
            .map(|e| format!("warm-up: {e}")),
    );

    let cpu0 = cpu_ms(None);
    let phase = Instant::now();
    let mut ops = Vec::new();
    while phase.elapsed().as_secs_f64() < a.seconds {
        ops.push(run_cli_op(&a.bins, &refs, &mut setup));
    }
    let phase_s = phase.elapsed().as_secs_f64();
    let cpu_ms_total = cpu_ms(None) - cpu0;
    for op in ops.iter().filter_map(|o| o.error.as_ref()).take(5) {
        eprintln!("note: failed operation: {op}");
    }

    // one extra untimed operation, polled for its peak resident set
    let mut peak_rss_kb = 0;
    for cmd in &setup.plan {
        let name = program(&a.bins, cmd)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let polled = child::spawn_detached_io(program(&a.bins, cmd), &cmd.args, setup.dir.path())
            .and_then(|mut c| procfs::poll_peak_rss_kb(&mut c, name));
        match polled {
            Ok((kb, true)) => peak_rss_kb = peak_rss_kb.max(kb),
            Ok((_, false)) => {
                problems.push(format!("rss operation {:?} exited non-zero", cmd.args))
            }
            Err(e) => problems.push(format!("rss operation {:?}: {e}", cmd.args)),
        }
    }
    setup.ops_run += 1;

    // what the directory holds after all that
    let rows_per_op = setup.plan.iter().filter(|c| c.appends_csv()).count();
    if rows_per_op > 0 {
        match setup.csv.new_rows_us() {
            Ok(_) if setup.csv.rows == rows_per_op * setup.ops_run => {}
            Ok(_) => problems.push(format!(
                "easypap.csv holds {} rows after {} operations of {rows_per_op}",
                setup.csv.rows, setup.ops_run
            )),
            Err(e) => problems.push(e),
        }
    }
    for (cmd, reference) in setup.plan.iter().zip(&refs) {
        let Some(reference) = reference else { continue };
        let cfg = RunConfig::parse_args(cmd.args.iter().map(String::as_str))
            .map_err(|e| e.to_string())?;
        if cfg.trace {
            let tiles = cfg.grid().map_err(|e| e.to_string())?.len();
            let path = setup.dir.path().join(&cfg.trace_file);
            problems.extend(checks::check_trace(&path, tiles, reference.iterations).err());
        }
        if !cmd.appends_csv() {
            // display modes dump the final frame: it must be the
            // reference image, byte for byte
            let frame = setup
                .dir
                .path()
                .join(format!("{}-{}.ppm", cfg.kernel, cfg.variant));
            match std::fs::read(&frame) {
                Ok(bytes) if bytes == reference.ppm => {}
                Ok(_) => problems.push(format!(
                    "{} differs from the seq reference",
                    frame.display()
                )),
                Err(e) => problems.push(format!("{}: {e}", frame.display())),
            }
        }
    }
    Ok(summarize(
        w,
        setup_s,
        &ops,
        phase_s,
        cpu_ms_total,
        peak_rss_kb,
        problems,
    ))
}

/// A spawned daemon with its connected clients.
struct ServeSetup {
    _dir: TempDir,
    daemon: Daemon,
    clients: Vec<TcpClient>,
    jobs_sent: u64,
    warmup_errors: Vec<String>,
}

type TcpClient = PairingClient<std::io::BufReader<std::net::TcpStream>, std::net::TcpStream>;

/// Submits one job and checks its `done` frame against the digest of
/// the in-process `seq` run of the same spec.
fn run_job(client: &mut TcpClient, conn: usize, want_digest: &str) -> (OpResult, bool) {
    let spec = Workload::job(conn);
    match client.submit(&spec) {
        Ok(p) => {
            let wall_ms = p.latency().as_secs_f64() * 1e3;
            let (reported_ms, error) = match &p.terminal {
                Response::Done {
                    elapsed_ns,
                    iterations,
                    digest,
                    ..
                } if digest == want_digest && *iterations == spec.iterations => {
                    (*elapsed_ns as f64 / 1e6, None)
                }
                Response::Done {
                    digest, iterations, ..
                } => (
                    0.0,
                    Some(format!(
                        "done with digest {digest} after {iterations} iterations"
                    )),
                ),
                other => (0.0, Some(format!("job not done: {other:?}"))),
            };
            (
                OpResult {
                    wall_ms,
                    reported_ms,
                    error,
                },
                p.out_of_order,
            )
        }
        Err(e) => (
            OpResult {
                wall_ms: 0.0,
                reported_ms: 0.0,
                error: Some(e),
            },
            false,
        ),
    }
}

/// Stops a daemon with the `shutdown` request and checks its summary
/// accounts for exactly the jobs this benchmark sent it. Returns every
/// problem the set-up has seen, warm-up included.
fn stop_daemon(mut s: ServeSetup) -> Vec<String> {
    let mut problems = std::mem::take(&mut s.warmup_errors);
    let jobs_sent = s.jobs_sent;
    let ack = s.clients[0].shutdown();
    s.clients.clear();
    let admitted = ack
        .and_then(|()| s.daemon.wait_summary())
        .and_then(|summary| checks::check_daemon_summary(&summary));
    match admitted {
        Ok(admitted) if admitted == jobs_sent => {}
        Ok(admitted) => problems.push(format!(
            "daemon admitted {admitted} jobs, {jobs_sent} were sent"
        )),
        Err(e) => problems.push(e),
    }
    problems
}

fn run_serve(a: &RunArgs) -> Result<E2e, String> {
    let w = a.workload;
    let mut problems = Vec::new();
    let want_digest = checks::job_digest(&Workload::job(0))?;

    let (mut setup, setup_s, earlier) = repeat_setup(
        || {
            let dir = TempDir::new(&a.out_dir, w.name).map_err(|e| format!("temp dir: {e}"))?;
            let daemon = Daemon::spawn(&a.bins.easypap, dir.path(), 1, 2)?;
            let clients = (0..SERVE_CONNECTIONS)
                .map(|_| PairingClient::connect(&daemon.addr))
                .collect::<Result<Vec<_>, _>>()?;
            let mut s = ServeSetup {
                _dir: dir,
                daemon,
                clients,
                jobs_sent: 0,
                warmup_errors: Vec::new(),
            };
            for i in 0..WARMUP_OPS {
                let conn = i % SERVE_CONNECTIONS;
                let (op, _) = run_job(&mut s.clients[conn], conn, &want_digest);
                s.warmup_errors.extend(op.error);
                s.jobs_sent += 1;
            }
            Ok(s)
        },
        stop_daemon,
    )?;
    problems.extend(earlier);

    let pid = setup.daemon.pid();
    let cpu0 = cpu_ms(Some(pid));
    let phase = Instant::now();
    let seconds = a.seconds;
    let per_conn: Vec<Vec<(OpResult, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let want = want_digest.as_str();
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    while phase.elapsed().as_secs_f64() < seconds {
                        ops.push(run_job(client, conn, want));
                        if ops.last().is_some_and(|(o, _)| o.error.is_some()) {
                            // the connection is dead or out of step:
                            // every later job on it would fail the same way
                            break;
                        }
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let phase_s = phase.elapsed().as_secs_f64();
    let cpu_ms_total = cpu_ms(Some(pid)) - cpu0;
    let (ops, reordered): (Vec<OpResult>, Vec<bool>) = per_conn.into_iter().flatten().unzip();
    setup.jobs_sent += ops.len() as u64;
    eprintln!(
        "note: {} of {} jobs had `done` arrive before `accepted`",
        reordered.iter().filter(|&&r| r).count(),
        ops.len()
    );
    for op in ops.iter().filter_map(|o| o.error.as_ref()).take(5) {
        eprintln!("note: failed operation: {op}");
    }

    // the extra untimed operation; the daemon's high-water mark covers
    // everything it has done so far
    problems.extend(run_job(&mut setup.clients[0], 0, &want_digest).0.error);
    setup.jobs_sent += 1;
    let peak_rss_kb = procfs::peak_rss_kb(pid);
    problems.extend(stop_daemon(setup));
    Ok(summarize(
        w,
        setup_s,
        &ops,
        phase_s,
        cpu_ms_total,
        peak_rss_kb,
        problems,
    ))
}

/// Runs the untraced pass of one workload.
pub fn run(a: &RunArgs) -> Result<E2e, String> {
    match a.workload.kind {
        Kind::Cli(_) => run_cli(a),
        Kind::Serve => run_serve(a),
    }
}
