//! Per-layer metrics: short timings of each crate's public functions,
//! taken from this file. A layer is a crate; every metric names the
//! end-to-end metric and workload it should move, and everything a
//! metric does not name is predicted not to move with it.
//!
//! The figures are medians of a few short samples on a shared 2-vCPU
//! host. They have no regression bound; they exist to say *where* an
//! end-to-end change came from.

use crate::e2e::RunArgs;
use crate::serve_client::PairingClient;
use crate::stats;
use crate::traced::LedgerProbe;
use crate::workloads::split_args;
use ezp_chan::{bounded, spsc};
use ezp_core::json::{FromJson, Json, ToJson};
use ezp_core::kernel::{NullProbe, Probe};
use ezp_core::perf::run_kernel;
use ezp_core::{
    ChanBackendKind, ChanTuning, EmitMode, KernelCtx, RunConfig, Schedule, TileGrid, WaitPolicy,
};
use ezp_monitor::{activity, Monitor, UnifiedReport};
use ezp_perf::PerfProbe;
use ezp_sched::{
    parallel_for_range, parallel_for_range_probed, PipeShape, PipeStage, PoolMux, TaskGraph,
    WorkerPool,
};
use ezp_serve::proto::{read_frame, write_frame, FrameIn};
use ezp_serve::{
    Admission, JobSpec, JobTicket, NullSink, Response, ServeConfig, ServeMetrics, Server,
};
use ezp_simsched::{simulate, CostMap, SimConfig};
use ezp_trace::{Trace, TraceMeta};
use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

/// One per-layer metric: what `BENCHMARK.json` lists plus the layer it
/// measures and the `metric@workload` pairs it is predicted to move.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The crate measured.
    pub layer: &'static str,
    /// Space-separated `metric@workload` pairs, or `none` for figures
    /// kept as context (the paper's claims, the host calibration).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const SWEEP: &str = "op_ms_p50@sweep_tiny";
const SERVE: &str = "op_ms_p50@serve_jobs";
const OBSERVE: &str = "op_ms_p50@observe_record";
const STREAM: &str = "reported_ms_p50@stream_engine op_ms_p50@stream_engine";
const LEDGER: &str = "none";

/// Every per-layer metric, in emission order.
pub const LAYER_METRICS: [LayerMetric; 88] = [
    m("ledger.startup_share", "ratio", "lower", "ledger", LEDGER),
    m(
        "ledger.dispatch_idle_share",
        "ratio",
        "lower",
        "ledger",
        LEDGER,
    ),
    m("ledger.compute_share", "ratio", "higher", "ledger", LEDGER),
    m("ledger.probe_share", "ratio", "lower", "ledger", LEDGER),
    m("ledger.output_share", "ratio", "lower", "ledger", LEDGER),
    m("ledger.analyze_share", "ratio", "lower", "ledger", LEDGER),
    m(
        "ledger.daemon_overhead_share",
        "ratio",
        "lower",
        "ledger",
        LEDGER,
    ),
    m(
        "ledger.unattributed_share",
        "ratio",
        "lower",
        "ledger",
        LEDGER,
    ),
    m("ledger.trace_overhead", "ratio", "lower", "ledger", LEDGER),
    m("ledger.op_ms", "ms", "lower", "ledger", LEDGER),
    m("ledger.tiles_per_op", "count", "lower", "ledger", LEDGER),
    m("ledger.chunks_per_op", "count", "lower", "ledger", LEDGER),
    m("ledger.steals_per_op", "count", "lower", "ledger", LEDGER),
    m("ledger.idle_ms.dep_stall", "ms", "lower", "ledger", LEDGER),
    m("ledger.idle_ms.steal", "ms", "lower", "ledger", LEDGER),
    m("ledger.idle_ms.barrier", "ms", "lower", "ledger", LEDGER),
    m("ledger.idle_ms.pool_park", "ms", "lower", "ledger", LEDGER),
    m(
        "ledger.idle_ms.backpressure",
        "ms",
        "lower",
        "ledger",
        LEDGER,
    ),
    m("core.parse_args_us", "us", "lower", "core", SWEEP),
    m("core.registry_build_us", "us", "lower", "core", SWEEP),
    m("core.ctx_new_us.64", "us", "lower", "core", SWEEP),
    m("core.ctx_new_us.1024", "us", "lower", "core", SWEEP),
    m("core.csv_append_us", "us", "lower", "core", SWEEP),
    m(
        "core.json_dump_mb_s",
        "MB/s",
        "higher",
        "core",
        "op_ms_p50@serve_jobs op_ms_p50@observe_record",
    ),
    m(
        "core.json_parse_mb_s",
        "MB/s",
        "higher",
        "core",
        "op_ms_p50@serve_jobs op_ms_p50@observe_record",
    ),
    m("cli.spawn_ms", "ms", "lower", "cli", SWEEP),
    m("cli.null_spawn_ms", "ms", "lower", "cli", SWEEP),
    m("sched.pool_spawn_us", "us", "lower", "sched", SWEEP),
    m("sched.mux_lease_us", "us", "lower", "sched", SERVE),
    m(
        "sched.region_ns",
        "ns",
        "lower",
        "sched",
        "reported_ms_p50@dispatch_fine",
    ),
    m("sched.chunk_ns.static", "ns", "lower", "sched", "none"),
    m(
        "sched.chunk_ns.dynamic1",
        "ns",
        "lower",
        "sched",
        "reported_ms_p50@dispatch_fine",
    ),
    m("sched.chunk_ns.guided1", "ns", "lower", "sched", "none"),
    m(
        "sched.chunk_ns.nonmonotonic1",
        "ns",
        "lower",
        "sched",
        "none",
    ),
    m(
        "sched.task_ns",
        "ns",
        "lower",
        "sched",
        "reported_ms_p50@stream_engine",
    ),
    m(
        "sched.task_dep_ns",
        "ns",
        "lower",
        "sched",
        "reported_ms_p50@stream_engine",
    ),
    m(
        "sched.skeleton_compile_us",
        "us",
        "lower",
        "sched",
        "reported_ms_p50@stream_engine",
    ),
    m(
        "sched.steal_success_ratio",
        "ratio",
        "higher",
        "sched",
        "none",
    ),
    m(
        "kernels.mandel.seq.ns_px",
        "ns",
        "lower",
        "kernels",
        "reported_ms_p50@perf_mandel",
    ),
    m(
        "kernels.mandel.omp_tiled.ns_px",
        "ns",
        "lower",
        "kernels",
        "reported_ms_p50@perf_mandel",
    ),
    m(
        "kernels.mandel.efficiency_2t",
        "ratio",
        "higher",
        "kernels",
        "reported_ms_p50@perf_mandel",
    ),
    m(
        "kernels.blur.omp_tiled.ns_px",
        "ns",
        "lower",
        "kernels",
        "none",
    ),
    m(
        "kernels.blur.omp_tiled_opt.ns_px",
        "ns",
        "lower",
        "kernels",
        "none",
    ),
    m(
        "kernels.scrollup.omp_tiled.ns_px",
        "ns",
        "lower",
        "kernels",
        "reported_ms_p50@dispatch_fine",
    ),
    m(
        "kernels.mandel.seq64_us",
        "us",
        "lower",
        "kernels",
        "reported_ms_p50@serve_jobs",
    ),
    m(
        "kernels.life.omp_tiled.ns_px",
        "ns",
        "lower",
        "kernels",
        "none",
    ),
    m("kernels.life.lazy.ns_px", "ns", "lower", "kernels", "none"),
    m("kernels.ccomp.seq.ns_px", "ns", "lower", "kernels", "none"),
    m(
        "kernels.ccomp.taskdep.ns_px",
        "ns",
        "lower",
        "kernels",
        "none",
    ),
    m(
        "chan.spsc_ns_msg",
        "ns",
        "lower",
        "chan",
        "op_ms_p50@observe_record op_ms_p50@stream_engine",
    ),
    m(
        "chan.spsc_threaded_ns_msg",
        "ns",
        "lower",
        "chan",
        "op_ms_p50@observe_record op_ms_p50@stream_engine",
    ),
    m(
        "chan.mpmc2_ns_msg",
        "ns",
        "lower",
        "chan",
        "op_ms_p50@stream_engine op_ms_p50@sweep_tiny",
    ),
    m("chan.mpsc_backend_ns_msg", "ns", "lower", "chan", "none"),
    m(
        "chan.full_stall_ratio",
        "ratio",
        "lower",
        "chan",
        "op_ms_p50@stream_engine",
    ),
    m(
        "monitor.tile_record_ns",
        "ns",
        "lower",
        "monitor",
        "op_ms_p50@observe_record reported_ms_p50@observe_record",
    ),
    m("monitor.report_ms", "ms", "lower", "monitor", OBSERVE),
    m("monitor.render_ascii_ms", "ms", "lower", "monitor", OBSERVE),
    m(
        "monitor.unified_json_ms",
        "ms",
        "lower",
        "monitor",
        "op_ms_p50@observe_record op_ms_p50@serve_jobs",
    ),
    m(
        "perf.tile_probe_ns",
        "ns",
        "lower",
        "perf",
        "op_ms_p50@observe_record reported_ms_p50@observe_record op_ms_p50@serve_jobs",
    ),
    m(
        "perf.snapshot_us",
        "us",
        "lower",
        "perf",
        "op_ms_p50@observe_record op_ms_p50@serve_jobs",
    ),
    m(
        "perf.overhead_ratio",
        "ratio",
        "lower",
        "perf",
        "reported_ms_p50@observe_record",
    ),
    m("trace.from_report_ms", "ms", "lower", "trace", OBSERVE),
    m("trace.encode_ns_task", "ns", "lower", "trace", OBSERVE),
    m("trace.decode_ns_task", "ns", "lower", "trace", OBSERVE),
    m("trace.bytes_per_task", "B", "lower", "trace", OBSERVE),
    m("trace.chrome_ns_task", "ns", "lower", "trace", "none"),
    m("view.explain_ms", "ms", "lower", "view", OBSERVE),
    m("view.gantt_ms", "ms", "lower", "view", "none"),
    m("render.ppm_ms.1024", "ms", "lower", "render", OBSERVE),
    m("render.downscale_ms", "ms", "lower", "render", "none"),
    m("simsched.sim_ns_tile", "ns", "lower", "simsched", OBSERVE),
    m("stream.frame_us.seq", "us", "lower", "stream", STREAM),
    m("stream.frame_us.ordered", "us", "lower", "stream", STREAM),
    m("stream.frame_us.unordered", "us", "lower", "stream", "none"),
    m("stream.overhead_us_frame", "us", "lower", "stream", STREAM),
    m(
        "stream.backpressure_stalls_per_frame",
        "ratio",
        "lower",
        "stream",
        STREAM,
    ),
    m("stream.max_in_flight", "count", "higher", "stream", STREAM),
    m("serve.frame_encode_ns", "ns", "lower", "serve", SERVE),
    m("serve.frame_decode_ns", "ns", "lower", "serve", SERVE),
    m("serve.admission_ns", "ns", "lower", "serve", SERVE),
    m("serve.roundtrip_us_p50", "us", "lower", "serve", SERVE),
    m("serve.lease_wait_share", "ratio", "lower", "serve", SERVE),
    m("serve.reject_share", "ratio", "lower", "serve", SERVE),
    m(
        "serve.frames_out_of_order",
        "count",
        "lower",
        "serve",
        SERVE,
    ),
    m("mpi.sendrecv_us", "us", "lower", "mpi", SWEEP),
    m("mpi.life_mpi_omp.ns_px", "ns", "lower", "mpi", SWEEP),
    m("host.calib_ms", "ms", "lower", "host", "none"),
    m("host.calib_drift", "ratio", "lower", "host", "none"),
];

/// Median wall nanoseconds of `samples` calls of `f`, after one call
/// that warms caches and lazily built state.
fn time_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let runs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&runs)
}

/// A fixed xorshift spin: the same arithmetic every time, so its wall
/// time only moves when a noisy neighbour (or frequency scaling) does.
pub fn host_calib_ms() -> f64 {
    time_ns(3, || {
        let mut acc = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4_000_000 {
            acc ^= acc << 13;
            acc ^= acc >> 7;
            acc ^= acc << 17;
        }
        black_box(acc);
    }) / 1e6
}

/// Collects `(name, value)` pairs and looks each unit up in
/// [`LAYER_METRICS`], so an unlisted name cannot be emitted.
#[derive(Default)]
pub struct Out(Vec<(String, f64, String)>);

impl Out {
    /// Records `value` for the listed metric `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        let def = LAYER_METRICS
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not in LAYER_METRICS"));
        self.0
            .push((def.name.to_string(), value, def.unit.to_string()));
    }

    /// `(name, value, unit)` of everything recorded.
    pub fn into_metrics(self) -> Vec<(String, f64, String)> {
        self.0
    }
}

fn cfg_of(line: &str) -> Result<RunConfig, String> {
    RunConfig::parse_args(split_args(line)).map_err(|e| e.to_string())
}

const MANDEL_ARGS: &str =
    "--kernel mandel --variant omp_tiled --size 512 --tile-size 16 --iterations 15 --threads 2 --no-display";

fn core(out: &mut Out, a: &RunArgs) -> Result<(), String> {
    let args = split_args(MANDEL_ARGS);
    out.push(
        "core.parse_args_us",
        time_ns(5, || {
            for _ in 0..200 {
                black_box(RunConfig::parse_args(&args).expect("valid arguments"));
            }
        }) / 200.0
            / 1e3,
    );
    out.push(
        "core.registry_build_us",
        time_ns(5, || {
            for _ in 0..50 {
                black_box(ezp_kernels::registry());
            }
        }) / 50.0
            / 1e3,
    );
    for (name, dim) in [("core.ctx_new_us.64", 64), ("core.ctx_new_us.1024", 1024)] {
        let cfg = RunConfig::new("mandel").size(dim).tile(16);
        out.push(
            name,
            time_ns(9, || {
                black_box(KernelCtx::new(cfg.clone()).expect("valid geometry"));
            }) / 1e3,
        );
    }
    let dir =
        crate::child::TempDir::new(&a.out_dir, "layers").map_err(|e| format!("temp dir: {e}"))?;
    let reg = ezp_kernels::registry();
    let (outcome, _) = run_kernel(
        &reg,
        cfg_of(
            "--kernel mandel --variant seq --size 64 --tile-size 16 --iterations 1 --no-display",
        )?,
        Arc::new(NullProbe),
    )
    .map_err(|e| e.to_string())?;
    let csv = dir.path().join("easypap.csv");
    out.push(
        "core.csv_append_us",
        time_ns(5, || {
            for run in 0..50 {
                outcome
                    .append_csv(&csv, run)
                    .expect("append to a scratch csv");
            }
        }) / 50.0
            / 1e3,
    );
    Ok(())
}

fn cli(out: &mut Out, a: &RunArgs) -> Result<(), String> {
    let spawn_ms = |program: &std::path::Path, args: &[&str]| -> Result<f64, String> {
        let mut failed = None;
        let ns = time_ns(15, || {
            match std::process::Command::new(program)
                .args(args)
                .stdin(std::process::Stdio::null())
                .output()
            {
                Ok(o) if o.status.success() => {}
                Ok(o) => failed = Some(format!("{} exited with {}", program.display(), o.status)),
                Err(e) => failed = Some(format!("{}: {e}", program.display())),
            }
        });
        failed.map_or(Ok(ns / 1e6), Err)
    };
    out.push("cli.spawn_ms", spawn_ms(&a.bins.easypap, &["--list"])?);
    // the floor: what spawning and reaping any process costs here
    out.push(
        "cli.null_spawn_ms",
        spawn_ms(std::path::Path::new("true"), &[])?,
    );
    Ok(())
}

/// Same shape as `benches/perf_overhead.rs`: a serial xorshift chain
/// the optimiser cannot fold, sized like a 16×16 tile.
fn tile_work(i: usize) -> u64 {
    let mut acc = i as u64 | 1;
    for _ in 0..4096 {
        acc ^= acc << 13;
        acc ^= acc >> 7;
        acc ^= acc << 17;
    }
    acc
}

fn sched(out: &mut Out) -> Result<(), String> {
    out.push(
        "sched.pool_spawn_us",
        time_ns(9, || drop(black_box(WorkerPool::new(2)))) / 1e3,
    );
    let mux = PoolMux::new(2, 1);
    out.push(
        "sched.mux_lease_us",
        time_ns(5, || {
            for _ in 0..500 {
                let mut lease = mux.lease();
                black_box(lease.install(1, || 0u8));
            }
        }) / 500.0
            / 1e3,
    );
    let mut pool = WorkerPool::new(2);
    out.push(
        "sched.region_ns",
        time_ns(5, || {
            for _ in 0..500 {
                pool.run(|rank| {
                    black_box(rank);
                });
            }
        }) / 500.0,
    );
    // empty-body loop of as many units as one dispatch_fine iteration
    const UNITS: usize = 16_384;
    for (name, schedule) in [
        ("sched.chunk_ns.static", Schedule::Static),
        ("sched.chunk_ns.dynamic1", Schedule::Dynamic(1)),
        ("sched.chunk_ns.guided1", Schedule::Guided(1)),
        (
            "sched.chunk_ns.nonmonotonic1",
            Schedule::NonmonotonicDynamic(1),
        ),
    ] {
        out.push(
            name,
            time_ns(7, || {
                parallel_for_range(&mut pool, UNITS, schedule, |i, _| {
                    black_box(i);
                });
            }) / UNITS as f64,
        );
    }
    let flat = TaskGraph::new(4096);
    out.push(
        "sched.task_ns",
        time_ns(7, || {
            flat.run(&mut pool, |t, _| {
                black_box(t);
            })
            .expect("no edges, no cycle");
        }) / 4096.0,
    );
    let grid = TileGrid::square(512, 8).map_err(|e| e.to_string())?; // 64×64 tasks
    let wavefront = TaskGraph::down_right_wavefront(&grid);
    out.push(
        "sched.task_dep_ns",
        time_ns(7, || {
            wavefront
                .run(&mut pool, |t, _| {
                    black_box(t);
                })
                .expect("a wavefront is acyclic");
        }) / wavefront.len() as f64,
    );
    let shape = PipeShape::new([PipeStage::serial(), PipeStage::farm(2), PipeStage::serial()]);
    out.push(
        "sched.skeleton_compile_us",
        time_ns(9, || {
            black_box(shape.graph(64).len());
        }) / 1e3,
    );
    // rank 0's half of the range is heavy, rank 1's is free: rank 1
    // must steal to help, and the ratio says how often a steal attempt
    // found work
    let probe = LedgerProbe::new(None, true, Instant::now());
    for _ in 0..5 {
        parallel_for_range_probed(
            &mut pool,
            1024,
            Schedule::NonmonotonicDynamic(1),
            &probe,
            |i, _| {
                if i < 512 {
                    black_box(tile_work(i));
                }
            },
        );
    }
    let (attempted, succeeded) = probe.steals();
    out.push(
        "sched.steal_success_ratio",
        succeeded as f64 / attempted.max(1) as f64,
    );
    Ok(())
}

/// `ns` per pixel-iteration of one kernel run with a [`NullProbe`]
/// (median of three), from the run's own `elapsed_ns`.
fn ns_px(line: &str) -> Result<f64, String> {
    let cfg = cfg_of(line)?;
    let reg = ezp_kernels::registry();
    let mut failed = None;
    let mut samples = Vec::new();
    for _ in 0..3 {
        match run_kernel(&reg, cfg.clone(), Arc::new(NullProbe)) {
            Ok((o, _)) => samples.push(
                o.elapsed_ns as f64
                    / (cfg.dim * cfg.dim) as f64
                    / f64::from(o.completed_iterations.max(1)),
            ),
            Err(e) => failed = Some(e.to_string()),
        }
    }
    failed.map_or_else(|| Ok(stats::median(&samples)), Err)
}

fn kernels(out: &mut Out) -> Result<(), String> {
    let seq = ns_px(
        "--kernel mandel --variant seq --size 512 --tile-size 16 --iterations 2 --no-display",
    )?;
    let par = ns_px("--kernel mandel --variant omp_tiled --size 512 --tile-size 16 --iterations 2 --threads 2 --no-display")?;
    out.push("kernels.mandel.seq.ns_px", seq);
    out.push("kernels.mandel.omp_tiled.ns_px", par);
    out.push("kernels.mandel.efficiency_2t", seq / (2.0 * par));
    // the Fig. 10 pair
    out.push("kernels.blur.omp_tiled.ns_px", ns_px("--kernel blur --variant omp_tiled --size 1024 --tile-size 16 --iterations 3 --threads 2 --no-display")?);
    out.push("kernels.blur.omp_tiled_opt.ns_px", ns_px("--kernel blur --variant omp_tiled_opt --size 1024 --tile-size 16 --iterations 3 --threads 2 --no-display")?);
    out.push("kernels.scrollup.omp_tiled.ns_px", ns_px("--kernel scrollup --variant omp_tiled --size 1024 --tile-size 8 --schedule dynamic,1 --iterations 5 --threads 2 --no-display")?);
    let job = cfg_of("--kernel mandel --variant seq --size 64 --tile-size 16 --iterations 1 --threads 1 --no-display")?;
    let reg = ezp_kernels::registry();
    out.push(
        "kernels.mandel.seq64_us",
        time_ns(15, || {
            black_box(
                run_kernel(&reg, job.clone(), Arc::new(NullProbe))
                    .expect("the serve_jobs spec runs")
                    .0
                    .elapsed_ns,
            );
        }) / 1e3,
    );
    // kept as the paper's claims (§III-E lazy life, the ccomp
    // wavefront); under 2 % of any workload
    out.push("kernels.life.omp_tiled.ns_px", ns_px("--kernel life --variant omp_tiled --size 1024 --tile-size 32 --iterations 10 --threads 2 --arg gliders:64 --no-display")?);
    out.push("kernels.life.lazy.ns_px", ns_px("--kernel life --variant lazy --size 1024 --tile-size 32 --iterations 10 --threads 2 --arg gliders:64 --no-display")?);
    out.push(
        "kernels.ccomp.seq.ns_px",
        ns_px(
            "--kernel ccomp --variant seq --size 512 --tile-size 32 --iterations 10 --no-display",
        )?,
    );
    out.push("kernels.ccomp.taskdep.ns_px", ns_px("--kernel ccomp --variant taskdep --size 512 --tile-size 32 --iterations 10 --threads 2 --no-display")?);
    Ok(())
}

fn chan(out: &mut Out) {
    const CAP: usize = 1024;
    let (mut tx, mut rx) = spsc::<usize>(CAP, WaitPolicy::Yield);
    out.push(
        "chan.spsc_ns_msg",
        time_ns(7, || {
            for _ in 0..16 {
                for i in 0..CAP {
                    assert!(tx.try_send(i).is_ok());
                }
                for i in 0..CAP {
                    assert_eq!(rx.try_recv().ok(), Some(i));
                }
            }
        }) / (16 * CAP) as f64,
    );
    const STREAMED: usize = 20_000;
    out.push(
        "chan.spsc_threaded_ns_msg",
        time_ns(5, || {
            let (mut tx, mut rx) = spsc::<usize>(CAP, WaitPolicy::Yield);
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..STREAMED {
                        tx.send(i).expect("receiver alive");
                    }
                });
                for i in 0..STREAMED {
                    assert_eq!(rx.recv().ok(), Some(i));
                }
            });
        }) / STREAMED as f64,
    );
    // 2 producers -> 1 consumer through the trait objects the monitor
    // lanes, MPI mailboxes and stream emission use; same cell on both
    // backends
    const PER_PRODUCER: usize = 10_000;
    let mut stall_ratio = 0.0;
    for (name, backend) in [
        ("chan.mpmc2_ns_msg", ChanBackendKind::Ring),
        ("chan.mpsc_backend_ns_msg", ChanBackendKind::Mpsc),
    ] {
        let tuning = ChanTuning {
            backend,
            policy: WaitPolicy::Yield,
        };
        out.push(
            name,
            time_ns(5, || {
                let (txs, rx) = bounded::<usize>(tuning, 2, 256);
                std::thread::scope(|s| {
                    for tx in &txs {
                        s.spawn(move || {
                            for i in 0..PER_PRODUCER {
                                tx.send(i).expect("receiver alive");
                            }
                        });
                    }
                    for _ in 0..2 * PER_PRODUCER {
                        rx.recv().expect("senders alive");
                    }
                });
                if backend == ChanBackendKind::Ring {
                    let st = rx.stats();
                    stall_ratio = st.full_stalls as f64 / st.sends.max(1) as f64;
                }
            }) / (2 * PER_PRODUCER) as f64,
        );
    }
    out.push("chan.full_stall_ratio", stall_ratio);
}

fn observability(out: &mut Out) -> Result<(), String> {
    const TILES: usize = 4096;
    let grid = TileGrid::square(1024, 16).map_err(|e| e.to_string())?;
    out.push(
        "monitor.tile_record_ns",
        time_ns(5, || {
            let monitor = Monitor::new(1, grid);
            monitor.iteration_start(1);
            for i in 0..TILES {
                let t = grid.tile_at(i);
                monitor.start_tile(0);
                monitor.end_tile(t.x, t.y, t.w, t.h, 0);
            }
            monitor.iteration_end(1);
        }) / TILES as f64,
    );
    let probe = PerfProbe::new(1);
    out.push(
        "perf.tile_probe_ns",
        time_ns(5, || {
            for i in 0..TILES {
                probe.start_tile(0);
                probe.end_tile(i % 64, i / 64, 16, 16, 0);
            }
        }) / TILES as f64,
    );
    // the ≤1.05 bar of benches/perf_overhead.rs on tile-sized work;
    // minimum of the samples, because the workload is fixed and the
    // least-interfered sample is the one that measures the probe
    let mut pool = WorkerPool::new(2);
    let mut loop_min = |probe: &dyn Probe| -> f64 {
        (0..7)
            .map(|_| {
                let t = Instant::now();
                parallel_for_range_probed(&mut pool, 512, Schedule::Static, probe, |i, rank| {
                    probe.start_tile(rank);
                    black_box(tile_work(i));
                    probe.end_tile(i % 32, i / 32, 16, 16, rank);
                });
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let bare = loop_min(&NullProbe);
    out.push("perf.overhead_ratio", loop_min(&PerfProbe::new(2)) / bare);

    // a monitored scrollup run for the rest to chew on: 4096 tiles × 4
    // iterations, the kernel and grid of `observe_record`
    let cfg = cfg_of("--kernel scrollup --variant omp_tiled --size 1024 --tile-size 16 --iterations 4 --threads 2 --monitoring --trace")?;
    let monitor = Arc::new(Monitor::new(cfg.threads, grid));
    let perf = Arc::new(PerfProbe::new(cfg.threads));
    let probes = ezp_core::kernel::MultiProbe::new(vec![
        monitor.clone() as Arc<dyn Probe>,
        perf.clone() as Arc<dyn Probe>,
    ]);
    let (_, ctx) = run_kernel(&ezp_kernels::registry(), cfg.clone(), Arc::new(probes))
        .map_err(|e| e.to_string())?;
    let image = ctx.images.cur();
    let report = monitor.report();
    let tasks = report.records.len() as f64;
    out.push(
        "monitor.report_ms",
        time_ns(5, || {
            black_box(monitor.report().records.len());
        }) / 1e6,
    );
    out.push(
        "monitor.render_ascii_ms",
        time_ns(5, || {
            let mut text = activity::render_report(&report);
            if let Some(last) = report.iterations.last() {
                text.push_str(&report.tiling_snapshot(last.iteration).to_ascii());
                text.push_str(&report.heat_map(last.iteration).to_ascii());
            }
            black_box(text.len());
        }) / 1e6,
    );
    out.push(
        "perf.snapshot_us",
        time_ns(9, || {
            black_box((perf.snapshot(), perf.span_snapshot()));
        }) / 1e3,
    );
    let unified =
        || UnifiedReport::new(Some(report.clone()), perf.snapshot(), perf.span_snapshot());
    out.push(
        "monitor.unified_json_ms",
        time_ns(5, || {
            black_box(unified().to_json().dump().len());
        }) / 1e6,
    );
    let doc = unified().to_json();
    let text = doc.dump();
    let mb = text.len() as f64 / 1e6;
    out.push(
        "core.json_dump_mb_s",
        mb / (time_ns(5, || {
            black_box(doc.dump().len());
        }) / 1e9),
    );
    out.push(
        "core.json_parse_mb_s",
        mb / (time_ns(5, || {
            black_box(Json::parse(&text).expect("our own dump parses"));
        }) / 1e9),
    );

    let meta = TraceMeta::from_config(&cfg);
    out.push(
        "trace.from_report_ms",
        time_ns(5, || {
            black_box(
                Trace::from_report(meta.clone(), &report)
                    .with_counters(perf.snapshot())
                    .tasks
                    .len(),
            );
        }) / 1e6,
    );
    let trace = Trace::from_report(meta, &report).with_counters(perf.snapshot());
    let bytes = ezp_trace::io::to_bytes(&trace).map_err(|e| e.to_string())?;
    out.push(
        "trace.encode_ns_task",
        time_ns(5, || {
            black_box(ezp_trace::io::to_bytes(&trace).expect("encodes").len());
        }) / tasks,
    );
    out.push(
        "trace.decode_ns_task",
        time_ns(5, || {
            black_box(
                ezp_trace::io::from_bytes(&bytes)
                    .expect("decodes")
                    .tasks
                    .len(),
            );
        }) / tasks,
    );
    out.push("trace.bytes_per_task", bytes.len() as f64 / tasks);
    out.push(
        "trace.chrome_ns_task",
        time_ns(3, || {
            black_box(ezp_trace::to_chrome(&trace, &[]).dump().len());
        }) / tasks,
    );
    let mut explain_failed = None;
    out.push(
        "view.explain_ms",
        time_ns(3, || match ezp_view::explain(&trace) {
            Ok(r) => {
                black_box(r.render().len());
            }
            Err(e) => explain_failed = Some(e.to_string()),
        }) / 1e6,
    );
    if let Some(e) = explain_failed {
        return Err(format!("explain: {e}"));
    }
    out.push(
        "view.gantt_ms",
        time_ns(5, || {
            black_box(ezp_view::GanttModel::new(&trace, 1, 4).to_ascii(100).len());
        }) / 1e6,
    );
    out.push(
        "render.ppm_ms.1024",
        time_ns(5, || {
            black_box(image.to_ppm().len());
        }) / 1e6,
    );
    out.push(
        "render.downscale_ms",
        time_ns(5, || {
            black_box(ezp_render::downscale(image, 64, 64).width());
        }) / 1e6,
    );
    let costs = CostMap::from_trace(&trace, 1).map_err(|e| e.to_string())?;
    out.push(
        "simsched.sim_ns_tile",
        time_ns(5, || {
            black_box(simulate(&costs, SimConfig::new(2, Schedule::Dynamic(1))).makespan_ns);
        }) / costs.len() as f64,
    );
    Ok(())
}

fn stream(out: &mut Out) -> Result<(), String> {
    const FRAMES: usize = 10_000;
    const DIM: usize = 32;
    let kernel = ezp_stream::stream_kernel("frame_diff")
        .ok_or("frame_diff is not in the stream registry")?;
    let seq = time_ns(5, || {
        black_box(kernel.run_seq(DIM, FRAMES).len());
    }) / FRAMES as f64
        / 1e3;
    out.push("stream.frame_us.seq", seq);
    let mut pool = WorkerPool::new(2);
    let mut stalls = 0.0;
    let mut in_flight = 0.0;
    let mut run = |mode: EmitMode, keep_stats: bool| -> Result<f64, String> {
        let mut failed = None;
        let ns = time_ns(5, || {
            match kernel.run(DIM, FRAMES, mode, 2, &mut pool, &NullProbe) {
                Ok((frames, st)) if frames.len() == FRAMES => {
                    if keep_stats {
                        stalls = st.backpressure_stalls as f64 / FRAMES as f64;
                        in_flight = st.max_frames_in_flight as f64;
                    }
                }
                Ok(_) => failed = Some("frames went missing".to_string()),
                Err(e) => failed = Some(e.to_string()),
            }
        });
        failed.map_or(Ok(ns / FRAMES as f64 / 1e3), Err)
    };
    let ordered = run(EmitMode::Ordered, true)?;
    let unordered = run(EmitMode::Unordered, false)?;
    out.push("stream.frame_us.ordered", ordered);
    out.push("stream.frame_us.unordered", unordered);
    // the honest replacement for a par/seq "speedup": what the engine
    // adds to every frame
    out.push("stream.overhead_us_frame", ordered - seq);
    out.push("stream.backpressure_stalls_per_frame", stalls);
    out.push("stream.max_in_flight", in_flight);
    Ok(())
}

fn serve(out: &mut Out) -> Result<(), String> {
    let tuning = ChanTuning::default();
    let admission = Admission::new(tuning, Arc::new(ServeMetrics::new(8)), 16);
    let (ticket, sink, cursor) = (JobTicket::new(), Arc::new(NullSink), AtomicUsize::new(0));
    let spec = JobSpec {
        tenant: Some("t0".into()),
        ..JobSpec::default()
    };
    let mut lost = false;
    out.push(
        "serve.admission_ns",
        time_ns(5, || {
            for _ in 0..1000 {
                let admitted = admission.submit(spec.clone(), Arc::clone(&ticket), sink.clone());
                lost |= admitted.is_err() || admission.next_job(&cursor).is_none();
            }
        }) / 1000.0,
    );
    if lost {
        return Err("admission rejected or lost a job with an empty queue".to_string());
    }

    // an in-process daemon, one closed-loop connection
    const JOBS: usize = 1500;
    let server = Server::start(ServeConfig {
        workers: 1,
        slots: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start in-process daemon: {e}"))?;
    let mut client = PairingClient::connect(&server.addr().to_string())?;
    let begin = Instant::now();
    let mut latencies = Vec::with_capacity(JOBS);
    let mut reordered = 0u64;
    let mut last_done = None;
    for _ in 0..JOBS {
        let p = client.submit(&spec)?;
        reordered += u64::from(p.out_of_order);
        latencies.push(p.latency().as_nanos() as f64 / 1e3);
        match p.terminal {
            done @ Response::Done { .. } => last_done = Some(done),
            other => return Err(format!("in-process job not done: {other:?}")),
        }
    }
    let wall_ns = begin.elapsed().as_nanos() as f64;
    drop(client);
    let summary = server.shutdown();
    let (admitted, rejected, ..) = summary.totals;
    out.push("serve.roundtrip_us_p50", stats::median(&latencies));
    out.push(
        "serve.lease_wait_share",
        summary.mux.wait_ns as f64 / wall_ns,
    );
    out.push(
        "serve.reject_share",
        rejected as f64 / (admitted + rejected).max(1) as f64,
    );
    out.push("serve.frames_out_of_order", reordered as f64);

    // a real `done`, report included, through the frame codec on memory
    let done = last_done.ok_or("no job completed")?;
    let mut wire = Vec::new();
    out.push(
        "serve.frame_encode_ns",
        time_ns(5, || {
            for _ in 0..100 {
                wire.clear();
                write_frame(&mut wire, &done.to_json()).expect("a report fits a frame");
            }
        }) / 100.0,
    );
    let mut garbled = false;
    out.push(
        "serve.frame_decode_ns",
        time_ns(5, || {
            for _ in 0..100 {
                match read_frame(&mut wire.as_slice()) {
                    Ok(FrameIn::Msg(json)) => garbled |= Response::from_json(&json).is_err(),
                    _ => garbled = true,
                }
            }
        }) / 100.0,
    );
    if garbled {
        return Err("a frame did not survive write_frame/read_frame".to_string());
    }
    Ok(())
}

fn mpi(out: &mut Out) -> Result<(), String> {
    const EXCHANGES: usize = 200;
    let payload = "x".repeat(1024);
    let mut failed = None;
    out.push(
        "mpi.sendrecv_us",
        time_ns(5, || {
            let run = ezp_mpi::run(2, |comm| {
                let peer = 1 - comm.rank();
                for _ in 0..EXCHANGES {
                    let got: String = comm.sendrecv(peer, 0, &payload, peer, 0)?;
                    black_box(got.len());
                }
                Ok(())
            });
            if let Err(e) = run {
                failed = Some(e.to_string());
            }
        }) / EXCHANGES as f64
            / 1e3,
    );
    if let Some(e) = failed {
        return Err(format!("mpi sendrecv: {e}"));
    }
    out.push(
        "mpi.life_mpi_omp.ns_px",
        ns_px("--kernel life --variant mpi_omp --size 256 --tile-size 32 --iterations 10 --threads 1 --arg random:0.3 --mpirun \"-np 2\" --no-display")?,
    );
    Ok(())
}

/// Runs every per-layer microbenchmark (the ledger and host entries of
/// [`LAYER_METRICS`] are filled in by the traced pass around this).
pub fn run_all(a: &RunArgs, out: &mut Out) -> Result<(), String> {
    core(out, a)?;
    cli(out, a)?;
    sched(out)?;
    kernels(out)?;
    chan(out);
    observability(out)?;
    stream(out)?;
    serve(out)?;
    mpi(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The name/schema self-check of the per-layer table: well-formed
    /// unique names, a layer, and `moves` entries that name a real
    /// end-to-end metric and a real workload.
    #[test]
    fn every_per_layer_metric_names_its_layer_and_what_it_moves() {
        assert!(LAYER_METRICS.len() <= 128);
        for (i, d) in LAYER_METRICS.iter().enumerate() {
            assert!(
                d.name.len() <= 64
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.name);
            assert!(["lower", "higher"].contains(&d.better), "{}", d.name);
            assert!(
                d.name.starts_with(&format!("{}.", d.layer)),
                "{} is not in layer {}",
                d.name,
                d.layer
            );
            assert!(
                LAYER_METRICS[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            if d.moves != "none" {
                for pair in d.moves.split_whitespace() {
                    let (metric, workload) = pair
                        .split_once('@')
                        .unwrap_or_else(|| panic!("{}: `{pair}`", d.name));
                    assert!(
                        crate::e2e::E2E_METRICS.iter().any(|e| e.0 == metric),
                        "{}: unknown metric {metric}",
                        d.name
                    );
                    assert!(
                        WORKLOADS.iter().any(|w| w.name == workload),
                        "{}: unknown workload {workload}",
                        d.name
                    );
                }
            }
        }
    }
}
