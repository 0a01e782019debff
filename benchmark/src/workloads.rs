//! The six frozen workloads (four of them gates, see `Workload::gated`):
//! what one operation of each runs, and why it is in the set. Names are final; later issues cite them.
//!
//! Every operation is generated here from the seed; the programs under
//! test only ever receive the resulting command lines or job specs.
//! Kernels run `--threads 2` and the daemon gets 2 connections because
//! the sizing host has 2 hardware threads — the load is *not* scaled
//! with `nproc`, which is recorded beside the results instead.

use ezp_serve::JobSpec;
use ezp_testkit::Rng;

/// Which program a command runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bin {
    /// `target/release/easypap`
    Easypap,
    /// `target/release/easyview`
    Easyview,
}

/// What a command must print to count as correct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `N iterations completed in X ms`, N taken from the in-process
    /// reference run of the same arguments.
    Iterations,
    /// `N frames streamed (...) in X ms`.
    Frames(usize),
    /// `easyview explain`: an advice section.
    Explain,
}

/// One child process of an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cmd {
    /// Program.
    pub bin: Bin,
    /// Arguments, exactly as a user would type them.
    pub args: Vec<String>,
    /// Output check.
    pub expect: Expect,
}

impl Cmd {
    fn easypap(args: &str, expect: Expect) -> Cmd {
        Cmd {
            bin: Bin::Easypap,
            args: split_args(args),
            expect,
        }
    }

    /// `--no-display` runs append one row to `easypap.csv`.
    pub fn appends_csv(&self) -> bool {
        self.expect == Expect::Iterations && self.args.iter().any(|a| a == "--no-display")
    }
}

/// Splits a command line on spaces, keeping `"quoted words"` together
/// (the `--mpirun "-np 2"` spelling of the paper).
pub fn split_args(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, chunk) in line.split('"').enumerate() {
        if i % 2 == 1 {
            out.push(chunk.to_string());
        } else {
            out.extend(chunk.split_whitespace().map(str::to_string));
        }
    }
    out
}

/// How a workload's operations are carried out.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Each operation spawns the commands this generates from the seed
    /// as child processes.
    Cli(fn(u64) -> Vec<Cmd>),
    /// Operations are jobs sent to one spawned `easypap serve`.
    Serve,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Final name.
    pub name: &'static str,
    /// One line on why it is in the set (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// CLI children or daemon jobs.
    pub kind: Kind,
    /// Megapixel-iterations (or -frames, or -jobs) one operation
    /// completes, the numerator of the `mpix_per_s` note.
    pub mpix_per_op: f64,
    /// Listed in `BENCHMARK.json`, so a later change is accepted or
    /// refused on it. `stream_engine` and `sweep_tiny` are not: each of
    /// their operations is thousands of sleep/wake-ups or 24 `exec`s,
    /// whose cost on a shared virtual machine is the host's, not the
    /// program's — ten runs of the same code spread 33..82 % and
    /// 43..110 % of their median where the bound cannot exceed 25 %.
    /// They still run by name and in the full set, as measurements.
    pub gated: bool,
}

/// Connections (and tenants) of the `serve_jobs` closed loop.
pub const SERVE_CONNECTIONS: usize = 2;
/// Untimed operations run before the timed phase of every workload.
pub const WARMUP_OPS: usize = 3;
/// Frames per `stream_engine` operation.
pub const STREAM_FRAMES: usize = 40_000;

const MPIX: f64 = 1e6;

/// The frozen set, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "perf_mandel",
        why: "paper's perf-mode run: compute-bound imbalanced tiles, static schedule; kernels do the work, the control for every runtime change",
        kind: Kind::Cli(perf_mandel),
        mpix_per_op: (512 * 512 * 15) as f64 / MPIX,
        gated: true,
    },
    Workload {
        name: "dispatch_fine",
        why: "16384 eight-pixel tiles per iteration of a memcpy-cheap kernel under dynamic,1: sched loop dispatch dominates, the opposite regime of perf_mandel on the same pool",
        kind: Kind::Cli(dispatch_fine),
        mpix_per_op: (1024 * 1024 * 50) as f64 / MPIX,
        gated: true,
    },
    Workload {
        name: "observe_record",
        why: "a monitored, traced, stats=json run of 4096 memcpy-cheap tiles per iteration, then easyview explain on its trace: monitor/chan/perf/trace/render/view, the observability path written and read back",
        kind: Kind::Cli(observe_record),
        mpix_per_op: (1024 * 1024 * 15) as f64 / MPIX,
        gated: true,
    },
    Workload {
        name: "stream_engine",
        why: "40000 almost-free 32x32 frames through frame_diff: stream windows, the skeleton task-graph executor, reorder buffer and chan emission do the work",
        kind: Kind::Cli(stream_engine),
        mpix_per_op: (32 * 32 * STREAM_FRAMES) as f64 / MPIX,
        gated: false,
    },
    Workload {
        name: "serve_jobs",
        why: "2 closed-loop connections of tiny mandel jobs at stall_us=0 against a spawned easypap serve: proto, admission, PoolMux lease and per-job report dominate the kernel",
        kind: Kind::Serve,
        mpix_per_op: (64 * 64) as f64 / MPIX,
        gated: true,
    },
    Workload {
        name: "sweep_tiny",
        why: "passes over a 24-cell expTools-style sweep of 64x64 two-iteration one-shot runs: process start, arg parsing, registry, pool spawn, MPI rank launch and CSV append are the whole cost",
        kind: Kind::Cli(sweep_tiny),
        mpix_per_op: (24 * 64 * 64 * 2) as f64 / MPIX,
        gated: false,
    },
];

/// Looks a workload up by its final name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The 24 cells of `sweep_tiny`: 6 kernel variants × 2 schedules × 2
/// thread counts.
fn sweep_cells(seed: u64) -> Vec<Cmd> {
    const VARIANTS: [&str; 6] = [
        "--kernel mandel --variant omp_tiled",
        "--kernel blur --variant omp_tiled_opt",
        "--kernel life --variant lazy --arg random:0.3",
        "--kernel ccomp --variant taskdep",
        "--kernel transpose --variant omp_tiled",
        "--kernel life --variant mpi_omp --arg random:0.3 --mpirun \"-np 2\"",
    ];
    let mut cells = Vec::with_capacity(24);
    for variant in VARIANTS {
        for schedule in ["static", "dynamic,2"] {
            for threads in [1, 2] {
                cells.push(Cmd::easypap(
                    &format!(
                        "{variant} --size 64 --tile-size 16 --iterations 2 --schedule {schedule} \
                         --threads {threads} --seed {seed} --no-display"
                    ),
                    Expect::Iterations,
                ));
            }
        }
    }
    cells
}

fn perf_mandel(seed: u64) -> Vec<Cmd> {
    vec![Cmd::easypap(
        &format!(
            "--kernel mandel --variant omp_tiled --size 512 --tile-size 16 \
             --iterations 15 --threads 2 --seed {seed} --no-display"
        ),
        Expect::Iterations,
    )]
}

fn dispatch_fine(seed: u64) -> Vec<Cmd> {
    vec![Cmd::easypap(
        &format!(
            "--kernel scrollup --variant omp_tiled --size 1024 --tile-size 8 \
             --schedule dynamic,1 --iterations 50 --threads 2 --seed {seed} --no-display"
        ),
        Expect::Iterations,
    )]
}

/// The issue's geometry (4096 tiles x 15 iterations, recorded, dumped,
/// explained) over `scrollup` instead of the issue's `blur`: every
/// `blur` variant, `seq` included, runs in two regimes on the shared
/// host (two-thread compute 85..95 ms or 135..150 ms for minutes at a
/// time, while `mandel` and `scrollup` hold +-5 %), so the run medians of
/// ten runs of the same code spread 15..21 %, all of it the kernel's and
/// none of it the observability path's this workload exists to measure.
/// A tile of `scrollup` is a 1 KiB copy, so recording it is the work.
fn observe_record(seed: u64) -> Vec<Cmd> {
    vec![
        Cmd::easypap(
            &format!(
                "--kernel scrollup --variant omp_tiled --size 1024 --tile-size 16 \
                 --iterations 15 --threads 2 --seed {seed} --monitoring --trace --stats=json"
            ),
            Expect::Iterations,
        ),
        Cmd {
            bin: Bin::Easyview,
            args: split_args("explain trace.ezv"),
            expect: Expect::Explain,
        },
    ]
}

fn stream_engine(seed: u64) -> Vec<Cmd> {
    vec![Cmd::easypap(
        &format!(
            "--kernel frame_diff --stream={STREAM_FRAMES} --size 32 --threads 2 --seed {seed}"
        ),
        Expect::Frames(STREAM_FRAMES),
    )]
}

/// The sweep's cells in an order drawn from the seed.
fn sweep_tiny(seed: u64) -> Vec<Cmd> {
    let mut cells = sweep_cells(seed);
    Rng::seed(seed).shuffle(&mut cells);
    cells
}

impl Workload {
    /// The child processes of one operation, generated from `seed`: it
    /// feeds `--seed` of the seeded kernels and shuffles the order of
    /// the sweep cells. Empty for `serve_jobs`, whose operations are
    /// [`Workload::job`]s.
    pub fn plan(&self, seed: u64) -> Vec<Cmd> {
        match self.kind {
            Kind::Cli(generate) => generate(seed),
            Kind::Serve => Vec::new(),
        }
    }

    /// The job connection `conn` of `serve_jobs` submits: the ROADMAP's
    /// "honest cell", no synthetic stall to overlap.
    pub fn job(conn: usize) -> JobSpec {
        JobSpec {
            kernel: "mandel".to_string(),
            variant: "seq".to_string(),
            size: 64,
            tile: 16,
            iterations: 1,
            threads: 1,
            tenant: Some(format!("t{conn}")),
            stall_us: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::RunConfig;

    #[test]
    fn quoted_words_stay_together() {
        assert_eq!(
            split_args("--mpirun \"-np 2\" --size 64"),
            ["--mpirun", "-np 2", "--size", "64"]
        );
    }

    #[test]
    fn every_generated_command_line_parses() {
        for w in &WORKLOADS {
            for cmd in w.plan(7).iter().filter(|c| c.bin == Bin::Easypap) {
                RunConfig::parse_args(cmd.args.iter().map(String::as_str))
                    .unwrap_or_else(|e| panic!("{}: {:?}: {e}", w.name, cmd.args));
            }
        }
    }

    #[test]
    fn same_seed_same_plan_and_the_sweep_is_a_shuffle() {
        let sweep = by_name("sweep_tiny").unwrap();
        assert_eq!(sweep.plan(3), sweep.plan(3));
        assert_eq!(sweep.plan(3).len(), 24);
        let order = |seed: u64| -> Vec<String> {
            // compare cell identity without the seed argument itself
            sweep
                .plan(seed)
                .iter()
                .map(|c| c.args.join(" ").replace(&format!("--seed {seed}"), ""))
                .collect()
        };
        let (a, b) = (order(3), order(4));
        assert_ne!(
            a, b,
            "a different seed visits the cells in a different order"
        );
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(sorted(a), sorted(b), "but it is the same 24 cells");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
