//! Run-time configuration: the `easypap` command line and OpenMP-style
//! scheduling policies.
//!
//! The paper drives every experiment through command lines such as
//! `easypap --kernel mandel --variant omp_tiled --tile-size 16
//! --iterations 50 --no-display` plus the `OMP_NUM_THREADS` /
//! `OMP_SCHEDULE` internal control variables. [`RunConfig`] is the parsed
//! form of all of that, and [`Schedule`] is the loop-scheduling policy
//! vocabulary shared by the real thread pool (`ezp-sched`) and the
//! virtual-time simulator (`ezp-simsched`).

use crate::error::{Error, Result};
use crate::{DEFAULT_DIM, DEFAULT_TILE_SIZE};

/// An OpenMP-style loop scheduling policy (paper Fig. 4).
///
/// The chunk parameter follows OpenMP semantics: for `Dynamic(k)` idle
/// threads grab `k` consecutive iterations at a time; for `Guided(k)`
/// chunk sizes decay proportionally to the remaining work but never drop
/// below `k`; `NonmonotonicDynamic` models the OpenMP 5
/// `nonmonotonic:dynamic` behaviour the paper highlights — an initial
/// static distribution corrected by work stealing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Contiguous blocks, one per thread (`schedule(static)`).
    #[default]
    Static,
    /// Round-robin blocks of `k` iterations (`schedule(static, k)`).
    StaticChunk(usize),
    /// First-come first-served chunks of `k` (`schedule(dynamic, k)`).
    Dynamic(usize),
    /// Exponentially decreasing chunks, minimum `k` (`schedule(guided, k)`).
    Guided(usize),
    /// Static distribution + work stealing (`schedule(nonmonotonic:dynamic)`).
    NonmonotonicDynamic(usize),
}

impl Schedule {
    /// Parses the `OMP_SCHEDULE` syntax used in the paper's Fig. 5 sweep
    /// script: `static`, `static,4`, `dynamic`, `dynamic,2`, `guided`,
    /// `nonmonotonic:dynamic`, ...
    pub fn parse(s: &str) -> Result<Schedule> {
        let (kind, chunk) = match s.split_once(',') {
            Some((k, c)) => {
                let chunk: usize = c
                    .trim()
                    .parse()
                    .map_err(|_| Error::Config(format!("bad schedule chunk in `{s}`")))?;
                if chunk == 0 {
                    return Err(Error::Config(format!("schedule chunk must be > 0 in `{s}`")));
                }
                (k.trim(), Some(chunk))
            }
            None => (s.trim(), None),
        };
        match kind {
            "static" => Ok(match chunk {
                None => Schedule::Static,
                Some(k) => Schedule::StaticChunk(k),
            }),
            "dynamic" => Ok(Schedule::Dynamic(chunk.unwrap_or(1))),
            "guided" => Ok(Schedule::Guided(chunk.unwrap_or(1))),
            "nonmonotonic:dynamic" => Ok(Schedule::NonmonotonicDynamic(chunk.unwrap_or(1))),
            _ => Err(Error::Config(format!("unknown schedule `{s}`"))),
        }
    }

    /// The canonical `OMP_SCHEDULE` spelling, inverse of [`Schedule::parse`].
    pub fn as_omp_str(&self) -> String {
        match self {
            Schedule::Static => "static".to_string(),
            Schedule::StaticChunk(k) => format!("static,{k}"),
            Schedule::Dynamic(1) => "dynamic".to_string(),
            Schedule::Dynamic(k) => format!("dynamic,{k}"),
            Schedule::Guided(1) => "guided".to_string(),
            Schedule::Guided(k) => format!("guided,{k}"),
            Schedule::NonmonotonicDynamic(1) => "nonmonotonic:dynamic".to_string(),
            Schedule::NonmonotonicDynamic(k) => format!("nonmonotonic:dynamic,{k}"),
        }
    }

    /// The four policies compared in Fig. 4 and Fig. 6 of the paper.
    pub fn paper_policies() -> [Schedule; 4] {
        [
            Schedule::Static,
            Schedule::Dynamic(2),
            Schedule::NonmonotonicDynamic(1),
            Schedule::Guided(1),
        ]
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_omp_str())
    }
}

/// How much graphical/monitoring output the run produces — the
/// `--no-display` / default / `--monitoring` trio from §II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisplayMode {
    /// `--no-display`: silent performance mode (§II-C).
    None,
    /// Default: frames are rendered (here: dumped on request).
    Display,
    /// `--monitoring`: display plus Activity Monitor and Tiling windows.
    Monitoring,
}

/// Output format of the `--stats` runtime-counter report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatsFormat {
    /// Prometheus-style text exposition (`--stats` / `--stats=text`).
    #[default]
    Text,
    /// One JSON object (`--stats=json`).
    Json,
    /// `counter,worker,value` rows (`--stats=csv`).
    Csv,
}

impl StatsFormat {
    /// Parses the value of `--stats=<fmt>`.
    pub fn parse(s: &str) -> Result<StatsFormat> {
        match s {
            "text" | "prometheus" => Ok(StatsFormat::Text),
            "json" => Ok(StatsFormat::Json),
            "csv" => Ok(StatsFormat::Csv),
            other => Err(Error::Config(format!(
                "--stats: unknown format `{other}` (expected text, json or csv)"
            ))),
        }
    }
}

/// Output-ordering mode of a streaming (`--stream=N`) run.
///
/// The shared vocabulary between `ezp-stream`'s skeletons and the CLI:
/// `Ordered` routes completed frames through a reorder buffer so the
/// sink sees frame ids `0, 1, 2, ...` (latency bounded by the slowest
/// in-flight frame); `Unordered` hands each frame to the sink the
/// moment it completes (maximum throughput, sink must key on frame id).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EmitMode {
    /// Emit frames in frame-id order through a reorder buffer.
    #[default]
    Ordered,
    /// Emit frames as they complete, in schedule-dependent order.
    Unordered,
}

impl EmitMode {
    /// Parses the value of `--stream-mode=<mode>`.
    pub fn parse(s: &str) -> Result<EmitMode> {
        match s {
            "ordered" => Ok(EmitMode::Ordered),
            "unordered" => Ok(EmitMode::Unordered),
            other => Err(Error::Config(format!(
                "--stream-mode: unknown mode `{other}` (expected ordered or unordered)"
            ))),
        }
    }
}

impl std::fmt::Display for EmitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EmitMode::Ordered => "ordered",
            EmitMode::Unordered => "unordered",
        })
    }
}

/// What a channel endpoint does when it cannot make progress (ring
/// full on send, ring empty on receive).
///
/// Half of [`ChanTuning`], `ezp-chan`'s constructor vocabulary. One
/// variant is left: no production thread waits on an `ezp-chan`
/// channel (`docs/channels.md`), and `benchmark/` names only `Yield`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WaitPolicy {
    /// `yield_now` between every recheck.
    #[default]
    Yield,
}

/// Which substrate `ezp-chan`'s `bounded` channel is built on:
/// `ezp-chan`'s lock-free ring, or `std::sync::mpsc` kept as the
/// measured baseline (`chan.mpmc2_ns_msg` vs `chan.mpsc_backend_ns_msg`
/// in `benchmark/`). Not a run-time flag — see `docs/knobs.md`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChanBackendKind {
    /// Bounded lock-free SPSC rings (MPMC = one ring per producer).
    #[default]
    Ring,
    /// `std::sync::mpsc` — the pre-`ezp-chan` baseline.
    Mpsc,
}

/// The two choices `ezp-chan`'s `bounded` takes, bundled so its callers
/// pass one argument instead of two loose enums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChanTuning {
    /// Channel substrate.
    pub backend: ChanBackendKind,
    /// Behavior when a channel operation cannot progress.
    pub policy: WaitPolicy,
}

/// Fully parsed run configuration — the Rust face of the `easypap`
/// command line plus the OpenMP ICVs (`OMP_NUM_THREADS`, `OMP_SCHEDULE`).
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// `--kernel` (default `none` is not allowed at run time).
    pub kernel: String,
    /// `--variant` (default `seq` like EASYPAP).
    pub variant: String,
    /// `--size`: image dimension (square).
    pub dim: usize,
    /// `--tile-size` / `--grain`: tile edge in pixels.
    pub tile_size: usize,
    /// `--iterations`.
    pub iterations: u32,
    /// `OMP_NUM_THREADS` equivalent (`--threads`).
    pub threads: usize,
    /// `OMP_SCHEDULE` equivalent (`--schedule`).
    pub schedule: Schedule,
    /// Display/monitoring mode.
    pub display: DisplayMode,
    /// `--trace`: record an execution trace.
    pub trace: bool,
    /// Trace output path (`--trace-file`), default `trace.ezv`.
    pub trace_file: String,
    /// `--explain`: append the causal-profiling report (critical path,
    /// idle-cause breakdown, bottleneck advice) after the run.
    pub explain: bool,
    /// `--mpirun "-np N"`: number of simulated MPI ranks (1 = no MPI).
    pub mpi_ranks: usize,
    /// `--debug <flags>` was given: diagnostic logging is wanted (the
    /// CLI raises the [`crate::log`] level to `Debug`).
    pub debug: bool,
    /// `--debug M`: show monitor windows of every MPI rank (Fig. 13).
    pub debug_mpi: bool,
    /// `--arg`: free-form kernel argument (e.g. `life` initial pattern).
    pub kernel_arg: Option<String>,
    /// `--frames DIR`: dump one image per iteration into `DIR` (the
    /// off-screen replacement for the animated SDL window).
    pub frames_dir: Option<String>,
    /// `--ansi`: print the final frame to the terminal as ANSI
    /// true-color half-blocks.
    pub ansi: bool,
    /// Seed for randomized kernels, so runs are reproducible.
    pub seed: u64,
    /// `--stats[=text|json|csv]`: emit the runtime-counter report after
    /// the run (`None` = no report).
    pub stats: Option<StatsFormat>,
    /// `--trace-events FILE`: write a Chrome Trace Event Format timeline
    /// loadable by `chrome://tracing` / Perfetto.
    pub trace_events: Option<String>,
    /// `--stream N`: push `N` frames through a streaming skeleton
    /// instead of iterating one image (`None` = classic mode).
    pub stream_frames: Option<usize>,
    /// `--farm-width K`: replication width of farm stages in a
    /// streaming run (0 = auto: use `threads`).
    pub farm_width: usize,
    /// `--stream-mode ordered|unordered`: output ordering of a
    /// streaming run.
    pub stream_mode: EmitMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            kernel: String::new(),
            variant: "seq".to_string(),
            dim: DEFAULT_DIM,
            tile_size: DEFAULT_TILE_SIZE,
            iterations: 1,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            schedule: Schedule::default(),
            display: DisplayMode::Display,
            trace: false,
            trace_file: "trace.ezv".to_string(),
            explain: false,
            mpi_ranks: 1,
            debug: false,
            debug_mpi: false,
            kernel_arg: None,
            frames_dir: None,
            ansi: false,
            seed: 42,
            stats: None,
            trace_events: None,
            stream_frames: None,
            farm_width: 0,
            stream_mode: EmitMode::Ordered,
        }
    }
}

impl RunConfig {
    /// Starts a config for `kernel`, everything else defaulted.
    pub fn new(kernel: &str) -> Self {
        RunConfig {
            kernel: kernel.to_string(),
            ..Default::default()
        }
    }

    /// Builder: select the variant.
    pub fn variant(mut self, v: &str) -> Self {
        self.variant = v.to_string();
        self
    }

    /// Builder: image dimension.
    pub fn size(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Builder: tile edge.
    pub fn tile(mut self, ts: usize) -> Self {
        self.tile_size = ts;
        self
    }

    /// Builder: iteration count.
    pub fn iterations(mut self, n: u32) -> Self {
        self.iterations = n;
        self
    }

    /// Builder: worker thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Builder: scheduling policy.
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Parses an `easypap`-style argument vector (without the program
    /// name). Mirrors the options shown throughout §II of the paper.
    pub fn parse_args<I, S>(args: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cfg = RunConfig::default();
        let mut it = args.into_iter();
        let need_value = |it: &mut dyn Iterator<Item = S>, opt: &str| -> Result<String> {
            it.next()
                .map(|s| s.as_ref().to_string())
                .ok_or_else(|| Error::Config(format!("option {opt} requires a value")))
        };
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            match arg {
                "--kernel" | "-k" => cfg.kernel = need_value(&mut it, arg)?,
                "--variant" | "-v" => cfg.variant = need_value(&mut it, arg)?,
                "--size" | "-s" => {
                    cfg.dim = parse_num(&need_value(&mut it, arg)?, arg)?;
                }
                "--tile-size" | "--grain" | "-ts" | "-g" => {
                    cfg.tile_size = parse_num(&need_value(&mut it, arg)?, arg)?;
                }
                "--iterations" | "-i" => {
                    cfg.iterations = parse_num(&need_value(&mut it, arg)?, arg)? as u32;
                }
                "--threads" | "-t" => {
                    cfg.threads = parse_num(&need_value(&mut it, arg)?, arg)?;
                }
                "--schedule" => cfg.schedule = Schedule::parse(&need_value(&mut it, arg)?)?,
                "--no-display" | "-n" => cfg.display = DisplayMode::None,
                "--monitoring" | "-m" => cfg.display = DisplayMode::Monitoring,
                "--trace" | "-tr" => cfg.trace = true,
                "--trace-file" => cfg.trace_file = need_value(&mut it, arg)?,
                "--explain" => cfg.explain = true,
                "--mpirun" => {
                    // the paper passes the raw mpirun flags, e.g. "-np 2"
                    let spec = need_value(&mut it, arg)?;
                    cfg.mpi_ranks = parse_mpirun(&spec)?;
                }
                "--debug" => {
                    let flags = need_value(&mut it, arg)?;
                    cfg.debug = true;
                    if flags.contains('M') {
                        cfg.debug_mpi = true;
                    }
                }
                "--arg" | "-a" => cfg.kernel_arg = Some(need_value(&mut it, arg)?),
                "--frames" => cfg.frames_dir = Some(need_value(&mut it, arg)?),
                "--ansi" => cfg.ansi = true,
                "--seed" => cfg.seed = parse_num(&need_value(&mut it, arg)?, arg)? as u64,
                "--stats" => cfg.stats = Some(StatsFormat::Text),
                "--trace-events" => cfg.trace_events = Some(need_value(&mut it, arg)?),
                "--stream" => {
                    cfg.stream_frames = Some(parse_num(&need_value(&mut it, arg)?, arg)?);
                }
                "--farm-width" => {
                    cfg.farm_width = parse_num(&need_value(&mut it, arg)?, arg)?;
                }
                "--stream-mode" => cfg.stream_mode = EmitMode::parse(&need_value(&mut it, arg)?)?,
                other => {
                    // `--opt=value` spellings of the options above
                    if let Some(fmt) = other.strip_prefix("--stats=") {
                        cfg.stats = Some(StatsFormat::parse(fmt)?);
                    } else if let Some(n) = other.strip_prefix("--stream=") {
                        cfg.stream_frames = Some(parse_num(n, "--stream")?);
                    } else if let Some(k) = other.strip_prefix("--farm-width=") {
                        cfg.farm_width = parse_num(k, "--farm-width")?;
                    } else if let Some(mode) = other.strip_prefix("--stream-mode=") {
                        cfg.stream_mode = EmitMode::parse(mode)?;
                    } else {
                        return Err(Error::Config(format!("unknown option `{other}`")));
                    }
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.kernel.is_empty() {
            return Err(Error::Config("--kernel is required".into()));
        }
        if self.dim == 0 {
            return Err(Error::Config("--size must be > 0".into()));
        }
        if self.tile_size == 0 {
            return Err(Error::Config("--tile-size must be > 0".into()));
        }
        if self.tile_size > self.dim && self.stream_frames.is_none() {
            // streaming runs have no tile grid, so the default tile
            // size must not constrain small streamed frames
            return Err(Error::Config(format!(
                "--tile-size {} exceeds image dimension {}",
                self.tile_size, self.dim
            )));
        }
        if self.threads == 0 {
            return Err(Error::Config("--threads must be > 0".into()));
        }
        if self.mpi_ranks == 0 {
            return Err(Error::Config("--mpirun needs at least one rank".into()));
        }
        if self.stream_frames == Some(0) {
            return Err(Error::Config("--stream must be > 0 frames".into()));
        }
        if self.stream_frames.is_none()
            && (self.farm_width != 0 || self.stream_mode != EmitMode::Ordered)
        {
            return Err(Error::Config(
                "--farm-width/--stream-mode require --stream=N".into(),
            ));
        }
        if self.stream_frames.is_some() {
            // a streamed run has no tile grid to monitor or trace and
            // no final image to show
            reject_flags(
                "--stream=N",
                &[
                    ("--monitoring", self.display == DisplayMode::Monitoring),
                    ("--trace", self.trace),
                    ("--trace-events", self.trace_events.is_some()),
                    ("--explain", self.explain),
                    ("--frames", self.frames_dir.is_some()),
                    ("--ansi", self.ansi),
                ],
            )?;
        }
        Ok(())
    }

    // Compatibility shim: the frozen `benchmark/` is its only caller.
    #[doc(hidden)]
    pub fn chan_tuning(&self) -> ChanTuning {
        ChanTuning::default()
    }

    /// The tile grid implied by `--size` and `--tile-size`.
    pub fn grid(&self) -> Result<crate::TileGrid> {
        crate::TileGrid::square(self.dim, self.tile_size)
    }
}

/// For a run mode that cannot honour some flags: a configuration error
/// naming `mode` and the first flag of `flags` that is set, instead of
/// a run that silently drops it.
pub fn reject_flags(mode: &str, flags: &[(&str, bool)]) -> Result<()> {
    match flags.iter().find(|(_, set)| *set) {
        Some((flag, _)) => Err(Error::Config(format!(
            "{flag} cannot be combined with {mode}: that mode has nothing to feed it"
        ))),
        None => Ok(()),
    }
}

fn parse_num(s: &str, opt: &str) -> Result<usize> {
    s.parse()
        .map_err(|_| Error::Config(format!("option {opt}: `{s}` is not a number")))
}

/// Extracts the rank count from an mpirun flag string such as `-np 2`.
fn parse_mpirun(spec: &str) -> Result<usize> {
    let mut words = spec.split_whitespace();
    while let Some(w) = words.next() {
        if w == "-np" || w == "-n" {
            let v = words
                .next()
                .ok_or_else(|| Error::Config(format!("--mpirun `{spec}`: -np needs a value")))?;
            return parse_num(v, "--mpirun -np");
        }
    }
    Err(Error::Config(format!("--mpirun `{spec}`: no -np flag found")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parse_all_forms() {
        assert_eq!(Schedule::parse("static").unwrap(), Schedule::Static);
        assert_eq!(Schedule::parse("static,4").unwrap(), Schedule::StaticChunk(4));
        assert_eq!(Schedule::parse("dynamic").unwrap(), Schedule::Dynamic(1));
        assert_eq!(Schedule::parse("dynamic,2").unwrap(), Schedule::Dynamic(2));
        assert_eq!(Schedule::parse("guided").unwrap(), Schedule::Guided(1));
        assert_eq!(Schedule::parse("guided,8").unwrap(), Schedule::Guided(8));
        assert_eq!(
            Schedule::parse("nonmonotonic:dynamic").unwrap(),
            Schedule::NonmonotonicDynamic(1)
        );
        assert!(Schedule::parse("bogus").is_err());
        assert!(Schedule::parse("dynamic,x").is_err());
        assert!(Schedule::parse("dynamic,0").is_err());
    }

    #[test]
    fn schedule_round_trips_through_omp_str() {
        for s in [
            Schedule::Static,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(1),
            Schedule::Dynamic(2),
            Schedule::Guided(1),
            Schedule::Guided(4),
            Schedule::NonmonotonicDynamic(1),
            Schedule::NonmonotonicDynamic(2),
        ] {
            assert_eq!(Schedule::parse(&s.as_omp_str()).unwrap(), s);
        }
    }

    #[test]
    fn paper_policies_match_fig4() {
        let p = Schedule::paper_policies();
        assert!(p.contains(&Schedule::Static));
        assert!(p.contains(&Schedule::Dynamic(2)));
        assert!(p.contains(&Schedule::Guided(1)));
        assert!(p.contains(&Schedule::NonmonotonicDynamic(1)));
    }

    #[test]
    fn parse_paper_command_line() {
        // easypap --kernel mandel --variant omp_tiled --tile-size 16
        //         --iterations 50 --no-display
        let cfg = RunConfig::parse_args([
            "--kernel",
            "mandel",
            "--variant",
            "omp_tiled",
            "--tile-size",
            "16",
            "--iterations",
            "50",
            "--no-display",
        ])
        .unwrap();
        assert_eq!(cfg.kernel, "mandel");
        assert_eq!(cfg.variant, "omp_tiled");
        assert_eq!(cfg.tile_size, 16);
        assert_eq!(cfg.iterations, 50);
        assert_eq!(cfg.display, DisplayMode::None);
    }

    #[test]
    fn parse_mpi_command_line() {
        // easypap --kernel life --variant mpi_omp --mpirun "-np 2"
        //         --monitoring --debug M
        let cfg = RunConfig::parse_args([
            "--kernel", "life", "--variant", "mpi_omp", "--mpirun", "-np 2", "--monitoring",
            "--debug", "M",
        ])
        .unwrap();
        assert_eq!(cfg.mpi_ranks, 2);
        assert!(cfg.debug_mpi);
        assert_eq!(cfg.display, DisplayMode::Monitoring);
    }

    #[test]
    fn parse_errors() {
        assert!(RunConfig::parse_args(["--bogus"]).is_err());
        assert!(RunConfig::parse_args(["--kernel"]).is_err());
        assert!(RunConfig::parse_args(["--kernel", "mandel", "--size", "abc"]).is_err());
        assert!(RunConfig::parse_args(["--size", "64"]).is_err()); // kernel missing
        assert!(RunConfig::parse_args(["--kernel", "mandel", "--mpirun", "-x 2"]).is_err());
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut cfg = RunConfig::new("mandel");
        cfg.tile_size = 2048;
        cfg.dim = 1024;
        assert!(cfg.validate().is_err());
        cfg.tile_size = 0;
        assert!(cfg.validate().is_err());
        cfg.tile_size = 16;
        cfg.threads = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_chain() {
        let cfg = RunConfig::new("blur")
            .variant("omp_tiled")
            .size(512)
            .tile(32)
            .iterations(10)
            .threads(4)
            .schedule(Schedule::Dynamic(2));
        assert_eq!(cfg.kernel, "blur");
        assert_eq!(cfg.variant, "omp_tiled");
        assert_eq!(cfg.dim, 512);
        assert_eq!(cfg.tile_size, 32);
        assert_eq!(cfg.iterations, 10);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.schedule, Schedule::Dynamic(2));
        assert!(cfg.validate().is_ok());
        let grid = cfg.grid().unwrap();
        assert_eq!(grid.len(), 256);
    }

    #[test]
    fn frames_and_ansi_options() {
        let cfg = RunConfig::parse_args([
            "--kernel", "spin", "--frames", "out/frames", "--ansi",
        ])
        .unwrap();
        assert_eq!(cfg.frames_dir.as_deref(), Some("out/frames"));
        assert!(cfg.ansi);
        let plain = RunConfig::parse_args(["--kernel", "spin"]).unwrap();
        assert!(plain.frames_dir.is_none());
        assert!(!plain.ansi);
    }

    #[test]
    fn stats_and_trace_events_options() {
        let cfg = RunConfig::parse_args(["--kernel", "life", "--stats"]).unwrap();
        assert_eq!(cfg.stats, Some(StatsFormat::Text));
        let cfg = RunConfig::parse_args(["--kernel", "life", "--stats=json"]).unwrap();
        assert_eq!(cfg.stats, Some(StatsFormat::Json));
        let cfg = RunConfig::parse_args(["--kernel", "life", "--stats=csv"]).unwrap();
        assert_eq!(cfg.stats, Some(StatsFormat::Csv));
        let cfg = RunConfig::parse_args(["--kernel", "life", "--stats=text"]).unwrap();
        assert_eq!(cfg.stats, Some(StatsFormat::Text));
        assert!(RunConfig::parse_args(["--kernel", "life", "--stats=xml"]).is_err());
        let cfg =
            RunConfig::parse_args(["--kernel", "life", "--trace-events", "out.json"]).unwrap();
        assert_eq!(cfg.trace_events.as_deref(), Some("out.json"));
        assert!(RunConfig::parse_args(["--kernel", "life", "--trace-events"]).is_err());
        let plain = RunConfig::parse_args(["--kernel", "life"]).unwrap();
        assert_eq!(plain.stats, None);
        assert_eq!(plain.trace_events, None);
        assert!(!plain.explain);
        let cfg = RunConfig::parse_args(["--kernel", "life", "--explain"]).unwrap();
        assert!(cfg.explain);
    }

    #[test]
    fn streaming_options_parse_in_both_spellings() {
        let cfg = RunConfig::parse_args([
            "--kernel",
            "mandel_zoom",
            "--stream",
            "16",
            "--farm-width",
            "4",
            "--stream-mode",
            "unordered",
        ])
        .unwrap();
        assert_eq!(cfg.stream_frames, Some(16));
        assert_eq!(cfg.farm_width, 4);
        assert_eq!(cfg.stream_mode, EmitMode::Unordered);

        let cfg = RunConfig::parse_args([
            "--kernel",
            "mandel_zoom",
            "--stream=8",
            "--farm-width=2",
            "--stream-mode=ordered",
        ])
        .unwrap();
        assert_eq!(cfg.stream_frames, Some(8));
        assert_eq!(cfg.farm_width, 2);
        assert_eq!(cfg.stream_mode, EmitMode::Ordered);
    }

    #[test]
    fn streaming_options_validate() {
        // zero frames
        assert!(RunConfig::parse_args(["--kernel", "x", "--stream=0"]).is_err());
        // streaming knobs without --stream
        assert!(RunConfig::parse_args(["--kernel", "x", "--farm-width=2"]).is_err());
        assert!(RunConfig::parse_args(["--kernel", "x", "--stream-mode=unordered"]).is_err());
        // malformed values
        assert!(RunConfig::parse_args(["--kernel", "x", "--stream=abc"]).is_err());
        assert!(
            RunConfig::parse_args(["--kernel", "x", "--stream=4", "--stream-mode=sideways"])
                .is_err()
        );
        // defaults stay classic
        let plain = RunConfig::parse_args(["--kernel", "x"]).unwrap();
        assert_eq!(plain.stream_frames, None);
        assert_eq!(plain.farm_width, 0);
        assert_eq!(plain.stream_mode, EmitMode::Ordered);
    }

    #[test]
    fn emit_mode_round_trips_through_display() {
        for m in [EmitMode::Ordered, EmitMode::Unordered] {
            assert_eq!(EmitMode::parse(&m.to_string()).unwrap(), m);
        }
        assert!(EmitMode::parse("diagonal").is_err());
    }

    #[test]
    fn grain_is_an_alias_for_tile_size() {
        let cfg = RunConfig::parse_args(["--kernel", "mandel", "--grain", "16"]).unwrap();
        assert_eq!(cfg.tile_size, 16);
    }

    /// Every enum-valued flag names the accepted set when handed an
    /// unknown value — the error is the documentation.
    #[test]
    fn unknown_enum_values_name_the_accepted_set() {
        let msg = |args: &[&str]| {
            RunConfig::parse_args(args.iter().copied())
                .expect_err("bogus value must not parse")
                .to_string()
        };
        let m = msg(&["--kernel", "x", "--stream=4", "--stream-mode=random"]);
        assert!(m.contains("expected ordered or unordered"), "got: {m}");
        assert!(m.contains("random"), "echoes the offender: {m}");
        let m = msg(&["--kernel", "x", "--stats=xml"]);
        assert!(m.contains("expected text, json or csv"), "got: {m}");
    }
}
