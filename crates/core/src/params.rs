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
use std::sync::OnceLock;
use Grammar::{Custom, Int, OneOf, OptOneOf, Switch, Text};

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
                    return Err(Error::Config(format!(
                        "schedule chunk must be > 0 in `{s}`"
                    )));
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

/// What follows a flag on the command line, with the setter that takes
/// the checked value.
pub enum Grammar<C: 'static> {
    /// No value (`--trace`).
    Switch(fn(&mut C)),
    /// Any string: a name or a path.
    Text(fn(&mut C, &str)),
    /// A whole number in the inclusive `min..=max`.
    Int(u64, u64, fn(&mut C, u64)),
    /// One word of a set; the setter gets its index.
    OneOf(&'static [&'static str], fn(&mut C, usize)),
    /// `OneOf` whose bare flag means the first word and whose value can
    /// only be glued on with `=` (`--stats`, `--stats=json`).
    OptOneOf(&'static [&'static str], fn(&mut C, usize)),
    /// A grammar the setter parses itself; the string is one valid
    /// value (`dynamic,2`, `-np 2`, `1:3`).
    Custom(&'static str, fn(&mut C, &str) -> Result<()>),
}

/// One row of a command's flag table: what the program knows about a
/// flag is written here and nowhere else.
pub struct Flag<C: 'static> {
    /// Every spelling, the documented one first.
    pub names: &'static [&'static str],
    /// The value it takes and where the value goes.
    pub grammar: Grammar<C>,
    /// The [`Mode`]s (by name) with nothing to feed it.
    pub refused_in: &'static [&'static str],
}

impl<C> Flag<C> {
    /// A row no run mode refuses.
    pub const fn new(names: &'static [&'static str], grammar: Grammar<C>) -> Self {
        Flag {
            names,
            grammar,
            refused_in: &[],
        }
    }

    /// `--size|-s 1..=8192`: the row as an unknown-option message shows it.
    pub fn usage(&self) -> String {
        let value = match self.grammar {
            Switch(_) => String::new(),
            Text(_) => " TEXT".to_string(),
            Int(min, max, _) => format!(" {min}..={max}"),
            OneOf(words, _) => format!(" {}", words.join("|")),
            OptOneOf(words, _) => format!("[={}]", words.join("|")),
            Custom(example, _) => format!(" '{example}'"),
        };
        self.names.join("|") + &value
    }
}

/// A way of running that cannot honour some flags (`--stream=N` has no
/// tile grid to trace): the name errors use, and whether the parsed
/// configuration runs that way.
pub type Mode<C> = (&'static str, fn(&C) -> bool);

/// A command's whole command-line grammar.
pub struct Command<C: 'static> {
    /// The command as the user types it (`easypap serve`).
    pub name: &'static str,
    /// One row per flag.
    pub flags: &'static [Flag<C>],
    /// The run modes rows can be refused in.
    pub modes: &'static [Mode<C>],
    /// How many bare words (`easyview explain <trace>`) it accepts.
    pub positionals: usize,
}

impl<C> Command<C> {
    /// The error for an argument no row names; it lists the rows, which
    /// is all the `--help` there is.
    pub fn unknown(&self, arg: &str) -> Error {
        let rows: Vec<String> = self.flags.iter().map(Flag::usage).collect();
        Error::Config(format!(
            "unknown option `{arg}`; {} takes: {}",
            self.name,
            rows.join(", ")
        ))
    }

    /// Holds a number that did not come through [`parse`] (a config
    /// built in code) to the range of the integer row `flag`.
    pub fn check_int(&self, flag: &str, n: u64) -> Result<()> {
        match self
            .flags
            .iter()
            .find(|f| f.names[0] == flag)
            .map(|f| &f.grammar)
        {
            Some(&Int(min, max, _)) => int_in(flag, &n.to_string(), min, max).map(drop),
            _ => panic!("{} has no integer row {flag}", self.name),
        }
    }
}

/// Parses `text` as a whole number in `min..=max`; the error names
/// `flag`, the offending text and the accepted range.
pub fn int_in(flag: &str, text: &str, min: u64, max: u64) -> Result<u64> {
    let why = match text.parse::<u64>() {
        Ok(n) if (min..=max).contains(&n) => return Ok(n),
        Err(_) if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) => {
            "not a whole number in"
        }
        _ => "out of range",
    };
    Err(Error::Config(format!(
        "`{flag} {text}`: {why} {min}..={max}"
    )))
}

/// Narrows a number its row has bounded to the field's type. A `max`
/// that does not fit the field is a bug in the row; the boundary test
/// feeds every row its `max` and lands here.
pub fn fit<T: TryFrom<u64>>(n: u64) -> T {
    T::try_from(n)
        .ok()
        .expect("a row's max exceeds the type of the field it sets")
}

/// The one argv loop: walks `args` against `cmd`'s table, storing each
/// value into `cfg` through its row's setter, and returns the bare
/// words. Every valued flag takes `--flag value` and `--flag=value`.
pub fn parse<C, I, S>(cmd: &Command<C>, args: I, cfg: &mut C) -> Result<Vec<String>>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut bare = Vec::new();
    let mut seen = vec![false; cmd.flags.len()];
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        if !arg.starts_with('-') {
            if bare.len() == cmd.positionals {
                return Err(cmd.unknown(arg));
            }
            bare.push(arg.to_string());
            continue;
        }
        let (name, glued) = arg
            .split_once('=')
            .map_or((arg, None), |(n, v)| (n, Some(v)));
        let row = cmd.flags.iter().position(|f| f.names.contains(&name));
        let row = row.ok_or_else(|| cmd.unknown(arg))?;
        seen[row] = true;
        let grammar = &cmd.flags[row].grammar;
        let next: S;
        let value = match (grammar, glued) {
            (Switch(_), Some(_)) => {
                return Err(Error::Config(format!(
                    "option {name} takes no value (got `{arg}`)"
                )))
            }
            (Switch(_), None) => "",
            (OptOneOf(words, _), None) => words[0],
            (_, Some(value)) => value,
            (_, None) => {
                let missing = || Error::Config(format!("option {name} requires a value"));
                next = it.next().ok_or_else(missing)?;
                next.as_ref()
            }
        };
        match *grammar {
            Switch(set) => set(cfg),
            Text(set) => set(cfg, value),
            Int(min, max, set) => set(cfg, int_in(name, value, min, max)?),
            OneOf(words, set) | OptOneOf(words, set) => {
                let (last, init) = words.split_last().expect("a one-of row lists its words");
                let expected =
                    || format!("`{name} {value}`: expected {} or {last}", init.join(", "));
                set(
                    cfg,
                    words
                        .iter()
                        .position(|w| *w == value)
                        .ok_or_else(|| Error::Config(expected()))?,
                )
            }
            Custom(_, set) => set(cfg, value)?,
        }
    }
    for (mode, _) in cmd.modes.iter().filter(|(_, active)| active(cfg)) {
        let refused =
            |(f, &seen): (&Flag<C>, &bool)| (f.names[0], seen && f.refused_in.contains(mode));
        reject_flags(
            mode,
            &cmd.flags.iter().zip(&seen).map(refused).collect::<Vec<_>>(),
        )?;
    }
    Ok(bare)
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
    // Compatibility field: the frozen `benchmark/` is its only reader,
    // and no flag sets it (`--farm-width` is retired, `docs/knobs.md`).
    // A streamed run's farm width is `threads`.
    #[doc(hidden)]
    pub farm_width: usize,
    /// `--stream-mode ordered|unordered`: output ordering of a
    /// streaming run.
    pub stream_mode: EmitMode,
    /// `--list`: enumerate kernels and variants instead of running one.
    pub list: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            kernel: String::new(),
            variant: "seq".to_string(),
            dim: DEFAULT_DIM,
            tile_size: DEFAULT_TILE_SIZE,
            iterations: 1,
            threads: default_threads(),
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
            list: false,
        }
    }
}

/// `available_parallelism()`, read once per process: it reads cgroup
/// files on every call (11–14 µs), and a daemon builds a config per job.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
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
    /// name) against [`EASYPAP`]. Mirrors the options shown throughout
    /// §II of the paper.
    pub fn parse_args<I, S>(args: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cfg = RunConfig::default();
        parse(&EASYPAP, args, &mut cfg)?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Sanity-checks the configuration: the cross-field conditions no
    /// single row can state, and the rows' ranges for a config that was
    /// built in code instead of parsed.
    pub fn validate(&self) -> Result<()> {
        if self.list {
            return Ok(());
        }
        if self.kernel.is_empty() {
            return Err(Error::Config("--kernel is required".into()));
        }
        let set = [
            self.dim,
            self.tile_size,
            self.threads,
            self.stream_frames.unwrap_or(1),
        ];
        for (flag, n) in ["--size", "--tile-size", "--threads", "--stream"]
            .into_iter()
            .zip(set)
        {
            EASYPAP.check_int(flag, n as u64)?;
        }
        int_in("--mpirun -np", &self.mpi_ranks.to_string(), 1, MAX_RANKS)?;
        if self.tile_size > self.dim && self.stream_frames.is_none() {
            // streaming runs have no tile grid, so the default tile
            // size must not constrain small streamed frames
            let whose = if self.tile_size == DEFAULT_TILE_SIZE {
                " (the default)"
            } else {
                ""
            };
            return Err(Error::Config(format!(
                "--tile-size {}{whose} exceeds image dimension {dim}: pass --tile-size {dim} or smaller",
                self.tile_size,
                dim = self.dim
            )));
        }
        if self.stream_frames.is_none() && self.stream_mode != EmitMode::Ordered {
            return Err(Error::Config("--stream-mode requires --stream=N".into()));
        }
        Ok(())
    }

    /// `--debug M` on `life mpi_omp`: the run shows every rank's
    /// monitor windows (Fig. 13) and collects nothing else.
    pub fn shows_rank_windows(&self) -> bool {
        self.debug_mpi && self.is_distributed()
    }

    /// `life mpi_omp`: every rank records its tiles into a monitor of
    /// its own, which only the rank windows of `--debug M` collect.
    fn is_distributed(&self) -> bool {
        self.kernel == "life" && self.variant == "mpi_omp"
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

/// Largest `--size` / `--tile-size`: one 8192² RGBA image is 256 MiB,
/// all an in-place kernel holds; a double-buffering one holds two.
pub const MAX_DIM: u64 = 8192;
/// Largest `--threads` / `serve --workers`.
pub const MAX_THREADS: u64 = 128;
/// Largest `--mpirun -np`: every rank spawns a pool of `--threads`.
pub const MAX_RANKS: u64 = 32;

/// A streamed run has no tile grid, monitor or final image.
const STREAMED: &str = "--stream=N";
/// See [`RunConfig::shows_rank_windows`].
const RANK_WINDOWS: &str = "--debug M";
/// Both: the modes with nothing to trace, explain or show.
const UNOBSERVED: &[&str] = &[STREAMED, RANK_WINDOWS];
/// The run's own monitor sees no tile of a distributed run (see
/// `RunConfig::is_distributed`); the counters of `--stats` still do.
const RANKS_UNCOLLECTED: &str = "a distributed run (mpi_omp) without --debug M";
/// Every mode: none leaves a tile in the run's monitor to write out.
const UNTRACED: &[&str] = &[STREAMED, RANK_WINDOWS, RANKS_UNCOLLECTED];

/// The `easypap` flag table: one row per option of the paper's §II.
#[rustfmt::skip]
pub static EASYPAP: Command<RunConfig> = Command {
    name: "easypap",
    positionals: 0,
    modes: &[
        (STREAMED, |c| c.stream_frames.is_some()),
        (RANK_WINDOWS, RunConfig::shows_rank_windows),
        (RANKS_UNCOLLECTED, |c| c.is_distributed() && !c.debug_mpi),
    ],
    flags: &[
        Flag::new(&["--kernel", "-k"], Text(|c, s| c.kernel = s.to_string())),
        Flag::new(&["--variant", "-v"], Text(|c, s| c.variant = s.to_string())),
        Flag::new(&["--size", "-s"], Int(1, MAX_DIM, |c, n| c.dim = fit(n))),
        Flag::new(&["--tile-size", "--grain", "-ts", "-g"], Int(1, MAX_DIM, |c, n| c.tile_size = fit(n))),
        Flag::new(&["--iterations", "-i"], Int(0, u32::MAX as u64, |c, n| c.iterations = fit(n))),
        Flag::new(&["--threads", "-t"], Int(1, MAX_THREADS, |c, n| c.threads = fit(n))),
        Flag::new(&["--schedule"], Custom("dynamic,2", |c, s| Schedule::parse(s).map(|p| c.schedule = p))),
        Flag::new(&["--no-display", "-n"], Switch(|c| c.display = DisplayMode::None)),
        Flag { names: &["--monitoring", "-m"], grammar: Switch(|c| c.display = DisplayMode::Monitoring), refused_in: &[STREAMED, RANKS_UNCOLLECTED] },
        Flag { names: &["--trace", "-tr"], grammar: Switch(|c| c.trace = true), refused_in: UNTRACED },
        Flag::new(&["--trace-file"], Text(|c, s| c.trace_file = s.to_string())),
        Flag { names: &["--explain"], grammar: Switch(|c| c.explain = true), refused_in: UNTRACED },
        // the paper passes the raw mpirun flags, e.g. "-np 2"
        Flag::new(&["--mpirun"], Custom("-np 2", |c, s| parse_mpirun(s).map(|n| c.mpi_ranks = n))),
        Flag::new(&["--debug"], Text(|c, s| { c.debug = true; c.debug_mpi |= s.contains('M') })),
        Flag::new(&["--arg", "-a"], Text(|c, s| c.kernel_arg = Some(s.to_string()))),
        Flag { names: &["--frames"], grammar: Text(|c, s| c.frames_dir = Some(s.to_string())), refused_in: UNOBSERVED },
        Flag { names: &["--ansi"], grammar: Switch(|c| c.ansi = true), refused_in: UNOBSERVED },
        Flag::new(&["--seed"], Int(0, u64::MAX, |c, n| c.seed = n)),
        Flag {
            names: &["--stats"],
            grammar: OptOneOf(&["text", "json", "csv"], |c, i| c.stats = Some([StatsFormat::Text, StatsFormat::Json, StatsFormat::Csv][i])),
            refused_in: &[RANK_WINDOWS],
        },
        Flag { names: &["--trace-events"], grammar: Text(|c, s| c.trace_events = Some(s.to_string())), refused_in: UNTRACED },
        Flag::new(&["--stream"], Int(1, 1_000_000, |c, n| c.stream_frames = Some(fit(n)))),
        Flag::new(&["--stream-mode"], OneOf(&["ordered", "unordered"], |c, i| c.stream_mode = [EmitMode::Ordered, EmitMode::Unordered][i])),
        Flag::new(&["--list", "-l"], Switch(|c| c.list = true)),
    ],
};

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

/// Extracts the rank count from an mpirun flag string such as `-np 2`.
fn parse_mpirun(spec: &str) -> Result<usize> {
    let mut words = spec
        .split_whitespace()
        .skip_while(|w| !["-np", "-n"].contains(w));
    match (words.next(), words.next()) {
        (Some(_), Some(n)) => int_in("--mpirun -np", n, 1, MAX_RANKS).map(fit),
        _ => Err(Error::Config(format!(
            "--mpirun `{spec}`: expected `-np N`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_the_available_parallelism() {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(RunConfig::new("x").threads, n);
        assert_eq!(RunConfig::new("y").threads, n, "the cached value");
    }

    #[test]
    fn schedule_parse_all_forms() {
        assert_eq!(Schedule::parse("static").unwrap(), Schedule::Static);
        assert_eq!(
            Schedule::parse("static,4").unwrap(),
            Schedule::StaticChunk(4)
        );
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
            "--kernel",
            "life",
            "--variant",
            "mpi_omp",
            "--mpirun",
            "-np 2",
            "--monitoring",
            "--debug",
            "M",
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
        let cfg = RunConfig::parse_args(["--kernel", "spin", "--frames", "out/frames", "--ansi"])
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
            "--stream-mode",
            "unordered",
        ])
        .unwrap();
        assert_eq!(cfg.stream_frames, Some(16));
        assert_eq!(cfg.stream_mode, EmitMode::Unordered);

        let cfg = RunConfig::parse_args([
            "--kernel",
            "mandel_zoom",
            "--stream=8",
            "--stream-mode=ordered",
        ])
        .unwrap();
        assert_eq!(cfg.stream_frames, Some(8));
        assert_eq!(cfg.stream_mode, EmitMode::Ordered);
    }

    #[test]
    fn streaming_options_validate() {
        // zero frames
        assert!(RunConfig::parse_args(["--kernel", "x", "--stream=0"]).is_err());
        // a streaming knob without --stream
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
        assert_eq!(plain.stream_mode, EmitMode::Ordered);
    }

    #[test]
    fn emit_mode_round_trips_through_display() {
        for m in [EmitMode::Ordered, EmitMode::Unordered] {
            let flag = format!("--stream-mode={m}");
            let cfg = RunConfig::parse_args(["--kernel", "x", "--stream=2", &flag]).unwrap();
            assert_eq!(cfg.stream_mode, m);
        }
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
