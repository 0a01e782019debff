//! Virtual-scheduler executor: deterministic schedule exploration
//! (`ezp-check`).
//!
//! The real [`WorkerPool`](crate::WorkerPool) leaves interleavings to the
//! OS; a test that wants to *search* interleavings needs to own them.
//! This module re-runs the three scheduling substrates — chunk dispensers
//! ([`virtual_drain`] / [`virtual_for_range`] / [`virtual_for_tiles`])
//! and task graphs ([`virtual_taskgraph`]) — on `N` *logical* workers
//! multiplexed onto the calling thread. Which worker acts next is decided
//! by an explicit [`Interleave`] strategy from `ezp-testkit`, so a run is
//! a pure function of `(strategy kind, seed)`: a failing interleaving
//! found by a random walk replays byte-for-byte from its seed.
//!
//! The granularity of a virtual step is one dispenser call (one chunk) or
//! one task. That is exactly the granularity at which the scheduling
//! layer's invariants live — "every index handed out exactly once",
//! "a task never starts before its predecessors" — and the granularity
//! the shadow-write detector (`ezp_core::shadow`) needs: it judges
//! conflicts by *writer identity and happens-before*, not by wall-clock
//! order, so executing each chunk atomically loses no races.
//!
//! Everything here is compiled only under the `ezp-check` feature and is
//! never linked into production runs.

use crate::deque::{Steal, TaskDeque};
use crate::dispenser::{dispenser_for, Dispenser};
use crate::taskgraph::TaskGraph;
use ezp_core::error::{Error, Result};
use ezp_core::{Schedule, Tile, TileGrid, WorkerId};
use ezp_testkit::schedule::Interleave;

/// One step of a virtual schedule: `rank` called the dispenser and got
/// `chunk` (`None` = exhausted; the rank leaves the schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VStep {
    /// The logical worker that acted.
    pub rank: WorkerId,
    /// The chunk `(start, len)` granted, or `None` on exhaustion.
    pub chunk: Option<(usize, usize)>,
}

/// Drains `disp` from `workers` logical workers under `strategy`.
///
/// `f(index, chunk_id, rank)` runs for every iteration index, where
/// `chunk_id` numbers dispenser grants in schedule order — the writer
/// identity the shadow detector keys on. Returns the full step trace,
/// which is byte-for-byte reproducible for a given strategy state.
pub fn virtual_drain(
    disp: &dyn Dispenser,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(usize, usize, WorkerId),
) -> Vec<VStep> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    let mut runnable = vec![true; workers];
    let mut trace = Vec::new();
    let mut chunk_id = 0usize;
    while let Some(rank) = strategy.next_worker(&runnable) {
        match disp.next(rank) {
            Some((start, len)) => {
                trace.push(VStep {
                    rank,
                    chunk: Some((start, len)),
                });
                for i in start..start + len {
                    f(i, chunk_id, rank);
                }
                chunk_id += 1;
            }
            None => {
                runnable[rank] = false;
                trace.push(VStep { rank, chunk: None });
            }
        }
    }
    trace
}

/// [`virtual_drain`] over a fresh dispenser for `schedule` — the virtual
/// twin of [`parallel_for_range`](crate::parallel_for_range).
pub fn virtual_for_range(
    n: usize,
    schedule: Schedule,
    workers: usize,
    strategy: &mut dyn Interleave,
    f: impl FnMut(usize, usize, WorkerId),
) -> Vec<VStep> {
    let disp = dispenser_for(schedule, n, workers);
    virtual_drain(&*disp, workers, strategy, f)
}

/// The virtual twin of [`parallel_for_tiles`](crate::parallel_for_tiles):
/// `f(tile, chunk_id, rank)` for every tile of `grid`, chunked and
/// interleaved like the real scheduler would under `schedule`.
pub fn virtual_for_tiles(
    grid: &TileGrid,
    schedule: Schedule,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(Tile, usize, WorkerId),
) -> Vec<VStep> {
    let disp = dispenser_for(schedule, grid.len(), workers);
    virtual_drain(&*disp, workers, strategy, |i, chunk, rank| {
        f(grid.tile_at(i), chunk, rank)
    })
}

/// Executes `graph` under an explicit interleaving: each step, `strategy`
/// picks the acting worker *and* which ready task it grabs
/// ([`Interleave::pick`]), so random-walk strategies explore the space of
/// valid topological orders. Returns the `(task, rank)` execution order,
/// or [`Error::Config`] on a cycle (same contract as
/// [`TaskGraph::run`]).
pub fn virtual_taskgraph(
    graph: &TaskGraph,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(usize, WorkerId),
) -> Result<Vec<(usize, WorkerId)>> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    let n = graph.len();
    let mut indegree: Vec<usize> = (0..n).map(|t| graph.indegree(t)).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let runnable = vec![true; workers];
    while !ready.is_empty() {
        let rank = strategy
            .next_worker(&runnable)
            .expect("workers > 0 and all runnable");
        let task = ready.remove(strategy.pick(ready.len()));
        f(task, rank);
        order.push((task, rank));
        for &d in graph.dependents(task) {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(d);
            }
        }
    }
    if order.len() != n {
        return Err(Error::Config(format!(
            "task graph has a cycle: only {}/{n} tasks runnable",
            order.len()
        )));
    }
    Ok(order)
}

/// The virtual twin of the *deque-based* task-graph executor
/// ([`TaskGraph::run_probed`]): per-worker [`TaskDeque`]s with owner
/// LIFO pops and thief FIFO steals, interleaved one scheduling action
/// at a time by `strategy`.
///
/// Unlike [`virtual_taskgraph`] (which models an abstract ready set),
/// this drives the *real* lock-free deque through every strategy-chosen
/// owner/thief sequence: each step the strategy picks a worker, which
/// pops its own deque or — when empty — steals from the victim the
/// strategy picks among the non-empty deques. Released dependents go to
/// the acting worker's deque, exactly as in the threaded executor.
/// Returns the `(task, rank)` execution order plus how many grabs were
/// steals, or [`Error::Config`] on a cycle.
pub fn virtual_deque_taskgraph(
    graph: &TaskGraph,
    workers: usize,
    strategy: &mut dyn Interleave,
    mut f: impl FnMut(usize, WorkerId),
) -> Result<(Vec<(usize, WorkerId)>, u64)> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    let n = graph.len();
    let mut indegree: Vec<usize> = (0..n).map(|t| graph.indegree(t)).collect();
    let deques: Vec<TaskDeque> = (0..workers).map(|_| TaskDeque::with_capacity(n.max(1))).collect();
    // Same round-robin seeding as the threaded executor.
    for (i, t) in (0..n).filter(|&t| indegree[t] == 0).enumerate() {
        deques[i % workers].push(t);
    }
    let mut order = Vec::with_capacity(n);
    let mut steals = 0u64;
    let runnable = vec![true; workers];
    loop {
        if order.len() == n {
            break;
        }
        // A cycle leaves every deque empty with tasks outstanding.
        if deques.iter().all(|d| d.len_hint() == 0) {
            return Err(Error::Config(format!(
                "task graph has a cycle: only {}/{n} tasks runnable",
                order.len()
            )));
        }
        let rank = strategy
            .next_worker(&runnable)
            .expect("workers > 0 and all runnable");
        let task = match deques[rank].pop() {
            Some(t) => t,
            None => {
                // Steal from a strategy-chosen non-empty victim.
                let victims: Vec<usize> = (0..workers)
                    .filter(|&v| v != rank && deques[v].len_hint() > 0)
                    .collect();
                if victims.is_empty() {
                    continue; // nothing to grab; another worker acts next
                }
                let victim = victims[strategy.pick(victims.len())];
                match deques[victim].steal() {
                    Steal::Success(t) => {
                        steals += 1;
                        t
                    }
                    // Serialized execution: a steal from a non-empty
                    // deque cannot lose a race.
                    Steal::Retry | Steal::Empty => unreachable!("uncontended steal failed"),
                }
            }
        };
        f(task, rank);
        order.push((task, rank));
        for &d in graph.dependents(task) {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                deques[rank].push(d);
            }
        }
    }
    Ok((order, steals))
}

/// The outcome of a virtual streaming run ([`virtual_pipeline`]): the
/// substrate's execution order, the frame ids in emission order, and
/// the reorder-buffer peak the emission mode implied. Two runs from
/// the same `(strategy kind, seed)` compare equal — the replay contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VStream {
    /// `(task, rank)` execution order of the graph nodes.
    pub order: Vec<(usize, WorkerId)>,
    /// Frame ids in emission order: `0..frames` in ordered mode,
    /// completion order otherwise.
    pub emitted: Vec<usize>,
    /// Successful deque steals.
    pub steals: u64,
    /// Peak count of completed-but-unemitted frames (always 0 in
    /// unordered mode, where completion emits immediately).
    pub max_reorder_depth: usize,
}

/// Tracks the reorder buffer of an ordered (or pass-through unordered)
/// emission as frames complete in schedule order.
struct VReorder {
    ordered: bool,
    parked: Vec<bool>,
    frontier: usize,
    completed: usize,
    emitted: Vec<usize>,
    max_depth: usize,
}

impl VReorder {
    fn new(frames: usize, ordered: bool) -> Self {
        VReorder {
            ordered,
            parked: vec![false; frames],
            frontier: 0,
            completed: 0,
            emitted: Vec::with_capacity(frames),
            max_depth: 0,
        }
    }

    fn complete(&mut self, frame: usize) {
        self.completed += 1;
        if !self.ordered {
            self.emitted.push(frame);
            return;
        }
        self.parked[frame] = true;
        while self.frontier < self.parked.len() && self.parked[self.frontier] {
            self.emitted.push(self.frontier);
            self.frontier += 1;
        }
        // depth after the frontier advance: in-order arrivals cost 0,
        // mirroring the engine's accounting
        self.max_depth = self.max_depth.max(self.completed - self.frontier);
    }
}

/// The virtual twin of the streaming pipeline engine
/// (`ezp_stream::run_pipeline`): compiles `shape` over `frames` frames
/// to its task graph ([`PipeShape::graph`]) and executes it on the real
/// deque substrate under `strategy` ([`virtual_deque_taskgraph`]),
/// modeling the ordered reorder buffer (or unordered pass-through) at
/// the final stage.
///
/// The invariants the `ezp_check` sweeps pin on the result: ordered
/// emission is exactly `0..frames` (frame `n + 1` never leaves before
/// `n`), unordered emission is a permutation of it, and the run replays
/// byte-for-byte from its `(strategy, seed)`.
pub fn virtual_pipeline(
    shape: &crate::skeleton::PipeShape,
    frames: usize,
    workers: usize,
    ordered: bool,
    strategy: &mut dyn Interleave,
) -> Result<VStream> {
    let graph = shape.graph(frames);
    let last = shape.stages() - 1;
    let mut re = VReorder::new(frames, ordered);
    let (order, steals) = virtual_deque_taskgraph(&graph, workers, strategy, |t, _| {
        if shape.stage_of(t) == last {
            re.complete(shape.frame_of(t));
        }
    })?;
    Ok(VStream {
        order,
        emitted: re.emitted,
        steals,
        max_reorder_depth: re.max_depth,
    })
}

/// What a worker model is doing inside [`virtual_region_protocol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WPhase {
    /// Waiting for `job_seq` to pass its last seen region (or shutdown).
    Parked,
    /// Saw the epoch bump and copied the job; about to run it.
    Running,
    /// Ran the body (and recorded a panic, if told to); about to
    /// decrement `remaining`.
    Finishing,
}

/// A step-level model of the pool's epoch protocol (`pool.rs`): one
/// master and `workers` virtual workers interleaved by `strategy`, each
/// protocol step (publish, observe-epoch, run, decrement, observe-done,
/// read-panics, shutdown) a separate scheduling point.
///
/// `panic_plan(seq, rank)` says whether `rank`'s body panics in region
/// `seq` (1-based). For every region the model asserts the invariants
/// the threaded implementation's soundness comment claims:
///
/// * the master observes completion only after *every* worker ran that
///   exact region and decremented `remaining` (no early unblock, no
///   lost worker);
/// * the panic count the master reads equals the plan's count for that
///   region — never a leftover from region N-1 (the S1 regression);
/// * after the final region the master's shutdown reaches all workers,
///   including ones still parked (the shutdown-during-park schedule).
///
/// Returns the per-region panic counts the master observed.
pub fn virtual_region_protocol(
    regions: u64,
    workers: usize,
    panic_plan: impl Fn(u64, WorkerId) -> bool,
    strategy: &mut dyn Interleave,
) -> Vec<usize> {
    assert!(workers > 0, "virtual execution needs at least one worker");
    // Shared words of the protocol (plain vars: the model is serial).
    let mut job_seq = 0u64;
    let mut done_seq = 0u64;
    let mut remaining = 0usize;
    let mut panics = 0usize;
    let mut shutdown = false;
    // Per-worker state.
    let mut phase = vec![WPhase::Parked; workers];
    let mut last_seq = vec![0u64; workers];
    let mut ran = vec![0u32; workers];
    let mut alive = vec![true; workers];
    // Master state.
    let mut master_waiting = false; // between publish and observe-done
    let mut observed = Vec::new();

    // Slot `workers` is the master; workers are 0..workers. Parking is
    // modeled as leaving the runnable set (a parked thread cannot be
    // scheduled), and ParkLot notifies as re-entering it — so unfair
    // strategies (steal-heavy, starve-one) cannot spin the model on an
    // idle actor, and a lost wakeup would surface as non-termination
    // with work outstanding.
    let mut runnable = vec![true; workers + 1];
    while let Some(actor) = strategy.next_worker(&runnable) {
        if actor == workers {
            // ---- master step ----
            if master_waiting {
                // observe-done + read-panics (protocol step 4)
                if done_seq == job_seq {
                    for (w, &r) in ran.iter().enumerate() {
                        assert_eq!(
                            r, 1,
                            "master unblocked while worker {w} ran region {job_seq} {r} times"
                        );
                    }
                    let expected = (0..workers).filter(|&w| panic_plan(job_seq, w)).count();
                    assert_eq!(
                        panics, expected,
                        "region {job_seq}: master read a stale panic count"
                    );
                    observed.push(panics);
                    master_waiting = false;
                } else {
                    // park on the done lot; the last finisher notifies
                    runnable[workers] = false;
                }
            } else if job_seq < regions {
                // publish (protocol steps 1-2): reset accounting, then
                // bump the epoch and notify the idle lot — same order
                // as WorkerPool::run
                panics = 0;
                remaining = workers;
                ran = vec![0; workers];
                job_seq += 1;
                master_waiting = true;
                for w in 0..workers {
                    if alive[w] {
                        runnable[w] = true;
                    }
                }
            } else {
                // all regions observed: set shutdown, notify the idle
                // lot, exit (Drop joins, which the model's end-state
                // assertions stand in for)
                shutdown = true;
                for w in 0..workers {
                    if alive[w] {
                        runnable[w] = true;
                    }
                }
                runnable[workers] = false;
            }
        } else {
            // ---- worker step ----
            match phase[actor] {
                WPhase::Parked => {
                    if shutdown {
                        // shutdown observed from the parked wait — the
                        // shutdown-during-park path
                        alive[actor] = false;
                        runnable[actor] = false;
                    } else if job_seq > last_seq[actor] {
                        assert_eq!(
                            job_seq,
                            last_seq[actor] + 1,
                            "worker {actor} skipped an epoch"
                        );
                        last_seq[actor] = job_seq;
                        phase[actor] = WPhase::Running;
                    } else {
                        // nothing to do: park on the idle lot
                        runnable[actor] = false;
                    }
                }
                WPhase::Running => {
                    ran[actor] += 1;
                    if panic_plan(last_seq[actor], actor) {
                        panics += 1;
                    }
                    phase[actor] = WPhase::Finishing;
                }
                WPhase::Finishing => {
                    remaining -= 1;
                    if remaining == 0 {
                        done_seq = last_seq[actor];
                        // notify the done lot
                        runnable[workers] = true;
                    }
                    phase[actor] = WPhase::Parked;
                }
            }
        }
    }
    assert!(
        alive.iter().all(|&a| !a),
        "shutdown lost: a worker is still parked after master exit"
    );
    assert_eq!(observed.len() as u64, regions, "master lost a region");
    observed
}

/// What a [`virtual_chan`] run observed: every popped item in pop
/// order, plus the occupancy peak and stall counts. Two runs from the
/// same `(strategy kind, seed)` compare equal — the replay contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VChanReport {
    /// `(producer, seq)` for every popped item, in pop order. A read
    /// that observed an unwritten slot (possible only with
    /// `broken = true`) records `(lane, u64::MAX)`.
    pub popped: Vec<(usize, u64)>,
    /// Peak of `tail - head` over all lanes and steps.
    pub max_occupancy: usize,
    /// Times a producer found its lane full and parked.
    pub full_stalls: u64,
    /// Times a consumer swept every lane without work and parked.
    pub empty_stalls: u64,
}

/// Per-lane state of the step-level channel model: the monotone
/// counters and slot array of `ezp_chan::ring::RingCore`, one lane per
/// producer as in the MPMC composition.
struct VLane {
    /// `cap` slots; `None` = unwritten (the model's `MaybeUninit`).
    slots: Vec<Option<(usize, u64)>>,
    head: u64,
    tail: u64,
    /// Pop-claim flag (`ezp_chan::mpmc`'s per-lane consumer claim).
    claimed: bool,
    /// Producer finished all its items (`tx_alive == false`).
    done: bool,
}

/// Producer protocol step about to execute (one scheduling point each —
/// the granularity at which the ring's release/acquire pairs matter).
#[derive(Clone, Copy, PartialEq, Eq)]
enum PPhase {
    /// Load `head`, compare against `cap`.
    CheckFull,
    /// Write the slot (`(*slot.get()).write(value)`).
    WriteSlot,
    /// Release-store the bumped `tail`.
    PublishTail,
}

/// Consumer protocol step about to execute.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CPhase {
    /// Sweep lanes from the rotation cursor; claim one with an item.
    Claim,
    /// Read the slot out (`assume_init_read`).
    ReadSlot { lane: usize },
    /// Release-store the bumped `head`, drop the claim.
    PublishHead { lane: usize },
}

/// A step-level model of the `ezp-chan` MPMC channel — `producers`
/// single-producer ring lanes of capacity `cap`, drained by `consumers`
/// claim-rotating consumers — interleaved one protocol step at a time
/// by `strategy`. This is the `virtual_chan` twin the real channel's
/// adversarial battery leans on: the threaded tests can only sample
/// interleavings, the model *enumerates* them under every strategy
/// family and replays any failure from `(kind, seed)`.
///
/// Each producer pushes `items` values `0..items`; each push is three
/// scheduling points (`CheckFull`, `WriteSlot`, `PublishTail` — the
/// ring's load-acquire, slot write, and store-release). Each pop is
/// three as well (`Claim`, `ReadSlot`, `PublishHead`). Parking is
/// modeled as leaving the runnable set, with publishes and claim
/// releases re-entering waiters — so unfair strategies (steal-heavy,
/// starve-one) cannot spin the model on a blocked actor, and a lost
/// wakeup surfaces as non-termination with work outstanding.
///
/// `broken = true` swaps the producer's `WriteSlot` and `PublishTail`
/// steps — the bug the real ring's Release ordering on `tail` prevents:
/// the new count is published *before* the slot holds the value. A
/// consumer scheduled into that window reads an unwritten slot, which
/// the model records as `(lane, u64::MAX)`; [`check_chan_oracle`]
/// rejects it. `injected_broken_ordering_is_caught` in the ezp-check
/// suite pins that the oracle really catches this.
///
/// Build `strategy` for `producers + consumers` actors (producers come
/// first).
pub fn virtual_chan(
    producers: usize,
    consumers: usize,
    cap: usize,
    items: u64,
    broken: bool,
    strategy: &mut dyn Interleave,
) -> VChanReport {
    let producers = producers.max(1);
    let consumers = consumers.max(1);
    let cap = cap.max(1) as u64;
    let mut lanes: Vec<VLane> = (0..producers)
        .map(|_| VLane {
            slots: vec![None; cap as usize],
            head: 0,
            tail: 0,
            claimed: false,
            done: false,
        })
        .collect();
    let mut p_phase = vec![PPhase::CheckFull; producers];
    let mut p_next = vec![0u64; producers]; // next seq to push
    let mut c_phase = vec![CPhase::Claim; consumers];
    let mut c_cursor = vec![0usize; consumers]; // lane rotation
    // Parked actors (out of the runnable set, awaiting a wake).
    let mut p_parked = vec![false; producers];
    let mut c_parked = vec![false; consumers];

    let mut report = VChanReport {
        popped: Vec::with_capacity((producers as u64 * items) as usize),
        max_occupancy: 0,
        full_stalls: 0,
        empty_stalls: 0,
    };

    // Actors 0..producers are producers; producers..producers+consumers
    // are consumers. `runnable[x] = false` models parked or finished.
    let mut runnable = vec![true; producers + consumers];
    if items == 0 {
        for (p, r) in runnable.iter_mut().take(producers).enumerate() {
            lanes[p].done = true;
            *r = false;
        }
    }

    // A publish (or a producer finishing) can satisfy any sleeping
    // consumer; a drained slot or dropped claim can satisfy sleepers on
    // the other side. Waking everyone parked on the event's side is
    // exactly what `ParkLot::notify` (notify_all) does.
    macro_rules! wake_consumers {
        () => {
            for (c, parked) in c_parked.iter_mut().enumerate() {
                if *parked {
                    *parked = false;
                    runnable[producers + c] = true;
                }
            }
        };
    }

    while let Some(actor) = strategy.next_worker(&runnable) {
        if actor < producers {
            // ---- producer step ----
            let p = actor;
            let lane = &mut lanes[p];
            match p_phase[p] {
                PPhase::CheckFull => {
                    if lane.tail - lane.head >= cap {
                        // full: park on the not-full lot
                        report.full_stalls += 1;
                        p_parked[p] = true;
                        runnable[p] = false;
                    } else {
                        p_phase[p] =
                            if broken { PPhase::PublishTail } else { PPhase::WriteSlot };
                    }
                }
                PPhase::WriteSlot => {
                    // In broken mode the publish already bumped `tail`,
                    // so the item's slot is the one just published.
                    let slot_of = if broken { lane.tail - 1 } else { lane.tail };
                    let idx = (slot_of % cap) as usize;
                    lane.slots[idx] = Some((p, p_next[p]));
                    if broken {
                        // broken ordering: the write lands *after* the
                        // publish; this completes the push
                        p_next[p] += 1;
                        if p_next[p] == items {
                            lane.done = true;
                            runnable[p] = false;
                            wake_consumers!();
                        } else {
                            p_phase[p] = PPhase::CheckFull;
                        }
                    } else {
                        p_phase[p] = PPhase::PublishTail;
                    }
                }
                PPhase::PublishTail => {
                    // In broken mode the slot is still unwritten here —
                    // the published count runs ahead of the data.
                    lane.tail += 1;
                    report.max_occupancy =
                        report.max_occupancy.max((lane.tail - lane.head) as usize);
                    debug_assert!(lane.tail - lane.head <= cap, "occupancy exceeded cap");
                    if broken {
                        p_phase[p] = PPhase::WriteSlot;
                    } else {
                        p_next[p] += 1;
                        if p_next[p] == items {
                            lane.done = true;
                            runnable[p] = false;
                        } else {
                            p_phase[p] = PPhase::CheckFull;
                        }
                    }
                    wake_consumers!();
                }
            }
        } else {
            // ---- consumer step ----
            let c = actor - producers;
            match c_phase[c] {
                CPhase::Claim => {
                    let mut claimed_lane = None;
                    for off in 0..producers {
                        let l = (c_cursor[c] + off) % producers;
                        if !lanes[l].claimed && lanes[l].tail > lanes[l].head {
                            lanes[l].claimed = true;
                            c_cursor[c] = (l + 1) % producers;
                            claimed_lane = Some(l);
                            break;
                        }
                    }
                    match claimed_lane {
                        Some(l) => c_phase[c] = CPhase::ReadSlot { lane: l },
                        None => {
                            if lanes.iter().all(|l| l.done && l.tail == l.head) {
                                // drained and every producer gone: the
                                // channel is closed for good
                                runnable[producers + c] = false;
                            } else {
                                // empty (or every populated lane claimed):
                                // park on the not-empty lot
                                report.empty_stalls += 1;
                                c_parked[c] = true;
                                runnable[producers + c] = false;
                            }
                        }
                    }
                }
                CPhase::ReadSlot { lane } => {
                    let l = &mut lanes[lane];
                    // `take` models `assume_init_read`: the slot no
                    // longer owns the value. Reading `None` means the
                    // producer published before writing — the bug the
                    // oracle exists to catch.
                    let value = l.slots[(l.head % cap) as usize]
                        .take()
                        .unwrap_or((lane, u64::MAX));
                    report.popped.push(value);
                    c_phase[c] = CPhase::PublishHead { lane };
                }
                CPhase::PublishHead { lane } => {
                    lanes[lane].head += 1;
                    lanes[lane].claimed = false;
                    c_phase[c] = CPhase::Claim;
                    // a slot freed: wake the lane's producer; a claim
                    // dropped (and possibly more items visible): wake
                    // sleeping consumers
                    if p_parked[lane] {
                        p_parked[lane] = false;
                        runnable[lane] = true;
                    }
                    wake_consumers!();
                }
            }
        }
    }

    assert!(
        lanes.iter().all(|l| l.done && l.tail == l.head),
        "virtual_chan did not terminate cleanly: a lost wakeup left work outstanding"
    );
    report
}

/// The happens-before oracle over a [`virtual_chan`] run: every item
/// pushed is popped exactly once, and each producer's items appear in
/// pop order exactly as pushed (per-producer FIFO). Returns a
/// diagnostic instead of panicking so the injected-bug test can assert
/// the oracle *fires* on a broken ring.
pub fn check_chan_oracle(
    report: &VChanReport,
    producers: usize,
    items: u64,
) -> std::result::Result<(), String> {
    let expect_total = producers as u64 * items;
    if report.popped.len() as u64 != expect_total {
        return Err(format!(
            "lost or duplicated items: popped {} of {expect_total}",
            report.popped.len()
        ));
    }
    let mut next = vec![0u64; producers];
    for (i, &(p, seq)) in report.popped.iter().enumerate() {
        if p >= producers {
            return Err(format!("pop {i}: unknown producer {p}"));
        }
        if seq == u64::MAX {
            return Err(format!(
                "pop {i}: producer {p} slot read before it was written (torn publish)"
            ));
        }
        if seq != next[p] {
            return Err(format!(
                "pop {i}: producer {p} out of order: got seq {seq}, expected {} \
                 (lost, duplicated or reordered)",
                next[p]
            ));
        }
        next[p] += 1;
    }
    for (p, &n) in next.iter().enumerate() {
        if n != items {
            return Err(format!("producer {p}: only {n} of {items} items popped"));
        }
    }
    Ok(())
}

/// Transitive happens-before over a [`TaskGraph`], as per-task descendant
/// bitsets — the oracle [`ezp_core::shadow::ShadowSession`] needs to
/// judge cross-task conflicts. Intended for test-sized graphs (memory is
/// `O(n²/64)`).
pub struct Reachability {
    words: usize,
    bits: Vec<u64>,
}

impl Reachability {
    /// Computes reachability for `graph`. Panics on a cyclic graph (run
    /// [`TaskGraph::run_seq`] first to validate untrusted graphs).
    pub fn of(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        // Process in reverse topological order so descendant sets of
        // dependents are complete before being merged into their
        // predecessors.
        let mut topo = Vec::with_capacity(n);
        graph
            .run_seq(|t, _| topo.push(t))
            .expect("reachability requires an acyclic graph");
        for &t in topo.iter().rev() {
            for &d in graph.dependents(t) {
                bits[t * words + d / 64] |= 1 << (d % 64);
                let (head, tail) = bits.split_at_mut(t.max(d) * words);
                let (src, dst) = if d > t {
                    (&tail[..words], &mut head[t * words..t * words + words])
                } else {
                    (&head[d * words..d * words + words], &mut tail[..words])
                };
                for (dw, sw) in dst.iter_mut().zip(src.iter()) {
                    *dw |= sw;
                }
            }
        }
        Reachability { words, bits }
    }

    /// True when a dependency path leads from `a` to `b` (`a` happens
    /// before `b`).
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispenser::StealingDispenser;
    use ezp_testkit::schedule::{RandomWalk, RoundRobin, StarveOne, StealHeavy, StrategyKind};

    fn assert_exact_cover(hits: &[u32], what: &str) {
        for (i, &h) in hits.iter().enumerate() {
            assert_eq!(h, 1, "{what}: index {i} handed out {h} times");
        }
    }

    /// The dispenser-audit proof test: under every strategy family and
    /// many seeds, every policy hands out every index exactly once —
    /// including the stealing dispenser under adversarial steal-heavy and
    /// starve-one schedules (the exact interleaving class a double-grant
    /// under concurrent steal + local pop would corrupt).
    #[test]
    fn every_policy_exact_cover_under_adversarial_schedules() {
        let policies = [
            Schedule::Static,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(2),
            Schedule::Guided(1),
            Schedule::NonmonotonicDynamic(1),
            Schedule::NonmonotonicDynamic(3),
        ];
        for policy in policies {
            for kind in StrategyKind::all() {
                for seed in 0..16u64 {
                    for workers in [1usize, 2, 3, 5, 8] {
                        let n = 157;
                        let mut hits = vec![0u32; n];
                        let mut strategy = kind.build(seed, workers);
                        virtual_for_range(n, policy, workers, &mut *strategy, |i, _, _| {
                            hits[i] += 1;
                        });
                        assert_exact_cover(
                            &hits,
                            &format!("{policy:?} / {kind:?} / seed {seed} / {workers} workers"),
                        );
                    }
                }
            }
        }
    }

    /// Steal-heavy really does force the favourite through the steal
    /// path: it must record successful steals while other ranks still
    /// hold untouched static blocks.
    #[test]
    fn steal_heavy_schedule_forces_steals() {
        let n = 64;
        let d = StealingDispenser::new(n, 4, 1);
        let mut strategy = StealHeavy::new(2);
        let mut hits = vec![0u32; n];
        virtual_drain(&d, 4, &mut strategy, |i, _, _| hits[i] += 1);
        let stats = d.steal_stats().unwrap();
        assert!(stats[2].succeeded > 0, "favourite never stole: {stats:?}");
        // and nothing was lost or duplicated while it raided the others
        assert_exact_cover(&hits, "steal-heavy over stealing dispenser");
    }

    /// A starved worker that wakes up last must still find its static
    /// block (or what the thieves left of it) accounted for exactly once.
    #[test]
    fn starved_worker_sees_consistent_remains() {
        for seed in 0..32u64 {
            let n = 97;
            let mut hits = vec![0u32; n];
            let mut strategy = StarveOne::seeded(seed, 4);
            virtual_for_range(
                n,
                Schedule::NonmonotonicDynamic(2),
                4,
                &mut strategy,
                |i, _, _| hits[i] += 1,
            );
            assert_exact_cover(&hits, &format!("starve-one seed {seed}"));
        }
    }

    /// Same seed ⇒ same trace, different seed ⇒ (almost surely) a
    /// different trace: the replay contract of the executor as a whole.
    #[test]
    fn traces_replay_from_their_seed() {
        let trace = |seed: u64| {
            let mut s = RandomWalk::seeded(seed);
            virtual_for_range(200, Schedule::Dynamic(3), 4, &mut s, |_, _, _| {})
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn virtual_tiles_visit_every_tile_once() {
        let grid = TileGrid::new(50, 30, 16, 8).unwrap();
        let mut seen = vec![0u32; grid.len()];
        let mut s = RandomWalk::seeded(42);
        virtual_for_tiles(&grid, Schedule::Guided(1), 3, &mut s, |t, _, _| {
            seen[grid.linear_index(t.tx, t.ty)] += 1;
        });
        assert_exact_cover(&seen, "virtual_for_tiles");
    }

    #[test]
    fn virtual_taskgraph_is_topological_for_all_seeds() {
        let grid = TileGrid::square(40, 10).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let reach = Reachability::of(&g);
        for seed in 0..32u64 {
            let mut s = RandomWalk::seeded(seed);
            let order = virtual_taskgraph(&g, 4, &mut s, |_, _| {}).unwrap();
            assert_eq!(order.len(), g.len());
            let mut pos = vec![usize::MAX; g.len()];
            for (i, &(t, _)) in order.iter().enumerate() {
                pos[t] = i;
            }
            for a in 0..g.len() {
                for b in 0..g.len() {
                    if reach.precedes(a, b) {
                        assert!(
                            pos[a] < pos[b],
                            "seed {seed}: {a} must precede {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn virtual_taskgraph_detects_cycles() {
        let mut g = TaskGraph::new(3);
        g.add_dep(0, 1);
        g.add_dep(1, 2);
        g.add_dep(2, 0);
        let mut s = RoundRobin::new();
        assert!(virtual_taskgraph(&g, 2, &mut s, |_, _| {}).is_err());
    }

    #[test]
    fn deque_taskgraph_is_topological_and_replayable() {
        let grid = TileGrid::square(32, 8).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let reach = Reachability::of(&g);
        for seed in 0..8u64 {
            let mut s = RandomWalk::seeded(seed);
            let (order, _) = virtual_deque_taskgraph(&g, 4, &mut s, |_, _| {}).unwrap();
            assert_eq!(order.len(), g.len());
            let mut pos = vec![usize::MAX; g.len()];
            for (i, &(t, _)) in order.iter().enumerate() {
                pos[t] = i;
            }
            for a in 0..g.len() {
                for b in 0..g.len() {
                    if reach.precedes(a, b) {
                        assert!(pos[a] < pos[b], "seed {seed}: {a} must precede {b}");
                    }
                }
            }
            // Replay contract: same seed, same trace.
            let mut s2 = RandomWalk::seeded(seed);
            let (order2, _) = virtual_deque_taskgraph(&g, 4, &mut s2, |_, _| {}).unwrap();
            assert_eq!(order, order2, "seed {seed} did not replay");
        }
    }

    #[test]
    fn deque_taskgraph_steal_heavy_steals_without_losing_tasks() {
        let grid = TileGrid::square(24, 4).unwrap();
        let g = TaskGraph::down_right_wavefront(&grid);
        let mut s = StealHeavy::new(1);
        let mut hits = vec![0u32; g.len()];
        let (order, steals) = virtual_deque_taskgraph(&g, 4, &mut s, |t, _| hits[t] += 1).unwrap();
        assert_eq!(order.len(), g.len());
        assert!(steals > 0, "steal-heavy schedule never exercised the steal path");
        assert_exact_cover(&hits, "deque taskgraph under steal-heavy");
    }

    #[test]
    fn deque_taskgraph_detects_cycles() {
        let mut g = TaskGraph::new(3);
        g.add_dep(0, 1);
        g.add_dep(1, 2);
        g.add_dep(2, 0);
        let mut s = RoundRobin::new();
        assert!(virtual_deque_taskgraph(&g, 2, &mut s, |_, _| {}).is_err());
    }

    #[test]
    fn region_protocol_counts_panics_per_region_for_all_strategies() {
        // Region 1 has two planned panics, region 2 none, region 3 one:
        // a stale read (the S1 bug) shows up as region 2 observing 2.
        let plan = |seq: u64, rank: WorkerId| match seq {
            1 => rank == 0 || rank == 2,
            3 => rank == 1,
            _ => false,
        };
        for kind in StrategyKind::all() {
            for seed in 0..8u64 {
                // Model actors = workers + master, so build for workers+1.
                let mut s = kind.build(seed, 4);
                let observed = virtual_region_protocol(3, 3, plan, &mut *s);
                assert_eq!(
                    observed,
                    vec![2, 0, 1],
                    "{kind:?} seed {seed}: stale or lost panic count"
                );
            }
        }
    }

    #[test]
    fn region_protocol_single_worker_and_no_regions() {
        let mut s = RoundRobin::new();
        assert_eq!(virtual_region_protocol(0, 1, |_, _| false, &mut s), vec![]);
        let mut s = RoundRobin::new();
        assert_eq!(
            virtual_region_protocol(5, 1, |seq, _| seq % 2 == 1, &mut s),
            vec![1, 0, 1, 0, 1]
        );
    }

    #[test]
    fn virtual_pipeline_ordered_emits_in_frame_order() {
        use crate::skeleton::{PipeShape, PipeStage};
        let shape = PipeShape::new(vec![
            PipeStage::farm(3),
            PipeStage::serial(),
        ]);
        for seed in 0..8u64 {
            let mut s = RandomWalk::seeded(seed);
            let v = virtual_pipeline(&shape, 20, 3, true, &mut s).unwrap();
            assert_eq!(v.emitted, (0..20).collect::<Vec<_>>(), "seed {seed}");
            assert_eq!(v.order.len(), 20 * 2);
        }
    }

    #[test]
    fn virtual_pipeline_unordered_is_a_permutation() {
        use crate::skeleton::{PipeShape, PipeStage};
        let shape = PipeShape::new(vec![PipeStage::farm(4), PipeStage::farm(2)]);
        let mut s = RandomWalk::seeded(5);
        let v = virtual_pipeline(&shape, 30, 4, false, &mut s).unwrap();
        let mut sorted = v.emitted.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        assert_eq!(v.max_reorder_depth, 0, "unordered mode has no reorder buffer");
    }

    #[test]
    fn virtual_chan_single_producer_single_consumer_is_fifo() {
        let mut s = RoundRobin::new();
        let v = virtual_chan(1, 1, 4, 32, false, &mut s);
        check_chan_oracle(&v, 1, 32).unwrap();
        assert!(v.max_occupancy <= 4);
        // round-robin alternates producer/consumer steps, so the ring
        // never fills beyond a couple of items
        assert!(v.max_occupancy >= 1);
    }

    #[test]
    fn virtual_chan_backpressure_shows_as_full_stalls() {
        // Starve the consumer (actor 1): the producer runs alone until
        // the cap-1 ring fills, so it must park on every publish.
        let mut s = StealHeavy::new(0);
        let v = virtual_chan(1, 1, 1, 16, false, &mut s);
        check_chan_oracle(&v, 1, 16).unwrap();
        assert_eq!(v.max_occupancy, 1);
        assert!(v.full_stalls >= 15, "cap-1 ring must stall: {v:?}");
    }

    #[test]
    fn virtual_chan_replays_from_its_seed() {
        for kind in StrategyKind::all() {
            let mut a = kind.build(7, 5);
            let mut b = kind.build(7, 5);
            assert_eq!(
                virtual_chan(2, 3, 2, 20, false, &mut *a),
                virtual_chan(2, 3, 2, 20, false, &mut *b),
                "{kind:?}: run did not replay from its seed"
            );
        }
    }

    #[test]
    fn virtual_chan_oracle_rejects_handmade_corruption() {
        let mut s = RoundRobin::new();
        let good = virtual_chan(2, 1, 4, 8, false, &mut s);
        check_chan_oracle(&good, 2, 8).unwrap();

        let mut lost = good.clone();
        lost.popped.pop();
        assert!(check_chan_oracle(&lost, 2, 8).is_err(), "lost item missed");

        let mut dup = good.clone();
        let first = dup.popped[0];
        dup.popped[1] = first;
        assert!(check_chan_oracle(&dup, 2, 8).is_err(), "duplicate missed");

        let mut reordered = good.clone();
        // swap a producer's first two items in pop order
        let idx: Vec<usize> = reordered
            .popped
            .iter()
            .enumerate()
            .filter(|(_, &(p, _))| p == 0)
            .map(|(i, _)| i)
            .collect();
        reordered.popped.swap(idx[0], idx[1]);
        assert!(
            check_chan_oracle(&reordered, 2, 8).is_err(),
            "per-producer reorder missed"
        );

        let mut torn = good;
        torn.popped[3] = (0, u64::MAX);
        assert!(check_chan_oracle(&torn, 2, 8).is_err(), "torn read missed");
    }

    #[test]
    fn reachability_matches_hand_computed_diamond() {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1);
        g.add_dep(0, 2);
        g.add_dep(1, 3);
        g.add_dep(2, 3);
        let r = Reachability::of(&g);
        assert!(r.precedes(0, 1) && r.precedes(0, 2) && r.precedes(0, 3));
        assert!(r.precedes(1, 3) && r.precedes(2, 3));
        assert!(!r.precedes(1, 2) && !r.precedes(2, 1));
        assert!(!r.precedes(3, 0) && !r.precedes(1, 0));
    }
}
