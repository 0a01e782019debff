//! A persistent worker-thread pool executing parallel regions.
//!
//! `WorkerPool::run(f)` is `#pragma omp parallel`: every rank invokes
//! `f(rank)` once, and `run` returns when all of them are done. As in
//! OpenMP, the caller is rank 0: a pool of `n` ranks spawns `n − 1`
//! workers. They are parked between regions, so repeated parallel loops
//! (one per iteration of a kernel, like Fig. 2's `omp parallel` around
//! the iteration loop) do not pay thread creation costs.
//!
//! ## Hot-path synchronization
//!
//! Launching and closing a region is lock-free: a seqlock-style epoch
//! protocol replaces the mutex+condvar round trip an earlier version
//! paid on both sides of every region. Mutexes survive only inside the
//! [`ParkLot`] parking fallback, entered when a spin phase did not see
//! progress — a genuinely idle thread blocks in the kernel instead of
//! burning a core.
//!
//! ## Safety architecture
//!
//! The pool hands workers a borrowed closure without boxing per region.
//! The closure reference is type- and lifetime-erased into a raw pointer
//! while the region runs; soundness rests on a strict protocol:
//!
//! 1. `run` resets `panics`/`remaining` and writes the erased pointer
//!    into the job cell with a *plain* store. This is data-race-free
//!    because the pool is quiescent: `run` previously observed
//!    `done_seq == seq` (SeqCst), which happens-after the last worker's
//!    `remaining` decrement, which happens-after every worker's read of
//!    the cell (AcqRel chain through `remaining`). No worker touches the
//!    cell again until the next epoch is published.
//! 2. `run` publishes the region by storing the new sequence number to
//!    `job_seq` (SeqCst) and notifying the idle [`ParkLot`]. Workers
//!    spin-then-park on `job_seq`; observing the bump (SeqCst) makes the
//!    cell write visible, so they copy the pointer and run the closure.
//!    `run` then runs rank 0's share, catching its panic, so nothing
//!    unwinds past step 4. A region of width 1 has no worker: `run`
//!    closes it as it opens it, and nobody wakes.
//! 3. Each worker decrements `remaining` (AcqRel) when done; the last
//!    one stores the sequence number to `done_seq` (SeqCst) and notifies
//!    the done [`ParkLot`].
//! 4. `run` does not return until it observes `done_seq == seq`, so the
//!    closure cannot be dropped (nor its borrows invalidated) while any
//!    worker can still dereference the pointer, and every write the
//!    closure made is visible to the caller.
//!
//! Panics of every rank are caught, counted in `panics`, and re-raised
//! from `run` as a single panic naming the region, so a crashing tile
//! function cannot deadlock the pool. The counter is reset by `run`
//! *before* publishing the next epoch and read *after* observing
//! completion, both on the SeqCst spine above — a panic in region N is
//! reported by region N and can never leak into region N+1.
//!
//! ## Protocol steps
//!
//! The protocol is written once, as non-blocking steps on `PoolState`:
//! the caller's side is `publish` (steps 1–2), `run_share` and `close`
//! (step 4's read), a worker's side is `worker_step` (steps 2–3).
//! The threads here call them between their [`ParkLot`] waits; under
//! `ezp-check`, `vexec::virtual_region_protocol` calls the same steps
//! on a thread-less `RegionDriver` under an explicit interleaving.

// No lock type, hash-seeded collection or wall clock outside tests:
// the list is `clippy.toml` (docs/static-analysis.md).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::affinity;
use crate::park::ParkLot;
use ezp_core::ezp_debug;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Pools spawned so far. counter-only: the count is the entire payload.
static POOLS: AtomicUsize = AtomicUsize::new(0);

/// The job a region runs: type-erased `&dyn Fn(usize)`.
#[derive(Clone, Copy)]
struct ErasedJob {
    /// Raw wide pointer to the region closure.
    ptr: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointer is only dereferenced while `run` keeps the original
// closure alive (see protocol above), and the pointee is `Sync`.
unsafe impl Send for ErasedJob {}

impl ErasedJob {
    fn erase(f: &(dyn Fn(usize) + Sync)) -> Self {
        let ptr: *const (dyn Fn(usize) + Sync) = f;
        // SAFETY: the transmute only erases the pointee's lifetime to
        // `'static`; nothing is dereferenced here. Whoever publishes
        // the job promises the pointee outlives the region (the
        // contract of `PoolState::publish`).
        let ptr: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(ptr) };
        ErasedJob { ptr }
    }
}

/// The seqlock payload: the current region's erased closure. Written
/// only by `run` while the pool is quiescent, read by workers only
/// after they observe the matching `job_seq` bump.
struct JobCell(UnsafeCell<Option<ErasedJob>>);

// SAFETY: accesses are ordered by the epoch protocol documented in the
// module header — the writer is quiescent-exclusive, readers are
// epoch-gated — so the cell is never accessed concurrently.
unsafe impl Sync for JobCell {}

pub(crate) struct PoolState {
    /// Published region sequence number (0 = no region yet).
    job_seq: AtomicU64,
    /// The erased closure of the published region.
    job: JobCell,
    /// Workers still running the current region (not the caller).
    remaining: AtomicUsize,
    /// Last fully completed region sequence number.
    done_seq: AtomicU64,
    /// Number of ranks that panicked in the current region.
    panics: AtomicUsize,
    /// Set when the pool is shutting down (SeqCst, before `idle.notify`).
    shutdown: AtomicBool,
    /// Workers wait here for the next epoch (or shutdown).
    idle: ParkLot,
    /// `run` waits here for region completion.
    done: ParkLot,
    /// Per rank, nanoseconds its worker spent parked waiting for a region
    /// to open — the `cause="pool_park"` idle slices. Only that worker
    /// writes a slot; rank 0's, the caller's, stays 0. counter-only: a
    /// cumulative tally whose value is the entire payload.
    park_ns: Box<[AtomicU64]>,
}

/// What one [`PoolState::worker_step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WorkerStep {
    /// Ran the newly published region and reported completion.
    Ran,
    /// No region newer than the last one this worker ran: nothing done.
    Idle,
    /// The pool is shutting down: the worker must exit.
    Shutdown,
}

impl PoolState {
    fn new(threads: usize) -> Self {
        PoolState {
            job_seq: AtomicU64::new(0),
            job: JobCell(UnsafeCell::new(None)),
            remaining: AtomicUsize::new(0),
            done_seq: AtomicU64::new(0),
            panics: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle: ParkLot::new(),
            done: ParkLot::new(),
            park_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Protocol steps 1–2: resets the region accounting for `workers`
    /// workers, installs `job` and publishes region `seq` (closes it,
    /// with no worker).
    ///
    /// # Safety
    ///
    /// The pool must be quiescent — every region published before was
    /// observed closed ([`PoolState::is_closed`]) by this caller — and
    /// `job`'s closure must stay alive until region `seq` is observed
    /// closed too.
    // SAFETY: contract above — `dispatch` upholds it by blocking until
    // the region closes, `RegionDriver` by asserting it and by borrowing
    // the closure for its own lifetime.
    #[inline]
    unsafe fn publish(&self, seq: u64, workers: usize, job: ErasedJob) {
        // ORDERING: synchronizing via the spine, not locally — these
        // Relaxed resets are ordered before any worker activity of this
        // region by the SeqCst `job_seq` publication below (workers only
        // act after observing the epoch bump), and before the caller's
        // share by program order.
        self.panics.store(0, Ordering::Relaxed);
        self.remaining.store(workers, Ordering::Relaxed);
        if workers == 0 {
            self.done_seq.store(seq, Ordering::SeqCst);
            return;
        }
        // SAFETY: the pool is quiescent (protocol step 1) — no worker
        // reads the cell until the `job_seq` store below.
        unsafe { *self.job.0.get() = Some(job) };
        self.job_seq.store(seq, Ordering::SeqCst);
        self.idle.notify();
    }

    /// The caller's wait condition: region `seq` fully completed.
    #[inline]
    fn is_closed(&self, seq: u64) -> bool {
        self.done_seq.load(Ordering::SeqCst) == seq
    }

    /// Protocol step 4, after [`PoolState::is_closed`] held: how many
    /// ranks panicked in the region just closed.
    #[inline]
    fn close(&self, seq: u64) -> usize {
        debug_assert!(
            self.is_closed(seq),
            "closed region {seq} before its last worker left"
        );
        self.panics.load(Ordering::SeqCst)
    }

    /// A worker's wait condition: a region newer than `last_seq` is
    /// published, or the pool is shutting down.
    #[inline]
    pub(crate) fn has_work(&self, last_seq: u64) -> bool {
        self.shutdown.load(Ordering::SeqCst) || self.job_seq.load(Ordering::SeqCst) > last_seq
    }

    /// Protocol steps 2–3 for one worker: if a region newer than
    /// `*last_seq` is published, runs it as `rank` and reports
    /// completion (the last worker out closes the region).
    #[inline]
    pub(crate) fn worker_step(&self, rank: usize, last_seq: &mut u64) -> WorkerStep {
        if self.shutdown.load(Ordering::SeqCst) {
            return WorkerStep::Shutdown;
        }
        // `job_seq` can only have advanced to the next published region:
        // it is not published until every worker (us included) completed
        // the previous one.
        let seq = self.job_seq.load(Ordering::SeqCst);
        if seq == *last_seq {
            return WorkerStep::Idle;
        }
        *last_seq = seq;
        // SAFETY: gated on the epoch bump (protocol step 2); `run`
        // keeps the closure alive until we decrement `remaining`.
        let job = unsafe { (*self.job.0.get()).expect("epoch published without a job") };
        // SAFETY: `job.ptr` points at the closure `run` owns for this
        // epoch; it stays valid until our `remaining` decrement below,
        // which is the last thing this step does with it.
        let f = unsafe { &*job.ptr };
        self.run_share(f, rank);
        // ORDERING: synchronizing. AcqRel makes each worker's closure
        // effects visible to whichever worker decrements last (Acquire
        // pairs with every earlier Release decrement), and that last
        // worker's SeqCst `done_seq` store releases the lot to `run`.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last worker out closes the region.
            self.done_seq.store(seq, Ordering::SeqCst);
            self.done.notify();
        }
        WorkerStep::Ran
    }

    /// Runs `rank`'s share of the open region, counting its panic.
    pub(crate) fn run_share(&self, f: &(dyn Fn(usize) + Sync), rank: usize) {
        if std::panic::catch_unwind(AssertUnwindSafe(|| f(rank))).is_err() {
            self.panics.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Tells every worker to exit.
    pub(crate) fn shut_down(&self) {
        // SeqCst store before notify: a worker is either spinning (sees
        // the flag on its next check) or parked with `shutdown` in its
        // wait condition (the ParkLot protocol guarantees the wakeup).
        self.shutdown.store(true, Ordering::SeqCst);
        self.idle.notify();
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    state: Arc<PoolState>,
    handles: Vec<JoinHandle<()>>,
    /// Logical width: how many ranks a region dispatches work to.
    /// Always `1..=threads()`; ranks `>= width` still wake for the epoch
    /// (the `remaining` accounting covers every worker) but return
    /// immediately, so one pool can serve jobs narrower than itself —
    /// the property `PoolMux` leases rely on.
    width: usize,
    next_seq: u64,
    /// Each rank's `park_ns` tally at the last [`WorkerPool::park_ns`].
    parked: Vec<u64>,
}

impl WorkerPool {
    /// Spawns the `threads − 1` workers of a `threads`-rank pool (ranks
    /// `1..threads`; the caller is rank 0). If the spawner's affinity set
    /// has 2 or more CPUs and at least `threads`, each worker first binds
    /// to its own CPU of the set but the caller's, which stays unbound.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one worker");
        // ORDERING: counter-only, the number only rotates placement.
        let number = POOLS.fetch_add(1, Ordering::Relaxed);
        let (allowed, workers) = (affinity::allowed(), threads - 1);
        let cpus = affinity::plan(number, threads, &allowed);
        match &cpus {
            Ok(cpus) => ezp_debug!(
                "sched",
                "pool {number}: caller on cpu {}, {workers} worker(s) on cpus {cpus:?}",
                allowed[0]
            ),
            Err(why) => ezp_debug!("sched", "pool {number}: {workers} worker(s) unbound: {why}"),
        }
        let state = Arc::new(PoolState::new(threads));
        let handles = (1..threads)
            .map(|rank| {
                let state = state.clone();
                let cpu = cpus.as_ref().ok().map(|cpus| cpus[rank - 1]);
                std::thread::Builder::new()
                    .name(format!("ezp-worker-{rank}"))
                    .spawn(move || {
                        if let Some(cpu) = cpu {
                            affinity::bind(cpu);
                        }
                        worker_loop(rank, state)
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool {
            state,
            handles,
            width: threads,
            next_seq: 0,
            parked: vec![0; threads],
        }
    }

    /// Number of ranks: the caller and its workers.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Logical width: the number of ranks [`WorkerPool::run`] hands work
    /// to. Defaults to [`WorkerPool::threads`]; narrowed by
    /// [`WorkerPool::set_width`] when a wide shared pool runs a job that
    /// asked for fewer workers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Limits subsequent regions to `n` working ranks (clamped to
    /// `1..=threads`). Ranks `>= n` still participate in the epoch
    /// protocol (wake, decrement `remaining`) but run no user code, so
    /// the seqlock launch/close argument is untouched. Schedulers that
    /// size their dispensers off the pool must read
    /// [`WorkerPool::width`], not [`WorkerPool::threads`].
    pub fn set_width(&mut self, n: usize) {
        self.width = n.clamp(1, self.threads());
    }

    /// Number of parallel regions this pool has executed — a cheap
    /// sanity figure for the stats report (every `parallel for` and
    /// task-graph run is one region).
    pub fn regions_run(&self) -> u64 {
        self.next_seq
    }

    /// Calls `each(rank, ns)` with the nanoseconds each rank spent
    /// parked waiting for a region to open since the last call. The
    /// caller's wait for a region to close is not in it.
    pub(crate) fn park_ns(&mut self, mut each: impl FnMut(usize, u64)) {
        for (rank, seen) in self.parked.iter_mut().enumerate() {
            // ORDERING: counter-only load of a Relaxed tally, read
            // between regions, when no worker writes it.
            let now = self.state.park_ns[rank].load(Ordering::Relaxed);
            each(rank, now - std::mem::replace(seen, now));
        }
    }

    /// Runs one parallel region: every rank `< width()` executes
    /// `f(rank)` exactly once; returns when all ranks are done.
    ///
    /// # Panics
    ///
    /// Panics if any rank panicked inside `f` (after the region has
    /// fully completed, so the pool stays usable).
    pub fn run(&mut self, f: impl Fn(usize) + Sync) {
        let width = self.width;
        self.dispatch(&|rank| {
            if rank < width {
                f(rank);
            }
        });
    }

    /// Dispatches one epoch to every worker (the full seqlock protocol;
    /// see the module docs) and runs rank 0 on the caller. Width limiting
    /// happens in `run` — this layer involves all workers so `remaining`
    /// accounting stays uniform, or none for a region of width 1.
    fn dispatch(&mut self, f: &(dyn Fn(usize) + Sync)) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let state = &*self.state;
        let workers = self.handles.len() * usize::from(self.width > 1);
        // SAFETY: quiescent — the previous `dispatch` returned only
        // after `is_closed` held for its region. The closure outlives
        // every dereference because `f` lives in the caller's frame and
        // this function blocks until `done_seq == seq` (protocol step
        // 4), which happens-after the last worker's use of the pointer
        // (`run_share` catches the caller's panic before that wait).
        unsafe { state.publish(seq, workers, ErasedJob::erase(f)) };
        state.run_share(f, 0);
        // Wait for completion: spin, then park on the done lot. This
        // wait is the region's own wall time, not an idle slice of any
        // rank, so `park_ns` does not count it.
        state.done.wait_until(|| state.is_closed(seq));
        let panics = state.close(seq);
        if panics > 0 {
            panic!("{panics} worker(s) panicked in parallel region {seq}");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.state.shut_down();
        for h in self.handles.drain(..) {
            h.join().ok();
        }
    }
}

fn worker_loop(rank: usize, state: Arc<PoolState>) {
    let mut last_seq = 0u64;
    loop {
        // Wait for a region newer than the last one we ran, or shutdown.
        let parked = state.idle.wait_until(|| state.has_work(last_seq));
        if parked > 0 {
            // ORDERING: counter-only; only the caller reads the slot.
            state.park_ns[rank].fetch_add(parked, Ordering::Relaxed);
        }
        if state.worker_step(rank, &mut last_seq) == WorkerStep::Shutdown {
            return;
        }
    }
}

/// The epoch protocol without threads: one [`PoolState`] whose steps
/// the caller invokes itself, in any order it likes — the `ezp-check`
/// executor under an interleaving strategy, the unit tests below by
/// hand. Every region runs the one closure borrowed for `'f`, which is
/// what makes [`RegionDriver::publish`] safe to call.
#[cfg(any(test, feature = "ezp-check"))]
pub(crate) struct RegionDriver<'f> {
    /// The ranks' steps are called on this directly.
    pub(crate) state: PoolState,
    threads: usize,
    seq: u64,
    f: &'f (dyn Fn(usize) + Sync),
}

#[cfg(any(test, feature = "ezp-check"))]
impl<'f> RegionDriver<'f> {
    pub(crate) fn new(threads: usize, f: &'f (dyn Fn(usize) + Sync)) -> Self {
        RegionDriver {
            state: PoolState::new(threads),
            threads,
            seq: 0,
            f,
        }
    }

    /// Publishes the next region (1-based) and returns its number.
    pub(crate) fn publish(&mut self) -> u64 {
        assert!(self.is_closed(), "published over an open region");
        self.seq += 1;
        // SAFETY: quiescent per the assert above, and the closure
        // outlives `self` (`'f`), the only handle a step can run it by.
        unsafe {
            self.state
                .publish(self.seq, self.threads - 1, ErasedJob::erase(self.f))
        };
        self.seq
    }

    /// See [`PoolState::is_closed`], for the last published region.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.is_closed(self.seq)
    }

    /// See [`PoolState::close`].
    pub(crate) fn close(&self) -> usize {
        self.state.close(self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_rank_runs_exactly_once() {
        let mut pool = WorkerPool::new(4);
        let hits = [const { AtomicU64::new(0) }; 4];
        pool.run(|rank| {
            hits[rank].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn regions_are_reusable() {
        let mut pool = WorkerPool::new(3);
        let count = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn borrows_are_visible_after_run() {
        let mut pool = WorkerPool::new(4);
        let data: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.run(|rank| data[rank].store(rank as u64 + 1, Ordering::Relaxed));
        let values: Vec<u64> = data.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    #[test]
    fn single_worker_pool_works() {
        let mut pool = WorkerPool::new(1);
        let count = AtomicU64::new(0);
        pool.run(|rank| {
            assert_eq!(rank, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn width_limits_ranks_and_is_reversible() {
        let mut pool = WorkerPool::new(4);
        assert_eq!(pool.width(), 4);
        pool.set_width(2);
        let hits = [const { AtomicU64::new(0) }; 4];
        pool.run(|rank| {
            hits[rank].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(hits[1].load(Ordering::Relaxed), 1);
        assert_eq!(hits[2].load(Ordering::Relaxed), 0);
        assert_eq!(hits[3].load(Ordering::Relaxed), 0);
        // widen back: all ranks participate again
        pool.set_width(4);
        pool.run(|rank| {
            hits[rank].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert!(h.load(Ordering::Relaxed) >= 1);
        }
        assert_eq!(hits[2].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn width_is_clamped_to_pool_size() {
        let mut pool = WorkerPool::new(2);
        pool.set_width(9);
        assert_eq!(pool.width(), 2);
        pool.set_width(0);
        assert_eq!(pool.width(), 1);
        let count = AtomicU64::new(0);
        pool.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_is_propagated_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|rank| {
                if rank == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // pool must still work after a panicked region
        let count = AtomicU64::new(0);
        pool.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panic_in_region_n_is_not_observed_by_region_n_plus_one() {
        // Regression for the panic-accounting race: the reset and the
        // read of `panics` ride the epoch protocol's SeqCst spine, so a
        // panic in region N must be reported by region N exactly, and
        // the immediately following region must come up clean — over
        // many alternations, not just one.
        let mut pool = WorkerPool::new(3);
        for round in 0..25 {
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(|rank| {
                    if rank == round % 3 {
                        panic!("round {round}");
                    }
                });
            }));
            assert!(res.is_err(), "round {round}: panic was lost");
            // region N+1 must not observe region N's panic count
            let count = AtomicU64::new(0);
            pool.run(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 3, "round {round}");
        }
    }

    #[test]
    fn the_callers_panic_surfaces_after_the_workers_finish() {
        // rank 0 (the caller) panics at once while rank 1 is still
        // running: the panic surfaces only once rank 1's write is
        // visible, and the pool runs the next region
        let mut pool = WorkerPool::new(2);
        let written = AtomicU64::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|rank| {
                if rank == 0 {
                    std::panic::resume_unwind(Box::new("caller"));
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
                written.store(1, Ordering::Relaxed);
            });
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.starts_with("1 worker(s) panicked"), "got: {msg}");
        assert_eq!(written.load(Ordering::Relaxed), 1, "rank 1 still running");
        pool.run(|rank| {
            written.fetch_add(rank as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(written.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_width_one_region_runs_on_the_caller_and_publishes_nothing() {
        assert!(
            WorkerPool::new(1).handles.is_empty(),
            "a width-1 pool spawned"
        );
        let mut pool = WorkerPool::new(3);
        pool.set_width(1);
        let caller = std::thread::current().id();
        let count = AtomicU64::new(0);
        pool.run(|rank| {
            assert_eq!((rank, std::thread::current().id()), (0, caller));
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(pool.state.job_seq.load(Ordering::SeqCst), 0, "published");
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|_| std::panic::resume_unwind(Box::new("alone")));
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, "1 worker(s) panicked in parallel region 2");
        // the next published region sees none of it
        pool.set_width(3);
        pool.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn multiple_panics_in_one_region_are_all_counted() {
        let mut pool = WorkerPool::new(4);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|rank| {
                if rank < 3 {
                    panic!("boom {rank}");
                }
            });
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.starts_with("3 worker(s) panicked"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        drop(WorkerPool::new(0));
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = WorkerPool::new(3);
        drop(pool); // must not hang
    }

    #[test]
    fn drop_joins_cleanly_after_regions() {
        // Shutdown must reach workers that are parked between regions.
        let mut pool = WorkerPool::new(3);
        pool.run(|_| {});
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(pool); // must not hang
    }

    #[test]
    fn worker_step_without_a_new_epoch_is_idle_and_changes_nothing() {
        let runs = AtomicU64::new(0);
        let body = |_: usize| {
            runs.fetch_add(1, Ordering::Relaxed);
        };
        // ranks 1 and 2 are the workers; rank 0, the caller, does not step
        let mut pool = RegionDriver::new(3, &body);
        let mut last = [0u64; 3];
        // nothing published yet
        assert!(!pool.state.has_work(last[1]));
        assert_eq!(pool.state.worker_step(1, &mut last[1]), WorkerStep::Idle);
        assert_eq!((last[1], runs.load(Ordering::Relaxed)), (0, 0));

        assert_eq!(pool.publish(), 1);
        assert_eq!(pool.state.worker_step(1, &mut last[1]), WorkerStep::Ran);
        // a second step in the same epoch neither reruns the body nor
        // decrements `remaining` again: the region stays open for rank 2
        assert!(!pool.state.has_work(last[1]));
        assert_eq!(pool.state.worker_step(1, &mut last[1]), WorkerStep::Idle);
        assert_eq!((last[1], runs.load(Ordering::Relaxed)), (1, 1));
        assert!(!pool.is_closed(), "an idle step closed the region");
        assert_eq!(pool.state.worker_step(2, &mut last[2]), WorkerStep::Ran);
        assert!(pool.is_closed(), "the caller's share is not in `remaining`");

        pool.state.shut_down();
        assert!(
            pool.state.has_work(last[1]),
            "shutdown must end a worker's wait"
        );
        assert_eq!(
            pool.state.worker_step(1, &mut last[1]),
            WorkerStep::Shutdown
        );
        assert_eq!(runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn close_reads_the_panic_count_of_exactly_the_region_it_published() {
        // ranks 0 (the caller) and 2 panic in region 1, nobody in region
        // 2, rank 1 in region 3 (resume_unwind: a panic without the
        // hook's noise)
        let region = AtomicU64::new(0);
        let body = |rank: usize| {
            let panics = match region.load(Ordering::Relaxed) {
                1 => rank != 1,
                3 => rank == 1,
                _ => false,
            };
            if panics {
                std::panic::resume_unwind(Box::new("planned"));
            }
        };
        let mut pool = RegionDriver::new(3, &body);
        let mut last = [0u64; 3];
        let mut observed = Vec::new();
        for _ in 0..3 {
            region.store(pool.publish(), Ordering::Relaxed);
            for rank in [2, 0, 1] {
                assert!(!pool.is_closed(), "closed with rank {rank} still to run");
                if rank == 0 {
                    pool.state.run_share(&body, 0);
                } else {
                    let step = pool.state.worker_step(rank, &mut last[rank]);
                    assert_eq!(step, WorkerStep::Ran);
                }
            }
            assert!(pool.is_closed());
            observed.push(pool.close());
        }
        assert_eq!(observed, vec![2, 0, 1]);
    }

    /// Runs one region through `run` once every worker (`threads − 1`)
    /// of `pool` is parked, and returns what `park_ns` has left to
    /// report per rank after it. A waiter parks once its spin phase runs
    /// out; the wait for that is bounded. A worker records its wait
    /// before it runs the region, so its tally is final when `run` ends.
    fn after_a_pause(pool: &mut WorkerPool, run: impl FnOnce(&mut WorkerPool)) -> Vec<u64> {
        pool.run(|_| {});
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.state.idle.sleepers() < pool.threads() - 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "the workers never parked"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        pool.park_ns(|_, _| {});
        run(pool);
        let mut parked = vec![0; pool.threads()];
        pool.park_ns(|rank, ns| parked[rank] = ns);
        parked
    }

    #[test]
    fn a_region_after_a_pause_records_the_workers_park() {
        let parked = after_a_pause(&mut WorkerPool::new(2), |pool| pool.run(|_| {}));
        assert_eq!(parked[0], 0, "the caller never waits for a region to open");
        assert!(
            parked[1] > 0,
            "no region after a pause found a parked worker"
        );
    }

    #[test]
    fn a_probed_region_after_a_pause_books_each_workers_park_on_its_rank() {
        use crate::parallel::run_region_probed;
        use ezp_core::kernel::{IdleCause, Probe, RuntimeEvent};
        use ezp_core::WorkerId;
        /// Sums the `pool_park` idle slices reported to it, per rank.
        struct Parks([AtomicU64; 3]);
        impl Probe for Parks {
            fn wants_runtime_events(&self) -> bool {
                true
            }
            fn runtime_event(&self, rank: WorkerId, event: RuntimeEvent) {
                if let RuntimeEvent::IdleNs {
                    ns,
                    cause: IdleCause::PoolPark,
                } = event
                {
                    self.0[rank].fetch_add(ns, Ordering::Relaxed);
                }
            }
        }
        let probe = Parks([const { AtomicU64::new(0) }; 3]);
        let left = after_a_pause(&mut WorkerPool::new(3), |pool| {
            run_region_probed(pool, &probe, true, |_| {});
        });
        let booked: Vec<u64> = probe
            .0
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed))
            .collect();
        assert_eq!(booked[0], 0, "pool_park booked on the caller");
        assert!(
            booked[1] > 0 && booked[2] > 0,
            "a parked worker booked none: {booked:?}"
        );
        // the probed region took its deltas: nothing is left to report
        assert_eq!(left, vec![0; 3]);
    }

    #[test]
    fn a_probed_region_books_no_park_for_the_callers_wait() {
        use crate::parallel::run_region_probed;
        use ezp_core::kernel::{IdleCause, Probe, RuntimeEvent};
        use ezp_core::WorkerId;
        use std::time::{Duration, Instant};
        /// Sums the `pool_park` idle slices reported to it.
        struct Parks(AtomicU64);
        impl Probe for Parks {
            fn wants_runtime_events(&self) -> bool {
                true
            }
            fn runtime_event(&self, _: WorkerId, event: RuntimeEvent) {
                if let RuntimeEvent::IdleNs {
                    ns,
                    cause: IdleCause::PoolPark,
                } = event
                {
                    self.0.fetch_add(ns, Ordering::Relaxed);
                }
            }
        }
        // Both ranks compute for 25 ms, so the caller spins out and
        // parks on the done lot for most of the region. The workers are
        // already waiting when it opens, so they park for little or
        // nothing, and the caller's wait is no rank's idle time.
        let mut pool = WorkerPool::new(2);
        pool.run(|_| {});
        let probe = Parks(AtomicU64::new(0));
        let t0 = Instant::now();
        run_region_probed(&mut pool, &probe, true, |_| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(25) {
                std::hint::spin_loop();
            }
        });
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(20), "{waited:?}");
        let parked = Duration::from_nanos(probe.0.load(Ordering::Relaxed));
        assert!(
            parked < waited / 4,
            "pool_park {parked:?} of a region the caller waited {waited:?} for"
        );
    }
}
