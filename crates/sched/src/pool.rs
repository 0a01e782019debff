//! A persistent worker-thread pool executing parallel regions.
//!
//! `WorkerPool::run(f)` is `#pragma omp parallel`: every worker invokes
//! `f(rank)` once, and `run` returns when all of them are done. Workers
//! are parked between regions, so repeated parallel loops (one per
//! iteration of a kernel, like Fig. 2's `omp parallel` around the
//! iteration loop) do not pay thread creation costs.
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
//! 3. Each worker decrements `remaining` (AcqRel) when done; the last
//!    one stores the sequence number to `done_seq` (SeqCst) and notifies
//!    the done [`ParkLot`].
//! 4. `run` does not return until it observes `done_seq == seq`, so the
//!    closure cannot be dropped (nor its borrows invalidated) while any
//!    worker can still dereference the pointer, and every write the
//!    closure made is visible to the caller.
//!
//! Worker panics are caught, counted in `panics`, and re-raised from
//! `run` as a single panic naming the region, so a crashing tile
//! function cannot deadlock the pool. The counter is reset by `run`
//! *before* publishing the next epoch and read *after* observing
//! completion, both on the SeqCst spine above — a panic in region N is
//! reported by region N and can never leak into region N+1.
//!
//! ## Protocol steps
//!
//! The protocol is written once, as non-blocking steps on `PoolState`:
//! the caller's side is `publish` (steps 1–2) and `close` (step 4's
//! read), a worker's side is `worker_step` (steps 2–3 for one region).
//! The threads here call them between their [`ParkLot`] waits; under
//! `ezp-check`, `vexec::virtual_region_protocol` calls the same steps
//! on a thread-less `RegionDriver` under an explicit interleaving.

use crate::park::ParkLot;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// Cumulative blocking-fallback activity of a pool (all regions so
/// far): how often threads had to spin or actually park instead of
/// finding the epoch already advanced. Exposed so the observability
/// layer can report the cost of region launch/close synchronization
/// (see `pool_parks` / `pool_spins` in docs/observability.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolSyncStats {
    /// Times a thread (worker or the caller of `run`) blocked on a
    /// condvar waiting for an epoch to advance.
    pub parks: u64,
    /// Spin-phase iterations executed while waiting for an epoch.
    pub spins: u64,
    /// Wall time spent in the park (slow) path, in nanoseconds. This is
    /// the `cause="pool_park"` slice of idle-cause attribution: time a
    /// thread was blocked in the kernel between regions rather than
    /// spinning or working.
    pub park_ns: u64,
}

pub(crate) struct PoolState {
    /// Published region sequence number (0 = no region yet).
    job_seq: AtomicU64,
    /// The erased closure of the published region.
    job: JobCell,
    /// Workers still running the current region.
    remaining: AtomicUsize,
    /// Last fully completed region sequence number.
    done_seq: AtomicU64,
    /// Number of workers that panicked in the current region.
    panics: AtomicUsize,
    /// Set when the pool is shutting down (SeqCst, before `idle.notify`).
    shutdown: AtomicBool,
    /// Workers wait here for the next epoch (or shutdown).
    idle: ParkLot,
    /// `run` waits here for region completion.
    done: ParkLot,
    // The three stat fields are counter-only: cumulative tallies whose
    // value is the entire payload.
    /// Cumulative parks across all threads and regions.
    stat_parks: AtomicU64,
    /// Cumulative spin iterations across all threads and regions.
    stat_spins: AtomicU64,
    /// Cumulative nanoseconds spent parked across all threads/regions.
    stat_park_ns: AtomicU64,
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
    fn new() -> Self {
        PoolState {
            job_seq: AtomicU64::new(0),
            job: JobCell(UnsafeCell::new(None)),
            remaining: AtomicUsize::new(0),
            done_seq: AtomicU64::new(0),
            panics: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle: ParkLot::new(),
            done: ParkLot::new(),
            stat_parks: AtomicU64::new(0),
            stat_spins: AtomicU64::new(0),
            stat_park_ns: AtomicU64::new(0),
        }
    }

    /// Protocol steps 1–2: resets the region accounting for `threads`
    /// workers, installs `job` and publishes region `seq`.
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
    unsafe fn publish(&self, seq: u64, threads: usize, job: ErasedJob) {
        // ORDERING: synchronizing via the spine, not locally — these
        // Relaxed resets are ordered before any worker activity of this
        // region by the SeqCst `job_seq` publication below (workers only
        // act after observing the epoch bump).
        self.panics.store(0, Ordering::Relaxed);
        self.remaining.store(threads, Ordering::Relaxed);
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
    /// workers panicked in the region just closed.
    #[inline]
    fn close(&self, seq: u64) -> usize {
        debug_assert!(self.is_closed(seq), "closed region {seq} before its last worker left");
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
        // `job_seq` can only have advanced by exactly one: the next
        // region is not published until every worker (us included)
        // completed the previous one.
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
        if std::panic::catch_unwind(AssertUnwindSafe(|| f(rank))).is_err() {
            self.panics.fetch_add(1, Ordering::SeqCst);
        }
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

    /// Tells every worker to exit.
    pub(crate) fn shut_down(&self) {
        // SeqCst store before notify: a worker is either spinning (sees
        // the flag on its next check) or parked with `shutdown` in its
        // wait condition (the ParkLot protocol guarantees the wakeup).
        self.shutdown.store(true, Ordering::SeqCst);
        self.idle.notify();
    }

    fn record_wait(&self, stats: crate::park::WaitStats) {
        // ORDERING: counter-only. The spin/park totals feed the stats
        // report; nothing synchronizes on them, so Relaxed increments
        // suffice (monotonicity is all the readers rely on).
        if stats.spins > 0 {
            self.stat_spins.fetch_add(stats.spins, Ordering::Relaxed);
        }
        if stats.parks > 0 {
            self.stat_parks.fetch_add(stats.parks, Ordering::Relaxed);
        }
        if stats.park_ns > 0 {
            self.stat_park_ns.fetch_add(stats.park_ns, Ordering::Relaxed);
        }
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    state: Arc<PoolState>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Logical width: how many ranks a region dispatches work to.
    /// Always `1..=threads`; ranks `>= width` still wake for the epoch
    /// (the `remaining` accounting covers every worker) but return
    /// immediately, so one pool can serve jobs narrower than itself —
    /// the property `PoolMux` leases rely on.
    width: usize,
    next_seq: u64,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (ranks `0..threads`).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one worker");
        let state = Arc::new(PoolState::new());
        let handles = (0..threads)
            .map(|rank| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("ezp-worker-{rank}"))
                    .spawn(move || worker_loop(rank, state))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool {
            state,
            handles,
            threads,
            width: threads,
            next_seq: 0,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
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
        self.width = n.clamp(1, self.threads);
    }

    /// Number of parallel regions this pool has executed — a cheap
    /// sanity figure for the stats report (every `parallel for` and
    /// task-graph run is one region).
    pub fn regions_run(&self) -> u64 {
        self.next_seq
    }

    /// Cumulative spin/park counts of the epoch protocol (all regions
    /// so far). Deltas across a region quantify how much launching and
    /// closing it had to block.
    pub fn sync_stats(&self) -> PoolSyncStats {
        // ORDERING: counter-only snapshot of the Relaxed totals above;
        // the two loads need no ordering between them (the report is
        // explicitly approximate while a region is in flight).
        PoolSyncStats {
            parks: self.state.stat_parks.load(Ordering::Relaxed),
            spins: self.state.stat_spins.load(Ordering::Relaxed),
            park_ns: self.state.stat_park_ns.load(Ordering::Relaxed),
        }
    }

    /// Runs one parallel region: every rank `< width()` executes
    /// `f(rank)` exactly once; returns when all workers are done.
    ///
    /// # Panics
    ///
    /// Panics if any worker panicked inside `f` (after the region has
    /// fully completed, so the pool stays usable).
    pub fn run(&mut self, f: impl Fn(usize) + Sync) {
        if self.width == self.threads {
            self.dispatch(&f);
        } else {
            let width = self.width;
            self.dispatch(&|rank| {
                if rank < width {
                    f(rank);
                }
            });
        }
    }

    /// Dispatches one epoch to every worker (the full seqlock protocol;
    /// see the module docs). Width limiting happens in `run` —
    /// this layer always involves all `threads` workers so `remaining`
    /// accounting stays uniform.
    fn dispatch(&mut self, f: &(dyn Fn(usize) + Sync)) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let state = &*self.state;
        // SAFETY: quiescent — the previous `dispatch` returned only
        // after `is_closed` held for its region. The closure outlives
        // every dereference because `f` lives in the caller's frame and
        // this function blocks until `done_seq == seq` (protocol step
        // 4), which happens-after the last worker's use of the pointer.
        unsafe { state.publish(seq, self.threads, ErasedJob::erase(f)) };
        // Wait for completion: spin, then park on the done lot.
        let wait = state.done.wait_until(|| state.is_closed(seq));
        state.record_wait(wait);
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
        let wait = state.idle.wait_until(|| state.has_work(last_seq));
        state.record_wait(wait);
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
    /// The worker-side steps are called on this directly.
    pub(crate) state: PoolState,
    threads: usize,
    seq: u64,
    f: &'f (dyn Fn(usize) + Sync),
}

#[cfg(any(test, feature = "ezp-check"))]
impl<'f> RegionDriver<'f> {
    pub(crate) fn new(threads: usize, f: &'f (dyn Fn(usize) + Sync)) -> Self {
        RegionDriver {
            state: PoolState::new(),
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
        unsafe { self.state.publish(self.seq, self.threads, ErasedJob::erase(self.f)) };
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
        let mut pool = RegionDriver::new(2, &body);
        let mut last = [0u64; 2];
        // nothing published yet
        assert!(!pool.state.has_work(last[0]));
        assert_eq!(pool.state.worker_step(0, &mut last[0]), WorkerStep::Idle);
        assert_eq!((last[0], runs.load(Ordering::Relaxed)), (0, 0));

        assert_eq!(pool.publish(), 1);
        assert_eq!(pool.state.worker_step(0, &mut last[0]), WorkerStep::Ran);
        // a second step in the same epoch neither reruns the body nor
        // decrements `remaining` again: the region stays open for rank 1
        assert!(!pool.state.has_work(last[0]));
        assert_eq!(pool.state.worker_step(0, &mut last[0]), WorkerStep::Idle);
        assert_eq!((last[0], runs.load(Ordering::Relaxed)), (1, 1));
        assert!(!pool.is_closed(), "an idle step closed the region");
        assert_eq!(pool.state.worker_step(1, &mut last[1]), WorkerStep::Ran);
        assert!(pool.is_closed());

        pool.state.shut_down();
        assert!(pool.state.has_work(last[0]), "shutdown must end a worker's wait");
        assert_eq!(pool.state.worker_step(0, &mut last[0]), WorkerStep::Shutdown);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn close_reads_the_panic_count_of_exactly_the_region_it_published() {
        // ranks 0 and 2 panic in region 1, nobody in region 2, rank 1
        // in region 3 (resume_unwind: a panic without the hook's noise)
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
                assert_eq!(pool.state.worker_step(rank, &mut last[rank]), WorkerStep::Ran);
            }
            assert!(pool.is_closed());
            observed.push(pool.close());
        }
        assert_eq!(observed, vec![2, 0, 1]);
    }

    #[test]
    fn sync_stats_accumulate_monotonically() {
        let mut pool = WorkerPool::new(2);
        let before = pool.sync_stats();
        for _ in 0..10 {
            pool.run(|_| {});
        }
        let after = pool.sync_stats();
        assert!(after.parks >= before.parks);
        assert!(after.spins >= before.spins);
    }
}
