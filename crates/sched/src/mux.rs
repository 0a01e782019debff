//! Pool multiplexing: many independent jobs over a fixed set of
//! persistent [`WorkerPool`]s.
//!
//! A classic `easypap` run owns the process: one CLI invocation, one
//! region family, one pool, exit. A service ([`ezp-serve`]) must run
//! *many* independent jobs concurrently without spawning threads per
//! job. [`PoolMux`] is the composition layer that makes the worker pool
//! shared: it pre-spawns `slots` pools of `workers` ranks each and
//! leases them out one job at a time. A pool's rank 0 is whichever
//! thread runs its region, so a pool spawns `workers − 1` threads, and
//! the runner (or connection reader) that leased it computes rank 0 of
//! its job. Each leased pool still runs its regions through the
//! untouched seqlock epoch protocol — jobs in different slots proceed
//! fully concurrently, and a returned lease leaves the pool parked and
//! reusable, so the thread-spawn cost is paid once at service start
//! instead of per job.
//!
//! [`ezp-serve`]: ../../ezp_serve/index.html
//!
//! ## Routing kernels onto a leased pool
//!
//! Kernels do not take a pool parameter — historically each `compute`
//! call built its own `WorkerPool::new(ctx.threads())`. [`acquire_pool`]
//! replaces that idiom: it checks this thread's installed shared pool
//! first (see [`PoolLease::install`]) and only falls back to spawning a
//! fresh pool when none is installed. Standalone CLI runs therefore
//! behave exactly as before, while a serve runner thread that installed
//! its lease gets every kernel in the job onto the shared workers, with
//! the pool's logical [width](WorkerPool::set_width) narrowed to the
//! job's requested thread count.
//!
//! The install/acquire hand-off moves the pool *by value* through a
//! thread-local slot, so there is no aliasing and no unsafe code: at any
//! instant the pool is owned by exactly one of {the mux, a lease, the
//! thread-local slot, an acquired handle}. A nested `acquire_pool` while
//! one handle is outstanding simply falls back to a fresh pool.

use crate::pool::WorkerPool;
use ezp_core::time::now_ns;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

thread_local! {
    /// The shared pool installed on this thread, if a lease routed one
    /// here. Checked out (moved) by [`acquire_pool`], returned on
    /// handle drop.
    static INSTALLED: RefCell<Option<WorkerPool>> = const { RefCell::new(None) };
}

/// Cumulative lease traffic of a [`PoolMux`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Leases granted so far.
    pub leases: u64,
    /// Lease requests that had to block because every slot was busy.
    pub lease_waits: u64,
    /// Wall time spent blocked waiting for a free slot, in nanoseconds.
    pub wait_ns: u64,
}

/// A fixed set of persistent [`WorkerPool`]s leased out job by job.
pub struct PoolMux {
    /// Free pools. A `Mutex` is fine here: lease/return is per *job*,
    /// not per region — the region hot path stays inside the leased
    /// pool's lock-free epoch protocol.
    free: Mutex<Vec<WorkerPool>>,
    /// Wakes blocked `lease` callers when a pool is returned.
    returned: Condvar,
    slots: usize,
    workers: usize,
    // counter-only statistics: the tallies are the entire payload and
    // the stats snapshot tolerates mid-update skew.
    stat_leases: AtomicU64,
    stat_waits: AtomicU64,
    stat_wait_ns: AtomicU64,
}

impl PoolMux {
    /// Spawns `slots` pools of `workers` ranks each (both clamped to
    /// at least 1). Total worker threads = `slots × (workers − 1)`, all
    /// parked until leased: the thread that runs a leased pool's region
    /// is its rank 0.
    pub fn new(slots: usize, workers: usize) -> Self {
        let slots = slots.max(1);
        let workers = workers.max(1);
        PoolMux {
            free: Mutex::new((0..slots).map(|_| WorkerPool::new(workers)).collect()),
            returned: Condvar::new(),
            slots,
            workers,
            stat_leases: AtomicU64::new(0),
            stat_waits: AtomicU64::new(0),
            stat_wait_ns: AtomicU64::new(0),
        }
    }

    /// Number of slots (maximum concurrent leases).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Grants a lease immediately if a slot is free. Discarding the
    /// result hands the slot straight back, so both spellings are
    /// compile errors under the workspace lint table:
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// let mux = ezp_sched::PoolMux::new(1, 1);
    /// mux.try_lease();
    /// ```
    ///
    /// ```compile_fail
    /// #![deny(let_underscore_drop)]
    /// let mux = ezp_sched::PoolMux::new(1, 1);
    /// let _ = mux.try_lease();
    /// ```
    #[must_use = "dropping the lease returns the slot at once; bind it for the job's lifetime"]
    pub fn try_lease(&self) -> Option<PoolLease<'_>> {
        let pool = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop()?;
        // ORDERING: Relaxed — counter-only statistic, synchronizes with
        // nothing; the free list itself is guarded by the mutex.
        self.stat_leases.fetch_add(1, Ordering::Relaxed);
        Some(PoolLease {
            mux: self,
            pool: Some(pool),
        })
    }

    /// Grants a lease, blocking until a slot frees up. A discarded
    /// lease is a compile error in both spellings:
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// let mux = ezp_sched::PoolMux::new(1, 1);
    /// mux.lease();
    /// ```
    ///
    /// ```compile_fail
    /// #![deny(let_underscore_drop)]
    /// let mux = ezp_sched::PoolMux::new(1, 1);
    /// let _ = mux.lease();
    /// ```
    #[must_use = "an unbound lease blocks for a slot and hands it straight back"]
    pub fn lease(&self) -> PoolLease<'_> {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.is_empty() {
            // ORDERING: Relaxed (here and below) — counter-only wait
            // statistics; all synchronization is the mutex + condvar.
            self.stat_waits.fetch_add(1, Ordering::Relaxed);
            let t0 = now_ns();
            while free.is_empty() {
                free = self.returned.wait(free).unwrap_or_else(|e| e.into_inner());
            }
            self.stat_wait_ns
                .fetch_add(now_ns().saturating_sub(t0), Ordering::Relaxed);
        }
        let pool = free.pop().expect("non-empty free list");
        drop(free);
        // ORDERING: Relaxed — counter-only statistic.
        self.stat_leases.fetch_add(1, Ordering::Relaxed);
        PoolLease {
            mux: self,
            pool: Some(pool),
        }
    }

    /// Snapshot of the lease counters.
    pub fn stats(&self) -> MuxStats {
        // ORDERING: Relaxed — counter-only reads of independent
        // statistics; slight skew between them is acceptable.
        MuxStats {
            leases: self.stat_leases.load(Ordering::Relaxed),
            lease_waits: self.stat_waits.load(Ordering::Relaxed),
            wait_ns: self.stat_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Hands `pool` back to the free list (width restored), waking one
    /// blocked `lease` caller.
    fn give_back(&self, mut pool: WorkerPool) {
        pool.set_width(pool.threads());
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        free.push(pool);
        drop(free);
        self.returned.notify_one();
    }
}

/// An exclusive lease on one of a [`PoolMux`]'s pools. Dereferences to
/// the [`WorkerPool`]; returning it (and waking a waiter) happens on
/// drop. If the leased pool was lost to a leak inside
/// [`PoolLease::install`], drop replaces it with a fresh pool so the
/// mux never shrinks — a slot is an epoch-protocol resource the service
/// must not leak.
#[must_use = "dropping the lease returns the slot at once; bind it for the job's lifetime"]
pub struct PoolLease<'m> {
    mux: &'m PoolMux,
    pool: Option<WorkerPool>,
}

impl PoolLease<'_> {
    /// Installs the leased pool on this thread for the duration of `f`,
    /// narrowed to `width` working ranks, so every
    /// [`acquire_pool`] inside `f` — kernels building their "own" pool —
    /// lands on the shared workers. The pool is recovered even if `f`
    /// panics (the acquired handle returns it to the thread-local slot
    /// during unwind, and the restore guard moves it back here).
    pub fn install<R>(&mut self, width: usize, f: impl FnOnce() -> R) -> R {
        let mut pool = self.pool.take().expect("lease already consumed");
        pool.set_width(width);
        INSTALLED.with(|slot| *slot.borrow_mut() = Some(pool));
        // Restore on drop so a panicking `f` cannot strand the pool in
        // the thread-local slot.
        struct Restore<'a, 'm>(&'a mut PoolLease<'m>);
        impl Drop for Restore<'_, '_> {
            fn drop(&mut self) {
                self.0.pool = INSTALLED.with(|slot| slot.borrow_mut().take());
            }
        }
        let restore = Restore(self);
        let r = f();
        drop(restore);
        r
    }
}

impl Deref for PoolLease<'_> {
    type Target = WorkerPool;
    fn deref(&self) -> &WorkerPool {
        self.pool.as_ref().expect("lease pool checked out")
    }
}

impl DerefMut for PoolLease<'_> {
    fn deref_mut(&mut self) -> &mut WorkerPool {
        self.pool.as_mut().expect("lease pool checked out")
    }
}

impl Drop for PoolLease<'_> {
    fn drop(&mut self) {
        let pool = self
            .pool
            .take()
            .unwrap_or_else(|| WorkerPool::new(self.mux.workers));
        self.mux.give_back(pool);
    }
}

/// A worker pool for `n` threads: the installed shared pool when this
/// thread is running under a [`PoolLease::install`] scope (narrowed to
/// `min(n, threads)` ranks), otherwise a freshly spawned pool owned by
/// the handle. Kernels use this instead of `WorkerPool::new` so the
/// same code serves both the one-shot CLI and the daemon. A discarded
/// handle spawns (or checks out) a pool and gives it up on the spot,
/// which is a compile error in both spellings:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// ezp_sched::acquire_pool(2);
/// ```
///
/// ```compile_fail
/// #![deny(let_underscore_drop)]
/// let _ = ezp_sched::acquire_pool(2);
/// ```
#[must_use = "an unbound handle takes a pool and gives it up before any region runs"]
pub fn acquire_pool(n: usize) -> PoolHandle {
    let installed = INSTALLED.with(|slot| slot.borrow_mut().take());
    match installed {
        Some(mut pool) => {
            pool.set_width(n);
            PoolHandle {
                pool: Some(pool),
                shared: true,
            }
        }
        None => PoolHandle {
            pool: Some(WorkerPool::new(n.max(1))),
            shared: false,
        },
    }
}

/// RAII handle from [`acquire_pool`]: dereferences to the
/// [`WorkerPool`]; on drop a shared pool goes back to the thread-local
/// slot (for the next `acquire_pool` in the same job), an owned pool
/// joins its threads.
#[must_use = "dropping the handle releases the pool at once; bind it while regions run"]
pub struct PoolHandle {
    pool: Option<WorkerPool>,
    shared: bool,
}

impl PoolHandle {
    /// True when this handle borrowed the thread's installed shared
    /// pool rather than spawning its own.
    pub fn is_shared(&self) -> bool {
        self.shared
    }
}

impl Deref for PoolHandle {
    type Target = WorkerPool;
    fn deref(&self) -> &WorkerPool {
        self.pool.as_ref().expect("handle pool present until drop")
    }
}

impl DerefMut for PoolHandle {
    fn deref_mut(&mut self) -> &mut WorkerPool {
        self.pool.as_mut().expect("handle pool present until drop")
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        if self.shared {
            if let Some(pool) = self.pool.take() {
                INSTALLED.with(|slot| *slot.borrow_mut() = Some(pool));
            }
        }
        // owned pools just drop: WorkerPool::drop joins the threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    use std::sync::Arc;

    #[test]
    fn lease_and_return_cycle() {
        let mux = PoolMux::new(2, 2);
        {
            let a = mux.try_lease().expect("slot free");
            let _b = mux.try_lease().expect("second slot free");
            assert!(mux.try_lease().is_none(), "only two slots");
            assert_eq!(a.threads(), 2);
        }
        // both returned
        assert!(mux.try_lease().is_some());
        let s = mux.stats();
        assert_eq!(s.leases, 3);
    }

    #[test]
    fn blocking_lease_waits_for_return() {
        let mux = Arc::new(PoolMux::new(1, 1));
        let first = mux.lease();
        let mux2 = Arc::clone(&mux);
        let waiter = std::thread::spawn(move || {
            let lease = mux2.lease(); // blocks until `first` drops
            lease.threads()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(first);
        assert_eq!(waiter.join().unwrap(), 1);
        assert!(mux.stats().leases >= 2);
    }

    #[test]
    fn leased_pools_run_regions_concurrently() {
        let mux = Arc::new(PoolMux::new(2, 2));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let mux = Arc::clone(&mux);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    let mut lease = mux.lease();
                    for _ in 0..20 {
                        lease.run(|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 2 * 20 * 2);
    }

    #[test]
    fn acquire_without_install_spawns_owned_pool() {
        let mut pool = acquire_pool(3);
        assert!(!pool.is_shared());
        assert_eq!(pool.threads(), 3);
        let count = AtomicU64::new(0);
        pool.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn install_routes_acquire_to_the_shared_pool() {
        let mux = PoolMux::new(1, 4);
        let mut lease = mux.lease();
        let ran = lease.install(2, || {
            let mut pool = acquire_pool(2);
            assert!(pool.is_shared());
            assert_eq!(pool.threads(), 4, "shared pool keeps its size");
            assert_eq!(pool.width(), 2, "narrowed to the job's request");
            let count = AtomicUsize::new(0);
            pool.run(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            drop(pool);
            // sequential re-acquire inside the same job works
            let pool2 = acquire_pool(4);
            assert!(pool2.is_shared());
            count.load(Ordering::Relaxed)
        });
        assert_eq!(ran, 2, "only width ranks execute");
        // after install the lease holds the pool again, width restored
        // on return to the mux
        drop(lease);
        let lease2 = mux.lease();
        assert_eq!(lease2.width(), 4);
    }

    #[test]
    fn nested_acquire_falls_back_to_owned() {
        let mux = PoolMux::new(1, 2);
        let mut lease = mux.lease();
        lease.install(2, || {
            let outer = acquire_pool(2);
            assert!(outer.is_shared());
            let inner = acquire_pool(2);
            assert!(!inner.is_shared(), "slot is checked out: fresh pool");
            drop(inner);
            drop(outer);
        });
    }

    #[test]
    fn panic_inside_install_does_not_lose_the_pool() {
        let mux = PoolMux::new(1, 2);
        {
            let mut lease = mux.lease();
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lease.install(2, || {
                    let mut pool = acquire_pool(2);
                    pool.run(|rank| {
                        if rank == 0 {
                            panic!("job blew up");
                        }
                    });
                });
            }));
            assert!(res.is_err());
        }
        // the slot came back and still works
        let mut lease = mux.lease();
        let count = AtomicU64::new(0);
        lease.install(2, || {
            let mut pool = acquire_pool(2);
            pool.run(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
