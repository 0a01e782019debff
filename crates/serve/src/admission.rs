//! Admission control: bounded per-tenant queues with round-robin
//! drain.
//!
//! Each tenant slot owns one bounded `ezp-chan` lane, created eagerly
//! at daemon start so admission never allocates channel state under
//! load. Nothing ever waits on a lane: drain is `try_recv` (an empty
//! scan parks on this module's own `ParkLot`) and submit
//! is `try_send`: a full lane is an immediate [`Reject`] with a
//! retry-after hint — backpressure lives at the edge, not in unbounded
//! buffering. Runner threads drain the lanes with a shared round-robin
//! cursor, so a tenant flooding its own queue cannot starve the others:
//! each scan visits every tenant once before revisiting any.

use crate::metrics::ServeMetrics;
use crate::proto::{JobSpec, Response};
use ezp_chan::backend::{bounded, ChanReceiver, ChanSender};
use ezp_chan::TrySendError;
use ezp_core::park::ParkLot;
use ezp_core::time::now_ns;
use ezp_core::ChanTuning;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The tenant name used when a job arrives without one.
pub const DEFAULT_TENANT: &str = "default";

/// An admitted job as it travels through a lane to a runner.
pub struct Job {
    /// Daemon-wide job id (assigned at admission).
    pub id: u64,
    /// Tenant counter slot.
    pub tenant_slot: usize,
    /// Resolved tenant name.
    pub tenant: String,
    /// What to run.
    pub spec: JobSpec,
    /// Admission timestamp, for queue-wait (`tenant_idle_ns`)
    /// attribution.
    pub enqueued_ns: u64,
    /// Job-completion callback state owned by the connection; runners
    /// check [`JobTicket::is_live`] before spending pool time.
    pub ticket: Arc<JobTicket>,
    /// Where the terminal `Done`/`Failed` response goes.
    pub reply: Arc<dyn ReplySink>,
}

/// Where a job's responses are delivered — the submitting connection in
/// the daemon, a capture buffer in tests.
pub trait ReplySink: Send + Sync {
    /// Deliver one response frame toward the client. Best effort: a
    /// dead peer is signalled through the job's [`JobTicket`], not an
    /// error here.
    fn send(&self, resp: &Response);
}

/// Discards every response (fire-and-forget jobs, tests).
pub struct NullSink;

impl ReplySink for NullSink {
    fn send(&self, _resp: &Response) {}
}

/// Shared cancellation state between a connection and the runner
/// executing its job: when the client disconnects, the reader flips
/// `live` and the runner drops the job instead of computing for nobody.
/// Deliberately not RAII: both sides hold an `Arc`, and "release" is
/// the runner *observing* `live == false`, not a scope ending — so no
/// `Drop` impl, and call sites may clone it freely.
#[derive(Default)]
// ezp-lint: allow(guard-leak)
pub struct JobTicket {
    live: AtomicBool,
}

impl JobTicket {
    /// A live ticket.
    pub fn new() -> Arc<JobTicket> {
        Arc::new(JobTicket { live: AtomicBool::new(true) })
    }

    /// Still worth running?
    pub fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire)
    }

    /// The client went away; any queued or running job may stop.
    pub fn cancel(&self) {
        self.live.store(false, Ordering::Release);
    }
}

/// Why a submit was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Human-readable reason.
    pub reason: String,
    /// Suggested resubmit delay.
    pub retry_after_ms: u64,
}

struct Lane {
    tx: Box<dyn ChanSender<Job>>,
    rx: Box<dyn ChanReceiver<Job>>,
    /// Current queue depth. counter-only telemetry: admission is
    /// bounded by the channel itself, so a stale depth misleads no one.
    depth: AtomicU64,
}

/// Bounded per-tenant admission queues plus the wake-up plumbing for
/// runner threads.
pub struct Admission {
    lanes: Vec<Lane>,
    metrics: Arc<ServeMetrics>,
    /// Bumped on every admit; runners park on this when every lane is
    /// empty.
    admit_seq: AtomicU64,
    /// Set once at shutdown; parked runners re-check it on wake.
    closed: AtomicBool,
    /// Serializes `submit`'s closed-check + enqueue against `close`'s
    /// closed-store: once `close` holds this lock, no job can slip into
    /// a lane after runners' final post-close drain, so every admitted
    /// job reaches a terminal state.
    gate: Mutex<()>,
    park: ParkLot,
    /// counter-only: the monotone id is the entire payload; uniqueness
    /// comes from the fetch_add's atomicity alone.
    next_job_id: AtomicU64,
    queue_cap: usize,
}

impl Admission {
    /// Builds one bounded lane per tenant slot (capacity `queue_cap`
    /// each).
    pub fn new(tuning: ChanTuning, metrics: Arc<ServeMetrics>, queue_cap: usize) -> Self {
        let queue_cap = queue_cap.max(1);
        let lanes = (0..metrics.max_tenants())
            .map(|_| {
                let (mut txs, rx) = bounded::<Job>(tuning, 1, queue_cap);
                Lane {
                    tx: txs.pop().expect("one producer endpoint"),
                    rx,
                    depth: AtomicU64::new(0),
                }
            })
            .collect();
        Admission {
            lanes,
            metrics,
            admit_seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            gate: Mutex::new(()),
            park: ParkLot::new(),
            next_job_id: AtomicU64::new(1),
            queue_cap,
        }
    }

    /// Per-tenant queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Admits `spec` for `ticket`'s connection, or rejects it with a
    /// retry hint. On success the assigned `(job_id, tenant, slot)` is
    /// returned and one runner is woken.
    pub fn submit(
        &self,
        spec: JobSpec,
        ticket: Arc<JobTicket>,
        reply: Arc<dyn ReplySink>,
    ) -> Result<(u64, String, usize), Reject> {
        let tenant = spec
            .tenant
            .clone()
            .filter(|t| !t.is_empty())
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let Some(slot) = self.metrics.tenant_slot(&tenant) else {
            return Err(Reject {
                reason: format!(
                    "tenant table full ({} tenants max)",
                    self.metrics.max_tenants()
                ),
                retry_after_ms: 1000,
            });
        };
        if let Err(why) = spec.validate() {
            self.metrics.rejected(slot);
            // retry_after_ms 0 = permanent: resubmitting the same spec
            // can never succeed
            return Err(Reject { reason: why, retry_after_ms: 0 });
        }
        let id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            id,
            tenant_slot: slot,
            tenant: tenant.clone(),
            spec,
            enqueued_ns: now_ns(),
            ticket,
            reply,
        };
        // the gate orders this check + enqueue against `close`: a close
        // cannot land between them, so an Ok send always happens-before
        // `closed` turns true (and is therefore seen by the runners'
        // final drain)
        let gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if self.closed.load(Ordering::SeqCst) {
            return Err(Reject {
                reason: "server is shutting down".to_string(),
                retry_after_ms: 0,
            });
        }
        // Count the job before it becomes visible: a runner may take it,
        // and decrement the depth, before this thread runs again.
        let lane = &self.lanes[slot];
        let depth = lane.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match lane.tx.try_send(job) {
            Ok(()) => {
                self.admit_seq.fetch_add(1, Ordering::SeqCst);
                drop(gate);
                self.metrics.admitted(slot, depth);
                self.park.notify();
                Ok((id, tenant, slot))
            }
            Err(TrySendError::Full(_)) => {
                lane.depth.fetch_sub(1, Ordering::Relaxed);
                self.metrics.rejected(slot);
                Err(Reject {
                    reason: format!(
                        "tenant `{tenant}` queue full ({} jobs)",
                        self.queue_cap
                    ),
                    retry_after_ms: 25,
                })
            }
            Err(TrySendError::Closed(_)) => {
                lane.depth.fetch_sub(1, Ordering::Relaxed);
                self.metrics.rejected(slot);
                Err(Reject {
                    reason: "server is shutting down".to_string(),
                    retry_after_ms: 0,
                })
            }
        }
    }

    /// One round-robin scan over every lane starting after `cursor`'s
    /// last position. Fairness: the shared cursor advances by one per
    /// *successful* take, so consecutive takes start their scans at
    /// consecutive tenants and a busy tenant cannot shadow later slots.
    fn scan(&self, cursor: &AtomicUsize) -> Option<Job> {
        let n = self.lanes.len();
        let start = cursor.load(Ordering::Relaxed);
        for i in 0..n {
            let slot = (start + i) % n;
            if let Ok(job) = self.lanes[slot].rx.try_recv() {
                self.lanes[slot].depth.fetch_sub(1, Ordering::Relaxed);
                cursor.store((slot + 1) % n, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Takes the next job in round-robin tenant order, parking until
    /// one is admitted. `None` means the admission is closed *and*
    /// drained — the runner should exit.
    pub fn next_job(&self, cursor: &AtomicUsize) -> Option<Job> {
        loop {
            // sample the wake sequence BEFORE scanning: an admit that
            // races the scan bumps admit_seq past `seen`, so wait_until
            // falls through instead of parking over the queued job
            let seen = self.admit_seq.load(Ordering::SeqCst);
            if let Some(job) = self.scan(cursor) {
                return Some(job);
            }
            if self.closed.load(Ordering::SeqCst) {
                // final drain AFTER observing `closed`: the gate orders
                // every admitted enqueue before the closed-store, so
                // this rescan sees any job that raced the close
                return self.scan(cursor);
            }
            self.park.wait_until(|| {
                self.admit_seq.load(Ordering::SeqCst) != seen
                    || self.closed.load(Ordering::SeqCst)
            });
        }
    }

    /// Closes admission: future submits are rejected, parked runners
    /// wake, and `next_job` returns `None` once the lanes are drained.
    pub fn close(&self) {
        let gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.closed.store(true, Ordering::SeqCst);
        drop(gate);
        self.park.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adm(max_tenants: usize, cap: usize) -> Admission {
        Admission::new(
            ChanTuning::default(),
            Arc::new(ServeMetrics::new(max_tenants)),
            cap,
        )
    }

    fn spec(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: Some(tenant.to_string()),
            ..JobSpec::default()
        }
    }

    #[test]
    fn full_lane_rejects_with_retry_hint() {
        let a = adm(2, 2);
        let t = JobTicket::new();
        for _ in 0..2 {
            a.submit(spec("x"), Arc::clone(&t), Arc::new(NullSink)).unwrap();
        }
        let rej = a.submit(spec("x"), Arc::clone(&t), Arc::new(NullSink)).unwrap_err();
        assert!(rej.reason.contains("queue full"), "{}", rej.reason);
        assert!(rej.retry_after_ms > 0);
        // another tenant still gets in
        a.submit(spec("y"), t, Arc::new(NullSink)).unwrap();
        let (admitted, rejected, ..) = a.metrics.totals();
        assert_eq!((admitted, rejected), (3, 1));
    }

    #[test]
    fn over_quota_tenants_are_rejected() {
        let a = adm(1, 4);
        let t = JobTicket::new();
        a.submit(spec("only"), Arc::clone(&t), Arc::new(NullSink)).unwrap();
        let rej = a.submit(spec("other"), t, Arc::new(NullSink)).unwrap_err();
        assert!(rej.reason.contains("tenant table full"), "{}", rej.reason);
    }

    #[test]
    fn drain_is_round_robin_across_tenants() {
        let a = adm(4, 8);
        let t = JobTicket::new();
        // tenant a floods 4 jobs, b and c one each
        for _ in 0..4 {
            a.submit(spec("a"), Arc::clone(&t), Arc::new(NullSink)).unwrap();
        }
        a.submit(spec("b"), Arc::clone(&t), Arc::new(NullSink)).unwrap();
        a.submit(spec("c"), Arc::clone(&t), Arc::new(NullSink)).unwrap();
        let cursor = AtomicUsize::new(0);
        let order: Vec<String> = (0..6)
            .map(|_| a.next_job(&cursor).unwrap().tenant)
            .collect();
        // first three takes visit three distinct tenants — the flood
        // does not starve b or c
        assert_eq!(order[..3], ["a", "b", "c"], "got {order:?}");
        assert_eq!(order[3..], ["a", "a", "a"]);
    }

    #[test]
    fn close_wakes_parked_consumers_and_drains() {
        let a = Arc::new(adm(2, 4));
        let t = JobTicket::new();
        a.submit(spec("x"), t, Arc::new(NullSink)).unwrap();
        let a2 = Arc::clone(&a);
        let consumer = std::thread::spawn(move || {
            let cursor = AtomicUsize::new(0);
            let mut got = 0;
            while a2.next_job(&cursor).is_some() {
                got += 1;
            }
            got
        });
        // let the consumer drain and park
        std::thread::sleep(std::time::Duration::from_millis(30));
        a.close();
        assert_eq!(consumer.join().unwrap(), 1);
        // submits after close are rejected
        let rej = a.submit(spec("x"), JobTicket::new(), Arc::new(NullSink)).unwrap_err();
        assert!(rej.reason.contains("shutting down"));
    }

    #[test]
    fn ping_pong_submits_are_never_lost_to_a_parking_race() {
        // regression: `seen` sampled after the empty scan let an admit
        // land in the scan→load window, so the predicate was already
        // "satisfied" and the runner parked over a queued job. The
        // ping-pong maximizes park/submit interleavings; a lost wakeup
        // hangs the spin below (the consumer never drains job k).
        let a = Arc::new(adm(1, 4));
        let a2 = Arc::clone(&a);
        let consumer = std::thread::spawn(move || {
            let cursor = AtomicUsize::new(0);
            let mut got = 0;
            while a2.next_job(&cursor).is_some() {
                got += 1;
            }
            got
        });
        let t = JobTicket::new();
        for _ in 0..200 {
            a.submit(spec("x"), Arc::clone(&t), Arc::new(NullSink)).unwrap();
            while a.lanes.iter().any(|l| l.depth.load(Ordering::Relaxed) > 0) {
                std::thread::yield_now();
            }
        }
        a.close();
        assert_eq!(consumer.join().unwrap(), 200);
    }

    #[test]
    fn a_submit_racing_close_cannot_strand_an_admitted_job() {
        // regression: `closed` was checked before try_send without any
        // ordering against close(), so a job could be enqueued after
        // the runners' final drain — admitted but never terminal. The
        // gate now orders every Ok enqueue before the closed-store, so
        // the post-close drain must account for every admitted job.
        for _ in 0..50 {
            let a = Arc::new(adm(1, 64));
            let a2 = Arc::clone(&a);
            let producer = std::thread::spawn(move || {
                let mut ok = 0u32;
                for _ in 0..64 {
                    match a2.submit(spec("x"), JobTicket::new(), Arc::new(NullSink)) {
                        Ok(_) => ok += 1,
                        Err(_) => break,
                    }
                }
                ok
            });
            a.close();
            let admitted = producer.join().unwrap();
            let cursor = AtomicUsize::new(0);
            let mut drained = 0;
            while a.next_job(&cursor).is_some() {
                drained += 1;
            }
            assert_eq!(drained, admitted, "admitted jobs lost at shutdown");
        }
    }

    #[test]
    fn oversized_specs_are_rejected_permanently() {
        let a = adm(2, 4);
        let mut big = spec("x");
        big.size = 100_000;
        let rej = a
            .submit(big, JobTicket::new(), Arc::new(NullSink))
            .unwrap_err();
        assert!(rej.reason.contains("size"), "{}", rej.reason);
        assert_eq!(rej.retry_after_ms, 0, "permanent rejection");
        let (admitted, rejected, ..) = a.metrics.totals();
        assert_eq!((admitted, rejected), (0, 1));
    }

    #[test]
    fn queue_wait_feeds_idle_attribution() {
        let a = adm(2, 4);
        let t = JobTicket::new();
        a.submit(spec("x"), t, Arc::new(NullSink)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let cursor = AtomicUsize::new(0);
        let job = a.next_job(&cursor).unwrap();
        let waited = now_ns().saturating_sub(job.enqueued_ns);
        assert!(waited >= 4_000_000, "only waited {waited} ns");
        a.metrics.completed(job.tenant_slot, waited);
        let snap = a.metrics.snapshot();
        assert!(snap.total(ezp_perf::names::TENANT_IDLE_NS) >= 4_000_000);
    }
}
