//! Admission control: bounded per-tenant queues with round-robin
//! drain.
//!
//! All queue state — one `VecDeque` per tenant slot, the `closed` flag
//! and the number of idle runners — lives under a single mutex. Submit
//! is lock → closed? → full? → push → unlock: a full queue is an
//! immediate [`Reject`] with a retry-after hint — backpressure lives at
//! the edge, not in unbounded buffering. Runner threads drain the
//! queues with a shared round-robin cursor, so a tenant flooding its
//! own queue cannot starve the others: each scan visits every tenant
//! once before revisiting any. A runner whose scan came up empty waits
//! on a condvar under the same mutex, and a push notifies only when
//! some runner is waiting.
//!
//! `Admission::admit` may hand an admitted job back to the submitter
//! to run on its own thread instead of queueing it, but only when every
//! lane is empty: the job then overtakes no queued one, so the
//! round-robin order above is all the fairness there is.

use crate::metrics::ServeMetrics;
use crate::proto::{JobSpec, Response};
use ezp_core::time::now_ns;
use ezp_core::ChanTuning;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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
    /// error here. Takes the response by value so its report moves into
    /// the frame.
    fn send(&self, resp: Response);
}

/// Discards every response (fire-and-forget jobs, tests).
pub struct NullSink;

impl ReplySink for NullSink {
    fn send(&self, _resp: Response) {}
}

/// Shared cancellation state between a connection and the runner
/// executing its job: when the client disconnects, the reader flips
/// `live` and the runner drops the job instead of computing for nobody.
/// Deliberately not RAII: both sides hold an `Arc`, and "release" is
/// the runner *observing* `live == false`, not a scope ending — so no
/// `Drop` impl, and call sites may clone it freely.
#[derive(Default)]
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

/// Everything `submit`, `next_job` and `close` agree on.
struct Queues {
    /// One FIFO per tenant slot, each at most `queue_cap` deep.
    lanes: Vec<VecDeque<Job>>,
    /// Set once at shutdown: no push follows it, so a runner that finds
    /// every lane empty and `closed` set has seen the last job.
    closed: bool,
    /// Runners waiting on `job_ready`: a push with none skips the
    /// notify, which is a syscall even when nobody waits.
    idle_runners: usize,
}

/// What [`Admission::admit`] did with a job it admitted: queued it for a
/// runner as `(job_id, tenant, slot)`, or handed it back to the caller
/// to run, with what the `inline` callback granted.
pub(crate) enum Admitted<L> {
    Queued(u64, String, usize),
    Inline(Job, L),
}

/// Bounded per-tenant admission queues plus the wake-up plumbing for
/// runner threads.
pub struct Admission {
    queues: Mutex<Queues>,
    /// Signalled by a push that found a runner idle, and by `close`.
    job_ready: Condvar,
    metrics: Arc<ServeMetrics>,
    /// counter-only: the monotone id is the entire payload; uniqueness
    /// comes from the fetch_add's atomicity alone.
    next_job_id: AtomicU64,
    queue_cap: usize,
}

impl Admission {
    /// Builds one queue per tenant slot (capacity `queue_cap` each).
    /// `_tuning` is ignored: it is benchmark-only vocabulary from when
    /// the queues were `ezp-chan` lanes, kept so `benchmark/` compiles.
    pub fn new(_tuning: ChanTuning, metrics: Arc<ServeMetrics>, queue_cap: usize) -> Self {
        let queue_cap = queue_cap.max(1);
        let lanes = (0..metrics.max_tenants()).map(|_| VecDeque::new()).collect();
        Admission {
            queues: Mutex::new(Queues { lanes, closed: false, idle_runners: 0 }),
            job_ready: Condvar::new(),
            metrics,
            next_job_id: AtomicU64::new(1),
            queue_cap,
        }
    }

    /// Per-tenant queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// The critical sections only move jobs between containers, so a
    /// poisoned lock still guards consistent queues.
    fn queues(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits `spec` for `ticket`'s connection and queues it, or rejects
    /// it with a retry hint. On success the assigned `(job_id, tenant,
    /// slot)` is returned and an idle runner, if any, is woken.
    pub fn submit(
        &self,
        spec: JobSpec,
        ticket: Arc<JobTicket>,
        reply: Arc<dyn ReplySink>,
    ) -> Result<(u64, String, usize), Reject> {
        match self.admit(spec, ticket, reply, |_| None::<Infallible>)? {
            Admitted::Queued(id, tenant, slot) => Ok((id, tenant, slot)),
            Admitted::Inline(_, never) => match never {},
        }
    }

    /// [`Admission::submit`], except that when every lane is empty,
    /// `inline` decides — inside the critical section that would push —
    /// whether the caller runs the job itself: what it grants comes back
    /// with the job, and no runner hears of it. Rejections and the
    /// `jobs_admitted` count are the same on both paths.
    pub(crate) fn admit<L>(
        &self,
        spec: JobSpec,
        ticket: Arc<JobTicket>,
        reply: Arc<dyn ReplySink>,
        inline: impl FnOnce(&JobSpec) -> Option<L>,
    ) -> Result<Admitted<L>, Reject> {
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
        let mut q = self.queues();
        let (reason, retry_after_ms) = if q.closed {
            ("server is shutting down".to_string(), 0)
        } else if q.lanes[slot].len() >= self.queue_cap {
            (format!("tenant `{tenant}` queue full ({} jobs)", self.queue_cap), 25)
        } else {
            let all_empty = q.lanes.iter().all(VecDeque::is_empty);
            let (admitted, wake) = match all_empty.then(|| inline(&job.spec)).flatten() {
                Some(grant) => (Admitted::Inline(job, grant), false),
                None => {
                    q.lanes[slot].push_back(job);
                    (Admitted::Queued(id, tenant, slot), q.idle_runners > 0)
                }
            };
            let depth = q.lanes[slot].len() as u64;
            drop(q);
            if wake {
                self.job_ready.notify_one();
            }
            self.metrics.admitted(slot, depth);
            return Ok(admitted);
        };
        drop(q);
        self.metrics.rejected(slot);
        Err(Reject { reason, retry_after_ms })
    }

    /// Takes the next job in round-robin tenant order, waiting until
    /// one is admitted. `None` means the admission is closed *and*
    /// drained — the runner should exit. Fairness: the shared cursor
    /// advances by one per *successful* take, so consecutive takes
    /// start their scans at consecutive tenants and a busy tenant
    /// cannot shadow later slots.
    pub fn next_job(&self, cursor: &AtomicUsize) -> Option<Job> {
        let mut q = self.queues();
        loop {
            let n = q.lanes.len();
            let start = cursor.load(Ordering::Relaxed);
            for i in 0..n {
                let slot = (start + i) % n;
                if let Some(job) = q.lanes[slot].pop_front() {
                    cursor.store((slot + 1) % n, Ordering::Relaxed);
                    return Some(job);
                }
            }
            if q.closed {
                return None;
            }
            q.idle_runners += 1;
            q = self.job_ready.wait(q).unwrap_or_else(|e| e.into_inner());
            q.idle_runners -= 1;
        }
    }

    /// Closes admission: future submits are rejected, waiting runners
    /// wake, and `next_job` returns `None` once the lanes are drained.
    pub fn close(&self) {
        self.queues().closed = true;
        self.job_ready.notify_all();
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
    fn submit_after_close_is_rejected_and_counted() {
        let a = adm(2, 4);
        a.close();
        let rej = a.submit(spec("x"), JobTicket::new(), Arc::new(NullSink)).unwrap_err();
        assert!(rej.reason.contains("shutting down"), "{}", rej.reason);
        assert_eq!(rej.retry_after_ms, 0, "permanent rejection");
        let (admitted, rejected, ..) = a.metrics.totals();
        assert_eq!((admitted, rejected), (0, 1));
    }

    #[test]
    fn ping_pong_submits_are_never_lost_to_a_parking_race() {
        // regression: a runner that decides to wait outside the scan's
        // critical section lets an admit land in between, so it sleeps
        // over a queued job (and a submit that skips the notify while
        // the runner is not yet counted idle does the same). The
        // ping-pong maximizes wait/submit interleavings; a lost wakeup
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
            while a.queues().lanes.iter().any(|l| !l.is_empty()) {
                std::thread::yield_now();
            }
        }
        a.close();
        assert_eq!(consumer.join().unwrap(), 200);
    }

    #[test]
    fn a_submit_racing_close_cannot_strand_an_admitted_job() {
        // regression: `closed` checked and the job enqueued without one
        // lock ordering both against close() lets a job land after the
        // runners' final drain — admitted but never terminal. The
        // post-close drain must account for every admitted job.
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
    fn an_eligible_job_queues_behind_another_tenants_queued_job() {
        let a = adm(2, 4);
        let t = JobTicket::new();
        a.submit(spec("x"), Arc::clone(&t), Arc::new(NullSink)).unwrap();
        let admitted = a.admit(spec("y"), t, Arc::new(NullSink), |_| Some(())).unwrap();
        assert!(matches!(admitted, Admitted::Queued(2, ref tenant, 1) if tenant == "y"));
        let cursor = AtomicUsize::new(0);
        let order: Vec<String> = (0..2).map(|_| a.next_job(&cursor).unwrap().tenant).collect();
        assert_eq!(order, ["x", "y"]);
    }

    #[test]
    fn with_every_lane_empty_the_job_is_handed_back_and_counted_once() {
        let a = adm(2, 4);
        let admitted = a.admit(spec("x"), JobTicket::new(), Arc::new(NullSink), |s| {
            Some(s.size)
        });
        let Ok(Admitted::Inline(job, grant)) = admitted else { panic!("job was not handed back") };
        assert_eq!((job.id, job.tenant.as_str(), grant), (1, "x", 64));
        assert!(a.queues().lanes.iter().all(VecDeque::is_empty), "the job was also pushed");
        let (admitted, rejected, ..) = a.metrics.totals();
        assert_eq!((admitted, rejected), (1, 0));
        // a declined grant queues the next job instead
        let admitted = a.admit(spec("x"), JobTicket::new(), Arc::new(NullSink), |_| None::<()>);
        assert!(matches!(admitted, Ok(Admitted::Queued(2, ..))));
        assert_eq!(a.queues().lanes[0].len(), 1);
    }

    #[test]
    fn after_close_an_eligible_job_is_rejected_without_a_grant() {
        let a = adm(2, 4);
        a.close();
        let rej = a
            .admit(spec("x"), JobTicket::new(), Arc::new(NullSink), |_| -> Option<()> {
                panic!("asked to run a job after close")
            })
            .err()
            .expect("admitted after close");
        assert!(rej.reason.contains("shutting down"), "{}", rej.reason);
        assert_eq!(rej.retry_after_ms, 0, "permanent rejection");
        assert_eq!(a.metrics.totals().1, 1);
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
