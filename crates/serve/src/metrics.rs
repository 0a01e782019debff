//! Per-tenant service counters.
//!
//! Reuses `ezp_perf::CounterSet` — the same cache-padded lock-free
//! counter spine the scheduler uses — with one twist: the per-worker
//! dimension becomes the per-*tenant* dimension. Slot `i` of every
//! counter belongs to tenant slot `i`, so `jobs_admitted{worker="2"}`
//! in the exported report reads "tenant slot 2". The tenant-name table
//! is the only locked structure, touched once per (tenant, connection)
//! resolution — never per counter bump.

use ezp_core::json::{Json, ToJson};
use ezp_perf::names;
use ezp_perf::{CounterId, CounterSet, CounterSnapshot};
use std::sync::Mutex;

/// The daemon-wide per-tenant counter set.
pub struct ServeMetrics {
    counters: CounterSet,
    jobs_admitted: CounterId,
    jobs_rejected: CounterId,
    jobs_completed: CounterId,
    jobs_cancelled: CounterId,
    jobs_failed: CounterId,
    tenant_queue_depth: CounterId,
    tenant_idle_ns: CounterId,
    /// Tenant slot table: index = counter slot. Bounded by
    /// `max_tenants`; a full table is an admission rejection, not a
    /// growth event, so counter storage never reallocates.
    tenants: Mutex<Vec<String>>,
    max_tenants: usize,
}

impl ServeMetrics {
    /// A metric set with room for `max_tenants` tenant slots.
    pub fn new(max_tenants: usize) -> Self {
        let max_tenants = max_tenants.max(1);
        let mut counters = CounterSet::new(max_tenants);
        let jobs_admitted = counters.register(names::JOBS_ADMITTED);
        let jobs_rejected = counters.register(names::JOBS_REJECTED);
        let jobs_completed = counters.register(names::JOBS_COMPLETED);
        let jobs_cancelled = counters.register(names::JOBS_CANCELLED);
        let jobs_failed = counters.register(names::JOBS_FAILED);
        let tenant_queue_depth = counters.register(names::TENANT_QUEUE_DEPTH);
        let tenant_idle_ns = counters.register(names::TENANT_IDLE_NS);
        ServeMetrics {
            counters,
            jobs_admitted,
            jobs_rejected,
            jobs_completed,
            jobs_cancelled,
            jobs_failed,
            tenant_queue_depth,
            tenant_idle_ns,
            tenants: Mutex::new(Vec::new()),
            max_tenants,
        }
    }

    /// Maximum number of distinct tenants.
    pub fn max_tenants(&self) -> usize {
        self.max_tenants
    }

    /// Resolves `tenant` to its counter slot, registering it on first
    /// sight. `None` when the tenant table is full.
    pub fn tenant_slot(&self, tenant: &str) -> Option<usize> {
        let mut table = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = table.iter().position(|t| t == tenant) {
            return Some(slot);
        }
        if table.len() >= self.max_tenants {
            return None;
        }
        table.push(tenant.to_string());
        Some(table.len() - 1)
    }

    /// The registered tenant names, slot order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// One job admitted for tenant `slot`; `depth` is the queue depth
    /// right after the enqueue (folded into the high-water gauge).
    pub fn admitted(&self, slot: usize, depth: u64) {
        self.counters.incr(self.jobs_admitted, slot);
        self.counters.max(self.tenant_queue_depth, slot, depth);
    }

    /// One job rejected with backpressure for tenant `slot`.
    pub fn rejected(&self, slot: usize) {
        self.counters.incr(self.jobs_rejected, slot);
    }

    /// One job finished for tenant `slot`, after waiting `queued_ns` for
    /// a runner and a pool slot.
    pub fn completed(&self, slot: usize, queued_ns: u64) {
        self.counters.incr(self.jobs_completed, slot);
        self.counters.add(self.tenant_idle_ns, slot, queued_ns);
    }

    /// One admitted job dropped because its client disconnected.
    pub fn cancelled(&self, slot: usize) {
        self.counters.incr(self.jobs_cancelled, slot);
    }

    /// One admitted job that errored during execution.
    pub fn failed(&self, slot: usize) {
        self.counters.incr(self.jobs_failed, slot);
    }

    /// Totals across tenants: (admitted, rejected, completed, cancelled,
    /// failed).
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.counters.total(self.jobs_admitted),
            self.counters.total(self.jobs_rejected),
            self.counters.total(self.jobs_completed),
            self.counters.total(self.jobs_cancelled),
            self.counters.total(self.jobs_failed),
        )
    }

    /// Snapshot of the raw counters (tenant slots in the worker
    /// dimension).
    pub fn snapshot(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// The stats document served to [`crate::proto::Request::Stats`]:
    /// tenant names aligned with the counter slots, plus the raw
    /// snapshot for machine consumers.
    pub fn to_json(&self) -> Json {
        let tenant_names = self.tenant_names();
        let snapshot = self.snapshot();
        let per_tenant: Vec<Json> = tenant_names
            .iter()
            .enumerate()
            .map(|(slot, name)| {
                let val = |counter: &str| {
                    snapshot
                        .get(counter)
                        .and_then(|c| c.per_worker.get(slot).copied())
                        .unwrap_or(0)
                };
                Json::obj([
                    ("tenant", name.to_json()),
                    ("slot", slot.to_json()),
                    ("jobs_admitted", val(names::JOBS_ADMITTED).to_json()),
                    ("jobs_rejected", val(names::JOBS_REJECTED).to_json()),
                    ("jobs_completed", val(names::JOBS_COMPLETED).to_json()),
                    ("jobs_cancelled", val(names::JOBS_CANCELLED).to_json()),
                    ("jobs_failed", val(names::JOBS_FAILED).to_json()),
                    (
                        "tenant_queue_depth",
                        val(names::TENANT_QUEUE_DEPTH).to_json(),
                    ),
                    ("tenant_idle_ns", val(names::TENANT_IDLE_NS).to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("max_tenants", self.max_tenants.to_json()),
            ("tenants", Json::Arr(per_tenant)),
            ("counters", snapshot.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_stable_and_bounded() {
        let m = ServeMetrics::new(2);
        assert_eq!(m.tenant_slot("a"), Some(0));
        assert_eq!(m.tenant_slot("b"), Some(1));
        assert_eq!(m.tenant_slot("a"), Some(0), "idempotent");
        assert_eq!(m.tenant_slot("c"), None, "table full");
        assert_eq!(m.tenant_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn counters_land_on_the_tenant_slot() {
        let m = ServeMetrics::new(4);
        let a = m.tenant_slot("a").unwrap();
        let b = m.tenant_slot("b").unwrap();
        m.admitted(a, 1);
        m.admitted(a, 2);
        m.admitted(b, 1);
        m.rejected(b);
        m.completed(a, 500);
        m.cancelled(b);
        m.failed(a);
        let (adm, rej, comp, canc, fail) = m.totals();
        assert_eq!((adm, rej, comp, canc, fail), (3, 1, 1, 1, 1));
        let snap = m.snapshot();
        assert_eq!(snap.get(names::JOBS_ADMITTED).unwrap().per_worker[a], 2);
        assert_eq!(snap.get(names::JOBS_ADMITTED).unwrap().per_worker[b], 1);
        assert_eq!(
            snap.get(names::TENANT_QUEUE_DEPTH).unwrap().per_worker[a],
            2
        );
        assert_eq!(snap.get(names::TENANT_IDLE_NS).unwrap().per_worker[a], 500);
    }

    #[test]
    fn stats_json_aligns_names_with_slots() {
        let m = ServeMetrics::new(4);
        let a = m.tenant_slot("acme").unwrap();
        m.admitted(a, 1);
        m.rejected(a);
        let j = m.to_json();
        assert_eq!(j.field::<usize>("max_tenants").unwrap(), 4);
        let tenants = j.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].field::<String>("tenant").unwrap(), "acme");
        assert_eq!(tenants[0].field::<u64>("jobs_admitted").unwrap(), 1);
        assert_eq!(tenants[0].field::<u64>("jobs_rejected").unwrap(), 1);
        // the raw snapshot rides along for machine consumers
        assert!(j.get("counters").is_some());
    }
}
