//! Where pool workers run: each worker of a pool that fits its
//! spawner's CPU affinity set binds to its own CPU of that set, and a
//! pool that does not fit (wider than the set, or a one-CPU set) leaves
//! its workers where the spawner may run. Each rank reads its own
//! `Cpus_allowed_list` from `/proc/thread-self/status` inside a region.
//! Off Linux, or on a one-CPU host, the test passes and prints why.

use ezp_sched::WorkerPool;
use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Mutex;

/// The calling thread's `Cpus_allowed_list` (e.g. `0-1,4`).
fn allowed_list() -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(line.trim().to_string())
}

/// The CPUs a list names: `0-2,5` is `{0, 1, 2, 5}`.
fn cpus(list: &str) -> BTreeSet<usize> {
    let num = |s: &str| s.parse::<usize>().expect("a cpu number");
    list.split(',')
        .flat_map(|part| match part.split_once('-') {
            Some((lo, hi)) => num(lo)..=num(hi),
            None => num(part)..=num(part),
        })
        .collect()
}

/// Every rank's allowed list, read from inside one region.
fn worker_lists(pool: &mut WorkerPool) -> Vec<String> {
    let lists = Mutex::new(vec![String::new(); pool.threads()]);
    pool.run(|rank| lists.lock().unwrap()[rank] = allowed_list().unwrap());
    lists.into_inner().unwrap()
}

/// Sets the calling thread's own mask (not the process's) to `list`
/// with `taskset -p`, which takes a thread id.
fn set_own_mask(list: &str) -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let tid = link.file_name().unwrap().to_string_lossy().into_owned();
    Command::new("taskset")
        .args(["-p", "-c", list, &tid])
        .output()
        .is_ok_and(|out| out.status.success())
}

#[test]
fn workers_bind_to_distinct_cpus_of_the_spawners_set_when_the_pool_fits() {
    let Some(own) = allowed_list() else {
        println!("skipped: no /proc/thread-self/status on this OS, workers stay unbound");
        return;
    };
    let set = cpus(&own);
    if set.len() < 2 {
        println!("skipped: 1 allowed cpu ({own}), nothing is bound");
        return;
    }

    // a pool that fits: one distinct CPU of the set per worker
    let lists = worker_lists(&mut WorkerPool::new(2));
    let bound: Vec<BTreeSet<usize>> = lists.iter().map(|l| cpus(l)).collect();
    for (rank, cpus) in bound.iter().enumerate() {
        assert_eq!(cpus.len(), 1, "rank {rank} is not bound: {}", lists[rank]);
        assert!(cpus.is_subset(&set), "rank {rank} left the set {own}");
    }
    assert_ne!(bound[0], bound[1], "both workers on one cpu");

    // a pool wider than the set: every worker keeps the spawner's list
    for (rank, list) in worker_lists(&mut WorkerPool::new(set.len() + 1))
        .iter()
        .enumerate()
    {
        assert_eq!(list, &own, "rank {rank} of a pool wider than the set");
    }

    // two width-1 pools alive at once: their workers sit apart
    let (mut a, mut b) = (WorkerPool::new(1), WorkerPool::new(1));
    let (a, b) = (worker_lists(&mut a), worker_lists(&mut b));
    assert_eq!(cpus(&a[0]).len(), 1);
    assert_ne!(a, b, "the rank-0 workers of two live pools share a cpu");

    // a one-CPU spawner: nothing is bound, the workers keep its list
    let one = set.iter().next().unwrap().to_string();
    if !set_own_mask(&one) {
        println!("skipped the one-cpu case: `taskset -p` could not narrow this thread");
        return;
    }
    let lists = worker_lists(&mut WorkerPool::new(2));
    assert!(set_own_mask(&own), "could not restore this thread's mask");
    assert_eq!(allowed_list().unwrap(), own);
    for (rank, list) in lists.iter().enumerate() {
        assert_eq!(list, &one, "rank {rank} of a pool over a one-cpu set");
    }
}
