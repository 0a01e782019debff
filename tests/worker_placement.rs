//! Where pool workers run, and how many threads a pool adds. The
//! caller is rank 0 and stays where it was; each spawned worker of a
//! pool that fits its spawner's CPU affinity set binds to its own CPU
//! of that set, other than the caller's, and a pool that does not fit
//! (wider than the set, or a one-CPU set) leaves its workers where the
//! spawner may run. Each rank reads its own `Cpus_allowed_list` from
//! `/proc/thread-self/status` inside a region. Off Linux, or on a
//! one-CPU host, the test passes and prints why.

use ezp_sched::WorkerPool;
use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The calling thread's `Cpus_allowed_list` (e.g. `0-1,4`).
fn allowed_list() -> Option<String> {
    status_field("/proc/thread-self/status", "Cpus_allowed_list:")
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

/// A `/proc` status field of this process or this thread.
fn status_field(path: &str, field: &str) -> Option<String> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    Some(line.trim().to_string())
}

/// The process's thread count.
fn threads() -> usize {
    status_field("/proc/self/status", "Threads:")
        .expect("a Threads: line")
        .parse()
        .expect("a thread count")
}

/// The CPU the calling thread last ran on: field 39 of its `stat`,
/// the 37th after the parenthesised command name.
fn running_cpu() -> usize {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
    let after_comm = &stat[stat.rfind(')').unwrap() + 1..];
    after_comm
        .split_whitespace()
        .nth(36)
        .unwrap()
        .parse()
        .unwrap()
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

/// The one test of this binary, so that no other test's threads move
/// the count it reads.
#[test]
fn workers_bind_to_distinct_cpus_of_the_spawners_set_when_the_pool_fits() {
    let Some(own) = allowed_list() else {
        println!("skipped: no /proc/thread-self/status on this OS, no thread count either");
        return;
    };

    // a width-n pool adds n − 1 threads, and a width-1 region wakes
    // none; dropping the pool gives them back (a joined thread leaves
    // the count a moment after `join` returns, hence the bounded wait)
    for n in 1..=3 {
        let base = threads();
        let mut pool = WorkerPool::new(n);
        pool.run(|_| {});
        assert_eq!(threads(), base + n - 1, "a pool of {n} ranks");
        drop(pool);
        let deadline = Instant::now() + Duration::from_secs(10);
        while threads() != base {
            assert!(Instant::now() < deadline, "a pool of {n} kept its threads");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let set = cpus(&own);
    if set.len() < 2 {
        println!("skipped the placement: 1 allowed cpu ({own}), nothing is bound");
        return;
    }

    // a pool that fits: the caller (rank 0) keeps its list, and each
    // worker gets a distinct CPU of the set other than the caller's. The
    // caller is unbound, so where it ran at spawn is known only when it
    // read the same CPU just before and just after. Consecutive pools
    // rotate their workers over the set, so each width is tried on 4.
    for width in (2..=set.len().min(4)).flat_map(|w| [w; 4]) {
        let (mut pool, spawned_on) = (0..100)
            .find_map(|_| {
                let before = running_cpu();
                let pool = WorkerPool::new(width);
                (running_cpu() == before).then_some((pool, before))
            })
            .expect("the caller moved during each of 100 spawns");
        let lists = worker_lists(&mut pool);
        assert_eq!(lists[0], own, "the caller was bound");
        let bound: Vec<BTreeSet<usize>> = lists[1..].iter().map(|l| cpus(l)).collect();
        for (i, cpus) in bound.iter().enumerate() {
            let rank = i + 1;
            assert_eq!(cpus.len(), 1, "rank {rank} is not bound: {}", lists[rank]);
            assert!(cpus.is_subset(&set), "rank {rank} left the set {own}");
            assert!(
                !cpus.contains(&spawned_on),
                "rank {rank} sits on the caller's cpu {spawned_on}"
            );
        }
        let distinct: BTreeSet<_> = bound.iter().flatten().collect();
        assert_eq!(
            distinct.len(),
            width - 1,
            "two workers on one cpu: {lists:?}"
        );
    }

    // a pool wider than the set: every rank keeps the spawner's list
    for (rank, list) in worker_lists(&mut WorkerPool::new(set.len() + 1))
        .iter()
        .enumerate()
    {
        assert_eq!(list, &own, "rank {rank} of a pool wider than the set");
    }

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
