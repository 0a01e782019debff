//! Where pool workers run. A thread starts on its spawner's CPU, and a
//! host that does not balance load leaves it there, so unbound workers
//! can share one CPU all run long. Linux only; elsewhere none is bound.

/// The CPU each worker (rank `1..threads`) of the `pool`-th pool binds
/// to, or why they stay unbound. `allowed` is the spawner's set, its own
/// CPU first, which the caller (rank 0, unbound) keeps; worker `r` gets
/// the `(pool + r − 1) mod (n − 1)`-th of the others: distinct, rotating.
pub(crate) fn plan(pool: usize, threads: usize, allowed: &[usize]) -> Result<Vec<usize>, String> {
    match allowed.len() {
        0 => Err("cpu affinity unavailable".into()),
        1 => Err("1 allowed cpu".into()),
        n if threads > n => Err(format!("{threads} threads > {n} allowed cpus")),
        n => Ok((1..threads)
            .map(|r| allowed[1 + (pool + r - 1) % (n - 1)])
            .collect()),
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_ulong};
    const BITS: usize = c_ulong::BITS as usize;
    /// glibc's `cpu_set_t`, 1024 CPUs. A `pid` of 0 is the calling thread.
    type CpuSet = [c_ulong; 1024 / BITS];
    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
        fn sched_getcpu() -> c_int;
    }

    /// The CPUs the calling thread may run on, the one it runs on first.
    pub(crate) fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 1024 / BITS];
        // SAFETY: the kernel writes at most `size` bytes, the byte
        // length of `set`, a local the call borrows mutably.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        let on = |cpu: usize| rc == 0 && (set[cpu / BITS] >> (cpu % BITS)) & 1 == 1;
        // SAFETY: `sched_getcpu` takes no argument and writes no memory.
        let running = unsafe { sched_getcpu() };
        let mut cpus: Vec<usize> = (0..1024).filter(|&cpu| on(cpu)).collect();
        cpus.sort_by_key(|&cpu| cpu as c_int != running);
        cpus
    }

    /// Binds the calling thread to `cpu`; a failure leaves it unbound.
    pub(crate) fn bind(cpu: usize) {
        let mut set: CpuSet = [0; 1024 / BITS];
        set[cpu / BITS] |= 1 << (cpu % BITS);
        // SAFETY: the kernel reads `size` bytes, the byte length of
        // `set`, a local that outlives the call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(crate) fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub(crate) fn bind(_cpu: usize) {}
}

pub(crate) use sys::{allowed, bind};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pool_that_fits_gets_distinct_cpus_rotated_by_its_number() {
        assert_eq!(plan(0, 2, &[2, 5, 7]), Ok(vec![5]));
        assert_eq!(plan(0, 3, &[2, 5, 7]), Ok(vec![5, 7]));
        assert_eq!(plan(1, 3, &[5, 2, 7]), Ok(vec![7, 2]));
        assert_eq!(plan(2, 3, &[5, 2, 7]), Ok(vec![2, 7]));
        // a width-1 pool has no worker to place
        assert_eq!(plan(4, 1, &[7, 2, 5]), Ok(vec![]));
    }

    #[test]
    fn a_pool_stays_unbound_when_the_set_cannot_hold_it() {
        assert_eq!(
            plan(0, 3, &[0, 1]),
            Err("3 threads > 2 allowed cpus".into())
        );
        assert_eq!(plan(0, 2, &[3]), Err("1 allowed cpu".into()));
        assert_eq!(plan(0, 2, &[]), Err("cpu affinity unavailable".into()));
    }
}
