//! The binaries' allocator, `ezp_sched::HugePageAlloc`, installed in
//! this test binary too: a block of at least 2 MiB gets a 2 MiB-aligned
//! mapping of its own, advised onto huge pages, and unmapped on free;
//! a smaller block goes to the system allocator. Where transparent huge
//! pages are on (`[always]` or `[madvise]`), a 1024² context with both
//! images takes a handful of first-touch faults instead of about 2 050.
//!
//! One `#[test]` fn: minor faults are counted for the whole process, so
//! no other test may run beside the counted part.

use easypap::prelude::*;
use easypap::sched::HugePageAlloc;

#[global_allocator]
static ALLOC: HugePageAlloc = HugePageAlloc;

const LARGE: usize = 2 << 20;

/// The process's minor faults so far: field 10 of `/proc/self/stat`.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // fields after the command name, which may hold spaces, start at 3
    let after_comm = &stat[stat.rfind(')').expect("a command name") + 2..];
    let field = after_comm.split(' ').nth(10 - 3).expect("field 10");
    field.parse().expect("a fault count")
}

/// The lines of `/proc/self/smaps` for the mapping that holds `addr`,
/// or `None` if no mapping does.
fn mapping_of(addr: usize, smaps: &str) -> Option<Vec<&str>> {
    let mut lines = smaps.lines().peekable();
    while let Some(head) = lines.next() {
        let mut entry = vec![head];
        while let Some(line) = lines.next_if(|l| !is_range(l)) {
            entry.push(line);
        }
        let (lo, hi) = range(head);
        if (lo..hi).contains(&addr) {
            return Some(entry);
        }
    }
    None
}

/// Whether a `maps`/`smaps` line opens a mapping (`lo-hi perms ...`).
fn is_range(line: &str) -> bool {
    line.split(' ')
        .next()
        .and_then(|r| r.split_once('-'))
        .is_some_and(|(lo, hi)| {
            usize::from_str_radix(lo, 16).is_ok() && usize::from_str_radix(hi, 16).is_ok()
        })
}

fn range(line: &str) -> (usize, usize) {
    let (lo, hi) = line.split(' ').next().unwrap().split_once('-').unwrap();
    (
        usize::from_str_radix(lo, 16).unwrap(),
        usize::from_str_radix(hi, 16).unwrap(),
    )
}

/// The `AnonHugePages` of a mapping's smaps lines, in kB.
fn anon_huge_kb(entry: &[&str]) -> u64 {
    entry
        .iter()
        .find_map(|l| l.strip_prefix("AnonHugePages:"))
        .map(|v| v.trim().trim_end_matches("kB").trim().parse().unwrap())
        .unwrap_or(0)
}

fn smaps() -> String {
    std::fs::read_to_string("/proc/self/smaps").expect("/proc/self/smaps")
}

/// A recognisable byte for position `i`.
fn pattern(i: usize) -> u8 {
    (i * 31 % 251) as u8
}

#[test]
fn large_blocks_get_aligned_huge_page_mappings_of_their_own() {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        println!("skipped: off Linux x86-64 every block goes to the system allocator");
        return;
    }
    let large: Vec<u8> = Vec::with_capacity(LARGE + 12_345);
    assert_eq!(
        large.as_ptr() as usize % LARGE,
        0,
        "a large block is unaligned"
    );
    let small: Vec<u8> = Vec::with_capacity(LARGE - 4096);
    assert_ne!(
        small.as_ptr() as usize % LARGE,
        0,
        "a block under 2 MiB was mapped on a huge-page boundary"
    );
    drop((large, small));

    // a zeroed block reads zero, also where a freed dirty one was
    let mut dirty = vec![0u8; 3 * LARGE];
    dirty.fill(0xa5);
    drop(dirty);
    let zeroed = vec![0u8; 3 * LARGE];
    assert!(zeroed.iter().all(|&b| b == 0), "alloc_zeroed is not zero");
    drop(zeroed);

    // realloc keeps the bytes across the threshold, both ways
    let mut grown: Vec<u8> = (0..LARGE / 2).map(pattern).collect();
    grown.reserve(2 * LARGE); // small -> large
    assert_eq!(
        grown.as_ptr() as usize % LARGE,
        0,
        "grown block is unaligned"
    );
    grown.extend((LARGE / 2..3 * LARGE).map(pattern));
    grown.reserve(4 * LARGE); // large -> larger
    assert!(grown.iter().enumerate().all(|(i, &b)| b == pattern(i)));
    grown.truncate(LARGE / 4);
    grown.shrink_to_fit(); // large -> small
    assert!(grown.iter().enumerate().all(|(i, &b)| b == pattern(i)));
    assert_eq!(grown.len(), LARGE / 4);
    drop(grown);

    // a freed block's mapping is gone
    let freed = vec![1u8; LARGE + 1];
    let addr = freed.as_ptr() as usize;
    assert!(
        mapping_of(addr, &smaps()).is_some(),
        "a live block unmapped"
    );
    drop(freed);
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    assert!(
        mapping_of(addr, &maps).is_none(),
        "a freed block is still mapped"
    );

    let thp =
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    if !thp.contains("[always]") && !thp.contains("[madvise]") {
        println!("skipped the fault count: transparent huge pages are {thp:?} here");
        return;
    }
    // code paths and small allocations fault in before the count
    drop(KernelCtx::new(RunConfig::new("scrollup").size(64).tile(16)).unwrap());
    let before = minor_faults();
    let mut ctx = KernelCtx::new(RunConfig::new("scrollup").size(1024).tile(16)).unwrap();
    ctx.images.next_mut();
    let faults = minor_faults() - before;
    assert!(
        faults <= 64,
        "a 1024² context with both images took {faults} minor faults"
    );
    let next = ctx.images.next_mut().as_slice().as_ptr() as usize;
    let cur = ctx.images.cur().as_slice().as_ptr() as usize;
    let smaps = smaps();
    for (name, addr) in [("cur", cur), ("next", next)] {
        let entry = mapping_of(addr, &smaps).expect("an image's mapping");
        assert!(
            anon_huge_kb(&entry) > 0,
            "{name} image has no AnonHugePages:\n{}",
            entry.join("\n")
        );
    }
}
