//! The set-associative LRU cache model.

/// Geometry of a simulated cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A typical L1D: 32 KiB, 64-byte lines, 8-way.
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// A typical per-core L2: 512 KiB, 64-byte lines, 8-way.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.ways > 0, "need at least one way");
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.ways) && self.sets() > 0,
            "capacity must be a whole number of sets"
        );
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Resident lines displaced by misses on full sets. Distinguishes
    /// cold misses (`misses - evictions` on a never-flushed cache) from
    /// capacity/conflict misses, which is the difference tile-size
    /// experiments are about.
    pub evictions: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]` (0 when nothing was accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct CacheSim {
    config: CacheConfig,
    /// Per set: resident line tags, most recently used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheSim {
    /// Builds an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        CacheSim {
            config,
            sets: vec![Vec::with_capacity(config.ways); config.sets()],
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Performs one byte access at `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.config.sets() as u64) as usize;
        let set = &mut self.sets[set_idx];
        self.stats.accesses += 1;
        if let Some(pos) = set.iter().position(|&t| t == line) {
            // hit: move to MRU position
            let tag = set.remove(pos);
            set.push(tag);
            self.stats.hits += 1;
            true
        } else {
            // miss: evict LRU if full
            if set.len() == self.config.ways {
                set.remove(0);
                self.stats.evictions += 1;
            }
            set.push(line);
            false
        }
    }

    /// Accesses a contiguous `len`-byte range starting at `addr`.
    pub fn access_range(&mut self, addr: u64, len: usize) {
        let line = self.config.line_bytes as u64;
        let first = addr / line;
        let last = (addr + len.max(1) as u64 - 1) / line;
        for l in first..=last {
            self.access(l * line);
        }
    }

    /// Counters since construction or the last [`CacheSim::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters, keeping cache contents warm — the per-task
    /// replay uses this to attribute misses to individual tasks.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache entirely (cold restart).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 sets x 2 ways x 16B lines = 128 B
        CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().sets(), 4);
        assert_eq!(CacheConfig::l1d().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 1024);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = CacheSim::new(tiny());
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(15)); // same line
        assert!(!c.access(16)); // next line
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = CacheSim::new(tiny());
        // lines 0, 4, 8 all map to set 0 (line % 4 == 0); 2 ways
        assert!(!c.access(0)); // line 0 in
        assert!(!c.access(4 * 16)); // line 4 in
        assert!(c.access(0)); // hit, 0 becomes MRU
        assert!(!c.access(8 * 16)); // line 8 evicts LRU = line 4
        assert!(c.access(0)); // 0 still resident
        assert!(!c.access(4 * 16)); // 4 was evicted
        // two misses displaced resident lines; the first two were cold
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().misses(), 4);
    }

    #[test]
    fn cold_misses_do_not_count_as_evictions() {
        let mut c = CacheSim::new(tiny());
        for addr in (0..128u64).step_by(16) {
            c.access(addr); // fills the cache exactly, nothing displaced
        }
        assert_eq!(c.stats().misses(), 8);
        assert_eq!(c.stats().evictions, 0);
        c.access(128); // one more distinct line -> first eviction
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn working_set_within_capacity_fully_hits_on_second_pass() {
        let cfg = tiny(); // 128 B capacity
        let mut c = CacheSim::new(cfg);
        for addr in (0..128u64).step_by(16) {
            c.access(addr);
        }
        c.reset_stats();
        for addr in (0..128u64).step_by(16) {
            assert!(c.access(addr), "warm line {addr} missed");
        }
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }

    #[test]
    fn streaming_larger_than_capacity_thrashes() {
        let mut c = CacheSim::new(tiny());
        // touch 1 KiB twice: second pass still misses (capacity 128 B)
        for _ in 0..2 {
            for addr in (0..1024u64).step_by(16) {
                c.access(addr);
            }
        }
        assert!(c.stats().miss_ratio() > 0.99);
    }

    #[test]
    fn access_range_touches_every_line() {
        let mut c = CacheSim::new(tiny());
        c.access_range(8, 32); // bytes 8..40 -> lines 0, 1, 2
        assert_eq!(c.stats().accesses, 3);
        c.access_range(0, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn flush_makes_cache_cold() {
        let mut c = CacheSim::new(tiny());
        c.access(0);
        c.flush();
        c.reset_stats();
        assert!(!c.access(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        drop(CacheSim::new(CacheConfig {
            size_bytes: 120,
            line_bytes: 15,
            ways: 2,
        }));
    }
}
