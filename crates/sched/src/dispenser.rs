//! OpenMP loop-scheduling policies as concurrent chunk dispensers.
//!
//! A [`Dispenser`] hands out chunks `(start, len)` of a linear iteration
//! space `0..n` to worker ranks until exhaustion. One dispenser instance
//! serves one `parallel for`; the five implementations mirror the
//! `schedule(...)` clauses the paper's Fig. 4 visualizes:
//!
//! * [`StaticBlock`] — `schedule(static)`: one contiguous block per rank;
//! * [`StaticCyclic`] — `schedule(static, k)`: round-robin chunks of `k`;
//! * [`DynamicChunks`] — `schedule(dynamic, k)`: first-come first-served
//!   chunks of `k`, claimed geometrically on large loops (below);
//! * [`GuidedChunks`] — `schedule(guided, k)`: exponentially shrinking
//!   chunks, never below `k`;
//! * [`StealingDispenser`] — `schedule(nonmonotonic:dynamic)`: "tiles are
//!   first distributed in a static manner, but work-stealing is
//!   eventually used to correct load imbalance" (§II-B).
//!
//! All five dispensers are lock-free: atomic cursors where the policy
//! is a single stream, and packed per-rank range words updated by CAS
//! for the stealing policy (see [`StealingDispenser`] for the
//! no-double-grant argument).
//!
//! ## Geometric claims on the shared cursor
//!
//! `dynamic` and `guided` share one padded cursor and one claim step
//! (`claim`): read what is left, size the claim from it, CAS the
//! cursor forward. Guided sizes a claim at `remaining / (2 P)`. Dynamic
//! on a loop of more than `256 P` chunks (`CLASSIC_CHUNKS`) sizes it
//! at `remaining / (16 P)` (`CLAIM_SHARE`) rounded *down* to a
//! multiple of `k`, and never below `k`: a claim is two cross-core
//! transfers of the cursor's line (the load and the CAS), ≈0.7–1 µs on
//! the measurement host and several times an 8-pixel tile, so a loop of
//! many thousand chunks takes them geometrically — `16 P ln(n / 16 P k)`
//! claims instead of `n / k` — and ends on single chunks over its last
//! `16 P`. The bound this buys: no rank ever holds more than `1/(16 P)`
//! of the work that was left when it claimed. A loop of at most `256 P`
//! chunks — the tiling-window figures (Fig. 4b, Fig. 8) are all of that
//! size — is the classic first-come-first-served sequence `(i k, k)`,
//! one chunk per claim.
//!
//! ## Hostile chunk sizes
//!
//! `k` comes from the command line. Every constructor clamps it to
//! `1..=max(n, 1)`, no cursor is ever moved past `n` (an exhausted
//! dispenser answers `None` without a read-modify-write, however often
//! it is asked), and index arithmetic that could still leave `usize`
//! is checked.

use ezp_core::Schedule;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Work-stealing activity of one rank over a dispenser's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Times the rank entered the steal path (its own range was empty).
    pub attempted: u64,
    /// Attempts that obtained work from a victim.
    pub succeeded: u64,
}

/// A concurrent source of chunks over `0..n`.
///
/// Implementations must collectively hand out every index exactly once,
/// whatever the interleaving of `next` calls *across ranks* — the
/// invariant the property tests in this module (and the adversarial
/// `ezp-check` schedules in `vexec`) pin down.
///
/// **Calling protocol**: at most one thread serves a given rank at a
/// time. [`WorkerPool`](crate::WorkerPool) guarantees this structurally
/// (one thread per rank), and [`StealingDispenser`] relies on it: a
/// rank's *private remainder* (the interval it last stole) is written
/// only by that rank, so two threads calling `next` with the *same*
/// rank concurrently could each overwrite the remainder with different
/// stolen intervals and leak the loser's work. Calls with distinct
/// ranks may race freely — the shared range words are CAS-protected.
///
/// **Generations**: one dispenser *instance* serves one consumer
/// generation — a single `parallel for` drained to exhaustion — and is
/// then dropped. A stealing dispenser abandoned mid-drain leaves work
/// parked in rank-private remainders, so an instance is never recycled;
/// every region builds a fresh one ([`dispenser_for`]).
pub trait Dispenser: Sync + Send {
    /// Next chunk for `rank`, as `(start, len)` with `len > 0`, or `None`
    /// when no work is left for this rank.
    fn next(&self, rank: usize) -> Option<(usize, usize)>;

    /// Total length of the iteration space.
    fn len(&self) -> usize;

    /// True when the iteration space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-rank steal counters, for dispensers that steal. `None` for
    /// policies without stealing, so the scheduling layer emits steal
    /// events only where they mean something.
    fn steal_stats(&self) -> Option<Vec<StealStats>> {
        None
    }
}

/// Builds the dispenser implementing `schedule` for `n` iterations and
/// `threads` ranks.
pub fn dispenser_for(schedule: Schedule, n: usize, threads: usize) -> Box<dyn Dispenser> {
    assert!(threads > 0, "dispenser needs at least one rank");
    match schedule {
        Schedule::Static => Box::new(StaticBlock::new(n, threads)),
        Schedule::StaticChunk(k) => Box::new(StaticCyclic::new(n, threads, k)),
        Schedule::Dynamic(k) => Box::new(DynamicChunks::new(n, threads, k)),
        Schedule::Guided(k) => Box::new(GuidedChunks::new(n, threads, k)),
        Schedule::NonmonotonicDynamic(k) => Box::new(StealingDispenser::new(n, threads, k)),
    }
}

/// A chunk size as the dispensers use it: at least 1, at most the whole
/// loop. `k` is user input (`--schedule dynamic,K`); a value near
/// `usize::MAX` must not reach the cursor arithmetic.
fn clamp_chunk(k: usize, n: usize) -> usize {
    k.clamp(1, n.max(1))
}

/// `schedule(static)`: rank `r` owns the contiguous block
/// `[r*n/P, (r+1)*n/P)` (even split, remainder spread over low ranks,
/// like libgomp). Served as one chunk per rank.
pub struct StaticBlock {
    n: usize,
    threads: usize,
    /// Per-rank "already taken" flags (an atomic cursor would also do,
    /// but one flag per rank keeps `next` wait-free). counter-only: the
    /// flag is the entire payload; block bounds come from immutable
    /// fields.
    taken: Vec<AtomicUsize>,
}

impl StaticBlock {
    /// Creates the dispenser.
    pub fn new(n: usize, threads: usize) -> Self {
        StaticBlock {
            n,
            threads,
            taken: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The block assigned to `rank`, as `(start, len)`.
    pub fn block_of(n: usize, threads: usize, rank: usize) -> (usize, usize) {
        let base = n / threads;
        let rem = n % threads;
        let start = rank * base + rank.min(rem);
        let len = base + usize::from(rank < rem);
        (start, len)
    }
}

impl Dispenser for StaticBlock {
    fn next(&self, rank: usize) -> Option<(usize, usize)> {
        // ORDERING: counter-only. The swap's *atomicity* is what grants
        // the block at most once; the block bounds are computed from
        // immutable fields, so no data rides on this edge and Relaxed
        // suffices.
        if rank >= self.threads || self.taken[rank].swap(1, Ordering::Relaxed) == 1 {
            return None;
        }
        let (start, len) = Self::block_of(self.n, self.threads, rank);
        if len == 0 {
            None
        } else {
            Some((start, len))
        }
    }

    fn len(&self) -> usize {
        self.n
    }
}

/// `schedule(static, k)`: chunk `i` (of size `k`) goes to rank
/// `i % threads`, so rank `r` serves chunks `r, r+P, r+2P, ...`.
pub struct StaticCyclic {
    n: usize,
    threads: usize,
    k: usize,
    /// Per-rank next chunk index. counter-only: each slot is
    /// rank-private and the index is the entire payload.
    cursor: Vec<AtomicUsize>,
}

impl StaticCyclic {
    /// Creates the dispenser; `k` is clamped to `1..=max(n, 1)`.
    pub fn new(n: usize, threads: usize, k: usize) -> Self {
        StaticCyclic {
            n,
            threads,
            k: clamp_chunk(k, n),
            cursor: (0..threads).map(AtomicUsize::new).collect(),
        }
    }
}

impl Dispenser for StaticCyclic {
    fn next(&self, rank: usize) -> Option<(usize, usize)> {
        if rank >= self.threads {
            return None;
        }
        // ORDERING: counter-only, and rank-private by the calling
        // protocol: the cursor is just this rank's index generator and
        // chunk bounds derive from immutable fields, so nothing
        // synchronizes on the load or the store. The cursor only moves
        // while the rank still has a chunk, and saturates, so no number
        // of further calls can wrap it back onto granted work.
        let chunk = self.cursor[rank].load(Ordering::Relaxed);
        let start = chunk.checked_mul(self.k).filter(|&s| s < self.n)?;
        self.cursor[rank].store(chunk.saturating_add(self.threads), Ordering::Relaxed);
        Some((start, self.k.min(self.n - start)))
    }

    fn len(&self) -> usize {
        self.n
    }
}

/// The shared cursor of `dynamic` and `guided`, alone on its cache lines
/// (128 bytes: the adjacent-line prefetcher pairs them): every claim
/// moves the line between cores, which must not drag `n` and `k` along.
/// counter-only: the monotone index is the entire payload; chunk
/// ownership comes from the CAS's atomicity alone.
#[repr(align(128))]
#[derive(Default)]
struct Cursor(AtomicUsize);

/// One claim on a shared monotone cursor over `0..n`: `size(remaining)`
/// iterations from the front of what is left (clipped to it), or `None`
/// once nothing is. The step `dynamic` and `guided` share; they differ
/// only in `size`.
///
/// The cursor never passes `n`: an exhausted dispenser is answered from
/// the load alone, and a claim is clipped before it is published, so no
/// chunk size and no number of calls can wrap it.
fn claim(
    cursor: &Cursor,
    n: usize,
    size: impl Fn(usize) -> usize,
) -> Option<(usize, usize)> {
    // ORDERING: counter-only. The cursor is a pure index allocator; no
    // other memory is published through it.
    let cursor = &cursor.0;
    let mut cur = cursor.load(Ordering::Relaxed);
    loop {
        if cur >= n {
            return None;
        }
        let remaining = n - cur;
        let len = size(remaining).clamp(1, remaining);
        // ORDERING: counter-only. A successful CAS atomically claims
        // `[cur, cur+len)`; the claim itself is the whole payload, so
        // Relaxed on success and failure both suffice.
        match cursor.compare_exchange_weak(cur, cur + len, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some((cur, len)),
            Err(seen) => cur = seen,
        }
    }
}

/// A `dynamic` loop of at most `CLASSIC_CHUNKS · P` chunks is dispensed
/// one chunk per claim, exactly as libgomp does: every loop the figures
/// draw tile by tile (Fig. 4b, Fig. 8, the ablation cells) is of that
/// size, so what they show is the textbook policy.
const CLASSIC_CHUNKS: usize = 256;

/// On a longer loop one [`DynamicChunks`] claim takes `1/(CLAIM_SHARE · P)`
/// of what is left, so no rank ever holds more than that share of the
/// work that remained when it claimed; `guided`'s share is `1/(2 P)`.
const CLAIM_SHARE: usize = 16;

/// `schedule(dynamic, k)`: a single atomic cursor; idle ranks grab the
/// next chunks of `k` iterations — "the opportunistic nature of the
/// dynamic clause" (Fig. 4b).
///
/// A loop of at most `256 P` chunks is first come, first served one
/// chunk per claim — the `(i k, k)` sequence of libgomp. On a longer
/// loop one claim takes `max(k, ⌊remaining / (16 P) / k⌋ · k)`
/// iterations and returns them as *one* chunk: many chunks for one trip
/// of the cursor's cache line between cores while plenty is left,
/// exactly `k` over the last `16 P` chunks.
pub struct DynamicChunks {
    n: usize,
    k: usize,
    /// `16 · P · k` on a loop above the classic threshold; `usize::MAX`
    /// on a classic one, which therefore never sizes a claim above `k`.
    share: usize,
    cursor: Cursor,
}

impl DynamicChunks {
    /// Creates the dispenser; `k` is clamped to `1..=max(n, 1)` and
    /// `threads` to at least 1.
    pub fn new(n: usize, threads: usize, k: usize) -> Self {
        let k = clamp_chunk(k, n);
        let per_rank = threads.max(1).saturating_mul(k);
        let share = if n > CLASSIC_CHUNKS.saturating_mul(per_rank) {
            CLAIM_SHARE.saturating_mul(per_rank)
        } else {
            usize::MAX
        };
        DynamicChunks { n, k, share, cursor: Cursor::default() }
    }
}

impl Dispenser for DynamicChunks {
    fn next(&self, _rank: usize) -> Option<(usize, usize)> {
        // ⌊⌊r / 16P⌋ / k⌋ = ⌊r / (16 P k)⌋: one division per claim.
        claim(&self.cursor, self.n, |remaining| {
            (remaining / self.share).saturating_mul(self.k).max(self.k)
        })
    }

    fn len(&self) -> usize {
        self.n
    }
}

/// `schedule(guided, k)`: each grab takes `max(remaining / (2 P), k)`
/// iterations, so "the size of chunks assigned to threads decreases over
/// time" (Fig. 4d).
pub struct GuidedChunks {
    n: usize,
    threads: usize,
    k: usize,
    cursor: Cursor,
}

impl GuidedChunks {
    /// Creates the dispenser; `k` is clamped to `1..=max(n, 1)` and
    /// `threads` to at least 1 (a `threads == 0` caller would otherwise
    /// divide by zero in the chunk-size formula).
    pub fn new(n: usize, threads: usize, k: usize) -> Self {
        GuidedChunks {
            n,
            threads: threads.max(1),
            k: clamp_chunk(k, n),
            cursor: Cursor::default(),
        }
    }
}

impl Dispenser for GuidedChunks {
    fn next(&self, _rank: usize) -> Option<(usize, usize)> {
        claim(&self.cursor, self.n, |remaining| {
            remaining.div_ceil(2 * self.threads).max(self.k)
        })
    }

    fn len(&self) -> usize {
        self.n
    }
}

/// `schedule(nonmonotonic:dynamic)`: the OpenMP 5 behaviour the paper
/// singles out (Fig. 4c) — an initial static distribution corrected by
/// work stealing. Each rank owns a range `[lo, hi)`; the owner takes `k`
/// iterations from the front, thieves split half of the largest victim's
/// remaining range from the back (preserving the "static at first,
/// stolen later" visual pattern and the locality the paper praises in
/// §III-B).
///
/// ## Lock-free protocol and the no-double-grant argument
///
/// Each rank's *stealable* range lives in one padded `AtomicU64` packing
/// `hi << 32 | lo`, so a single CAS moves either bound atomically with
/// respect to the other:
///
/// * the **owner** advances `lo` by up to `k` (front of the range);
/// * a **thief** retreats `hi` by half the remainder (back of the range).
///
/// Both are strictly monotone — `lo` only grows, `hi` only shrinks, and
/// a stolen interval is *never* written back into any shared word — so
/// no packed word can ever repeat a bit pattern. That rules out ABA by
/// construction: a CAS succeeds only against the state it read, and
/// every successful CAS detaches a half-open interval disjoint from
/// everything detached before. (An earlier design reinstalled stolen
/// ranges into the thief's shared slot; a CAS port of *that* has a real
/// ABA double-grant when an interval travels through a steal chain back
/// to identical bounds. The monotone design makes the hazard
/// unrepresentable instead of merely unlikely.)
///
/// What a thief steals goes into its own **private remainder** — a
/// padded `(lo, hi)` pair of plain atomics written only by that rank
/// and invisible to other thieves. The [`Dispenser`] rank-serial
/// calling protocol makes that single-writer discipline structural;
/// because the slots are atomics (not `UnsafeCell`), violating the
/// protocol would be a logic error, never memory unsafety.
pub struct StealingDispenser {
    n: usize,
    k: usize,
    /// Per-rank stealable ranges as packed `hi << 32 | lo` words.
    ranges: Vec<RangeWord>,
    /// Per-rank private remainders (stolen intervals being drained).
    remainders: Vec<Remainder>,
    /// Per-rank steal counters; each rank only writes its own slot.
    stats: Vec<StealSlot>,
}

/// A padded packed-range word (`hi << 32 | lo`).
#[repr(align(128))]
struct RangeWord(AtomicU64);

impl RangeWord {
    fn pack(lo: usize, hi: usize) -> u64 {
        ((hi as u64) << 32) | lo as u64
    }

    fn unpack(w: u64) -> (usize, usize) {
        ((w & 0xFFFF_FFFF) as usize, (w >> 32) as usize)
    }
}

/// A rank-private stolen interval, drained front-first by its owner.
/// Single-writer by the rank-serial protocol; atomics only so that a
/// protocol violation stays a logic error. Both fields are
/// synchronizing via the spine, not locally (via-the-spine): the
/// rank-serial protocol orders every access, so `Relaxed` suffices.
#[repr(align(128))]
#[derive(Default)]
struct Remainder {
    lo: AtomicUsize,
    hi: AtomicUsize,
}

/// Padded per-rank steal counters (owner-writes-only, like the monitor's
/// worker slots). Both fields are counter-only: statistics whose value
/// is the entire payload.
#[repr(align(128))]
#[derive(Default)]
struct StealSlot {
    attempted: AtomicU64,
    succeeded: AtomicU64,
}

impl StealingDispenser {
    /// Creates the dispenser; `k` is clamped to `1..=max(n, 1)`.
    ///
    /// # Panics
    ///
    /// Panics when `n` does not fit the 32-bit halves of the packed
    /// range words (`n > u32::MAX`) — far beyond any real iteration
    /// space a 2D image loop produces.
    pub fn new(n: usize, threads: usize, k: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "StealingDispenser supports at most u32::MAX iterations (got {n})"
        );
        let ranges = (0..threads)
            .map(|r| {
                let (start, len) = StaticBlock::block_of(n, threads, r);
                RangeWord(AtomicU64::new(RangeWord::pack(start, start + len)))
            })
            .collect();
        StealingDispenser {
            n,
            k: clamp_chunk(k, n),
            ranges,
            remainders: (0..threads).map(|_| Remainder::default()).collect(),
            stats: (0..threads).map(|_| StealSlot::default()).collect(),
        }
    }

    /// Takes up to `k` iterations from the front of `rank`'s stealable
    /// range (CAS loop against thieves shrinking `hi`), falling back to
    /// the rank's private remainder.
    fn take_local(&self, rank: usize) -> Option<(usize, usize)> {
        let word = &self.ranges[rank].0;
        let mut w = word.load(Ordering::SeqCst);
        loop {
            let (lo, hi) = RangeWord::unpack(w);
            if lo >= hi {
                break;
            }
            let len = self.k.min(hi - lo);
            match word.compare_exchange_weak(
                w,
                RangeWord::pack(lo + len, hi),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some((lo, len)),
                Err(seen) => w = seen,
            }
        }
        // Shared range drained; serve the private remainder (plain
        // single-writer reads/writes — no CAS needed).
        // ORDERING: counter-only (rank-private). The remainder slots are
        // written and read only by this rank (the Dispenser rank-serial
        // protocol), so every Relaxed load sees the rank's own last
        // store; no cross-thread edge exists to order.
        let lo = self.remainders[rank].lo.load(Ordering::Relaxed);
        let hi = self.remainders[rank].hi.load(Ordering::Relaxed);
        if lo >= hi {
            return None;
        }
        let len = self.k.min(hi - lo);
        self.remainders[rank].lo.store(lo + len, Ordering::Relaxed);
        Some((lo, len))
    }

    /// Steals half of the largest victim's stealable remainder into
    /// `rank`'s private remainder, then serves from it.
    fn steal(&self, rank: usize) -> Option<(usize, usize)> {
        // ORDERING: counter-only here; the later Release increment of
        // `succeeded` is what publishes this attempt to stats readers
        // (see `steal_stats` for the pairing).
        self.stats[rank].attempted.fetch_add(1, Ordering::Relaxed);
        loop {
            // Pick the victim with the most stealable work left.
            let mut victim = None;
            let mut best = 0;
            for v in (0..self.ranges.len()).filter(|&v| v != rank) {
                let (lo, hi) = RangeWord::unpack(self.ranges[v].0.load(Ordering::SeqCst));
                let avail = hi.saturating_sub(lo);
                if avail > best {
                    best = avail;
                    victim = Some(v);
                }
            }
            // Nothing stealable anywhere: done. (Private remainders are
            // not stealable — their owners will drain them.)
            let victim = victim?;
            let word = &self.ranges[victim].0;
            let w = word.load(Ordering::SeqCst);
            let (lo, hi) = RangeWord::unpack(w);
            let avail = hi.saturating_sub(lo);
            if avail == 0 {
                // Drained between the scan and the re-read; rescan.
                continue;
            }
            let take = (avail / 2).max(1);
            let start = hi - take;
            if word
                .compare_exchange(
                    w,
                    RangeWord::pack(lo, start),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                // Lost the race (owner advanced or another thief shrank);
                // rescan — every CAS failure means someone else made
                // progress, so this loop is lock-free.
                continue;
            }
            // [start, hi) is now detached: no shared word contains it and
            // it can never re-enter one. Park it in our private slot.
            // ORDERING: counter-only (rank-private slots, same argument
            // as in `take_local` — only this rank touches them).
            debug_assert!(
                self.remainders[rank].lo.load(Ordering::Relaxed)
                    >= self.remainders[rank].hi.load(Ordering::Relaxed),
                "stealing with private work left"
            );
            self.remainders[rank].lo.store(start, Ordering::Relaxed);
            self.remainders[rank].hi.store(hi, Ordering::Relaxed);
            // ORDERING: synchronizing. Release-publish the success
            // *after* the attempt increment (program order) so a stats
            // reader that Acquire-loads this count also sees the
            // matching attempt — the attempted >= succeeded invariant.
            self.stats[rank].succeeded.fetch_add(1, Ordering::Release);
            return self.take_local(rank);
        }
    }
}

impl Dispenser for StealingDispenser {
    fn next(&self, rank: usize) -> Option<(usize, usize)> {
        if rank >= self.ranges.len() {
            return None;
        }
        self.take_local(rank).or_else(|| self.steal(rank))
    }

    fn len(&self) -> usize {
        self.n
    }

    fn steal_stats(&self) -> Option<Vec<StealStats>> {
        Some(
            self.stats
                .iter()
                .map(|s| {
                    // ORDERING: synchronizing (coherent mid-flight
                    // snapshot). Load `succeeded` first — Acquire, pairing
                    // with the Release increment in `steal` — then
                    // `attempted` (Relaxed: its visibility rides the same
                    // pair). Every success counted was preceded by its
                    // attempt increment in the writer's program order, so
                    // attempted >= succeeded holds in every report, even
                    // one racing the steal path.
                    let succeeded = s.succeeded.load(Ordering::Acquire);
                    let attempted = s.attempted.load(Ordering::Relaxed);
                    StealStats {
                        attempted,
                        succeeded,
                    }
                })
                .collect(),
        )
    }
}

/// Drains a dispenser from a single rank, for tests and the simulator.
pub fn drain_rank(d: &dyn Dispenser, rank: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    while let Some(c) = d.next(rank) {
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use std::collections::BTreeSet;

    /// Exhausts a dispenser from `threads` ranks round-robin (serial but
    /// interleaved), returning every index handed out.
    fn drain_interleaved(d: &dyn Dispenser, threads: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut live: Vec<usize> = (0..threads).collect();
        while !live.is_empty() {
            live.retain(|&rank| match d.next(rank) {
                Some((start, len)) => {
                    out.extend(start..start + len);
                    true
                }
                None => false,
            });
        }
        out
    }

    fn assert_exact_cover(indices: &[usize], n: usize) {
        assert_eq!(indices.len(), n, "wrong number of iterations handed out");
        let set: BTreeSet<usize> = indices.iter().copied().collect();
        assert_eq!(set.len(), n, "duplicate iterations");
        assert_eq!(set.iter().next_back().copied(), n.checked_sub(1));
    }

    #[test]
    fn static_blocks_are_contiguous_and_even() {
        let d = StaticBlock::new(10, 3);
        assert_eq!(d.next(0), Some((0, 4)));
        assert_eq!(d.next(1), Some((4, 3)));
        assert_eq!(d.next(2), Some((7, 3)));
        assert_eq!(d.next(0), None);
        assert_eq!(d.next(5), None); // out-of-range rank
    }

    #[test]
    fn static_handles_more_threads_than_work() {
        let d = StaticBlock::new(2, 5);
        let got = drain_interleaved(&d, 5);
        assert_exact_cover(&got, 2);
    }

    #[test]
    fn static_cyclic_round_robins() {
        let d = StaticCyclic::new(12, 2, 2); // chunks: 0..2,2..4,...
        assert_eq!(d.next(0), Some((0, 2)));
        assert_eq!(d.next(1), Some((2, 2)));
        assert_eq!(d.next(0), Some((4, 2)));
        assert_eq!(d.next(1), Some((6, 2)));
        assert_eq!(d.next(0), Some((8, 2)));
        assert_eq!(d.next(1), Some((10, 2)));
        assert_eq!(d.next(0), None);
        assert_eq!(d.next(1), None);
    }

    #[test]
    fn dynamic_is_first_come_first_served() {
        let d = DynamicChunks::new(5, 2, 2);
        assert_eq!(d.next(1), Some((0, 2)));
        assert_eq!(d.next(0), Some((2, 2)));
        assert_eq!(d.next(1), Some((4, 1))); // last partial chunk
        assert_eq!(d.next(0), None);
    }

    #[test]
    fn dynamic_claims_taper_to_single_chunks() {
        // 16 384 units on 2 ranks, above the classic 256·P = 512: the
        // first claim is 16384/(16·P) = 512 chunks, sizes only shrink,
        // and at least the last 16·P = 32 claims are one chunk each
        let d = DynamicChunks::new(16_384, 2, 1);
        let chunks = drain_rank(&d, 0);
        assert_eq!(chunks[0], (0, 512));
        assert!(chunks.windows(2).all(|w| w[0].1 >= w[1].1), "claims grew");
        let singles = chunks.iter().rev().take_while(|&&(_, len)| len == 1).count();
        assert!((32..64).contains(&singles), "{singles} single-chunk claims at the tail");
        // ≈ 16·P·(1 + ln(n / 16·P)) = 32 · 7.2
        assert!((200..=260).contains(&chunks.len()), "{} claims", chunks.len());
    }

    #[test]
    fn hostile_chunk_sizes_cover_exactly_once_and_stay_exhausted() {
        // `--schedule dynamic,9223372036854775808` used to wrap the
        // cursor to 0 on the third fetch_add (every tile granted twice);
        // `static,<same>` wrapped `chunk * k` to 0 and re-granted chunk
        // 0 to rank 0 forever.
        // n = 64 is a classic loop for every k; 2 000 is above the
        // threshold for k = 1 and 0 (clamped to 1), where the geometric
        // sizing runs, and a 1-tile grid is the other edge
        let threads = 2;
        let top = 1 << (usize::BITS - 1);
        for n in [1, 64, 2_000] {
            for k in [0, 1, usize::MAX, top, top + 1] {
                for sched in [
                    Schedule::Static,
                    Schedule::StaticChunk(k),
                    Schedule::Dynamic(k),
                    Schedule::Guided(k),
                    Schedule::NonmonotonicDynamic(k),
                ] {
                    let d = dispenser_for(sched, n, threads);
                    // an index at or past `n` would break the cover too
                    let got = drain_interleaved(&*d, threads);
                    assert_exact_cover(&got, n);
                    for call in 0..6 {
                        for rank in 0..threads {
                            assert_eq!(d.next(rank), None, "{sched:?}: call {call} after exhaustion");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn guided_chunks_shrink_and_respect_min() {
        let d = GuidedChunks::new(1000, 4, 5);
        let chunks = drain_rank(&d, 0);
        let sizes: Vec<usize> = chunks.iter().map(|&(_, l)| l).collect();
        // non-increasing
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "guided chunks grew: {sizes:?}");
        }
        // first chunk is remaining/(2P) = 125
        assert_eq!(sizes[0], 125);
        // all chunks (except possibly the last) >= k
        for &s in &sizes[..sizes.len() - 1] {
            assert!(s >= 5);
        }
        assert_exact_cover(&drain_interleaved(&GuidedChunks::new(1000, 4, 5), 4), 1000);
    }

    #[test]
    fn stealing_starts_static_then_steals() {
        let d = StealingDispenser::new(8, 2, 1);
        // rank 1 drains its own half first
        let own: Vec<_> = (0..4).map(|_| d.next(1).unwrap()).collect();
        assert_eq!(own, vec![(4, 1), (5, 1), (6, 1), (7, 1)]);
        // now rank 1 must steal from rank 0's untouched block [0,4):
        // steals the back half [2,4)
        assert_eq!(d.next(1), Some((2, 1)));
        assert_eq!(d.next(1), Some((3, 1)));
        // rank 0 still owns [0,2)
        assert_eq!(d.next(0), Some((0, 1)));
        assert_eq!(d.next(0), Some((1, 1)));
        assert_eq!(d.next(0), None);
        assert_eq!(d.next(1), None);
    }

    #[test]
    fn steal_counters_track_the_static_then_steal_scenario() {
        // same interleaving as `stealing_starts_static_then_steals`,
        // checking the counters it should leave behind
        let d = StealingDispenser::new(8, 2, 1);
        for _ in 0..4 {
            d.next(1).unwrap(); // rank 1 drains its own half
        }
        assert_eq!(d.next(1), Some((2, 1))); // attempt #1: succeeds
        assert_eq!(d.next(1), Some((3, 1))); // local, no steal
        assert_eq!(d.next(0), Some((0, 1)));
        assert_eq!(d.next(0), Some((1, 1)));
        assert_eq!(d.next(0), None); // rank 0 attempt: nothing left
        assert_eq!(d.next(1), None); // rank 1 attempt #2: nothing left
        let stats = d.steal_stats().unwrap();
        assert_eq!(stats[1], StealStats { attempted: 2, succeeded: 1 });
        assert_eq!(stats[0], StealStats { attempted: 1, succeeded: 0 });
    }

    #[test]
    fn guided_with_zero_threads_does_not_divide_by_zero() {
        // direct construction with threads == 0 must clamp, not panic
        let d = GuidedChunks::new(100, 0, 4);
        let got = drain_interleaved(&d, 1);
        assert_exact_cover(&got, 100);
        // and the empty space stays empty
        assert_eq!(GuidedChunks::new(0, 0, 1).next(0), None);
    }

    #[test]
    fn steal_stats_never_report_more_successes_than_attempts() {
        // S3 regression: sample the stats *while* ranks are draining
        // through the steal path; every snapshot, per rank, must satisfy
        // attempted >= succeeded (the release/acquire pairing on the
        // succeeded counter).
        for round in 0..10 {
            let threads = 4;
            let n = 64 + round;
            let d = StealingDispenser::new(n, threads, 1);
            let stop = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|rank| {
                        let d = &d;
                        s.spawn(move || while d.next(rank).is_some() {})
                    })
                    .collect();
                let d = &d;
                let stop = &stop;
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        for (rank, st) in d.steal_stats().unwrap().iter().enumerate() {
                            assert!(
                                st.attempted >= st.succeeded,
                                "rank {rank}: mid-flight report shows {} successes \
                                 but only {} attempts",
                                st.succeeded,
                                st.attempted
                            );
                        }
                    }
                });
                // let the sampler race the drain; release it once the
                // workers are done
                for w in workers {
                    w.join().unwrap();
                }
                stop.store(1, Ordering::Relaxed);
            });
            // final report still satisfies the invariant and counts
            // at least one attempt somewhere (k=1 forces steal traffic
            // unless the interleaving drained everything locally)
            for st in d.steal_stats().unwrap() {
                assert!(st.attempted >= st.succeeded);
            }
        }
    }

    #[test]
    fn stealing_rejects_oversized_spaces() {
        // the packed-word representation caps n at u32::MAX; make sure
        // the constructor says so instead of silently corrupting ranges
        if usize::BITS > 32 {
            let res = std::panic::catch_unwind(|| {
                StealingDispenser::new(u32::MAX as usize + 1, 2, 1)
            });
            assert!(res.is_err());
        }
    }

    #[test]
    fn only_the_stealing_policy_reports_steal_stats() {
        assert!(StaticBlock::new(8, 2).steal_stats().is_none());
        assert!(StaticCyclic::new(8, 2, 1).steal_stats().is_none());
        assert!(DynamicChunks::new(8, 2, 1).steal_stats().is_none());
        assert!(GuidedChunks::new(8, 2, 1).steal_stats().is_none());
    }

    #[test]
    fn empty_space_yields_nothing() {
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(2),
            Schedule::Dynamic(2),
            Schedule::Guided(2),
            Schedule::NonmonotonicDynamic(2),
        ] {
            let d = dispenser_for(sched, 0, 3);
            assert!(d.is_empty());
            for rank in 0..3 {
                assert_eq!(d.next(rank), None, "{sched:?}");
            }
        }
    }

    #[test]
    fn concurrent_exact_cover_all_policies() {
        // the real-threads version of the coverage invariant
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(2),
            Schedule::Guided(1),
            Schedule::NonmonotonicDynamic(2),
        ] {
            let threads = 4;
            let n = 1017;
            let d = dispenser_for(sched, n, threads);
            let d_ref: &dyn Dispenser = &*d;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|s| {
                for rank in 0..threads {
                    let hits = &hits;
                    let d_ref = &d_ref;
                    s.spawn(move || {
                        while let Some((start, len)) = d_ref.next(rank) {
                            for h in hits.iter().skip(start).take(len) {
                                h.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "{sched:?}: iteration {i} handed out a wrong number of times"
                );
            }
        }
    }

    #[test]
    fn steal_contention_never_double_grants() {
        // Regression pin for the steal + local-pop audit: tiny per-rank
        // blocks and k=1 force nearly every `next` through the steal
        // path, with all ranks racing to shrink each other's ranges.
        // Every index must still come out exactly once.
        for round in 0..20 {
            let threads = 4;
            let n = 4 * threads + round % 3; // a handful of indices per rank
            let d = StealingDispenser::new(n, threads, 1);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|s| {
                for rank in 0..threads {
                    let d = &d;
                    let hits = &hits;
                    s.spawn(move || {
                        while let Some((start, len)) = d.next(rank) {
                            for h in hits.iter().skip(start).take(len) {
                                h.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "round {round}: index {i} granted a wrong number of times"
                );
            }
        }
    }

    ezp_proptest! {
        fn prop_exact_cover(
            n in 0usize..500,
            threads in 1usize..9,
            k in 1usize..8,
            which in 0usize..5,
        ) {
            let sched = match which {
                0 => Schedule::Static,
                1 => Schedule::StaticChunk(k),
                2 => Schedule::Dynamic(k),
                3 => Schedule::Guided(k),
                _ => Schedule::NonmonotonicDynamic(k),
            };
            let d = dispenser_for(sched, n, threads);
            let got = drain_interleaved(&*d, threads);
            assert_exact_cover(&got, n);
        }

        fn prop_dynamic_claims_are_k_multiples_within_the_hoarding_bound(
            n in 0usize..200_000,
            threads in 1usize..9,
            k in 1usize..8,
        ) {
            let d = DynamicChunks::new(n, threads, k);
            let chunks = drain_rank(&d, 0);
            let mut next_start = 0;
            for (i, &(start, len)) in chunks.iter().enumerate() {
                assert_eq!(start, next_start, "claims are contiguous, in order");
                let remaining = n - start;
                assert!(len <= k.max(remaining / (CLAIM_SHARE * threads)), "claim {i} hoards {len} of {remaining}");
                if i + 1 < chunks.len() {
                    assert_eq!(len % k, 0, "claim {i} splits a chunk");
                }
                if remaining <= CLAIM_SHARE * threads * k {
                    assert_eq!(len, k.min(remaining), "claim {i}: the last 16·P chunks go singly");
                }
                next_start = start + len;
            }
            assert_eq!(next_start, n);
            let shared = DynamicChunks::new(n, threads, k);
            assert_exact_cover(&drain_interleaved(&shared, threads), n);
        }

        fn prop_dynamic_is_classic_below_the_taper_threshold(
            chunks in 0usize..=CLASSIC_CHUNKS,
            threads in 1usize..9,
            k in 1usize..8,
            ragged in 0usize..8,
        ) {
            // n <= 256·P·k: the `(i·k, k)` sequence of one chunk per
            // claim, which is what keeps results/ still
            let n = (chunks * threads * k).saturating_sub(ragged % k);
            let d = DynamicChunks::new(n, threads, k);
            let got = drain_rank(&d, 0);
            let want: Vec<(usize, usize)> =
                (0..n.div_ceil(k)).map(|i| (i * k, k.min(n - i * k))).collect();
            assert_eq!(got, want);
        }

        fn prop_guided_non_increasing(n in 1usize..2000, threads in 1usize..9, k in 1usize..6) {
            let d = GuidedChunks::new(n, threads, k);
            let sizes: Vec<usize> = drain_rank(&d, 0).iter().map(|&(_, l)| l).collect();
            for w in sizes.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }

        fn prop_static_block_partition(n in 0usize..10_000, threads in 1usize..17) {
            let mut total = 0;
            let mut next_start = 0;
            for rank in 0..threads {
                let (start, len) = StaticBlock::block_of(n, threads, rank);
                assert_eq!(start, next_start);
                next_start = start + len;
                total += len;
            }
            assert_eq!(total, n);
        }
    }
}
