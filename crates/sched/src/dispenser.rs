//! OpenMP loop-scheduling policies as one concurrent chunk dispenser.
//!
//! A [`Dispenser`] hands out chunks `(start, len)` of a linear iteration
//! space `0..n` to worker ranks until exhaustion. One instance serves one
//! `parallel for`. The five `schedule(...)` clauses the paper's Fig. 4
//! visualizes are three sources of chunks, each lock-free:
//!
//! | `Schedule` | source | claim rule | steals? |
//! |---|---|---|---|
//! | `static` | per-rank range word, seeded with the rank's block | the whole block, once | no |
//! | `nonmonotonic:dynamic,k` | per-rank range word, seeded with the rank's block | `k` from the front of its own range | half of the largest other range, from its back |
//! | `static,k` | per-rank cyclic cursor | chunks `r, r+P, r+2P, …` of `k` | no |
//! | `dynamic,k` | shared padded cursor | `k`; above `256 P` chunks, `max(k, ⌊rem/(16 P)/k⌋·k)` | no |
//! | `guided,k` | shared padded cursor | `max(k, ⌈rem/(2 P)⌉)` | no |
//!
//! `nonmonotonic:dynamic` is the OpenMP 5 behaviour the paper singles out
//! (Fig. 4c): "tiles are first distributed in a static manner, but
//! work-stealing is eventually used to correct load imbalance" (§II-B).
//! Thieves take from the back of a range and owners from its front, which
//! keeps the "static at first, stolen later" pattern and the locality the
//! paper praises in §III-B.
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
//! ## Range words and the no-double-grant argument
//!
//! Each rank's unclaimed range lives in one padded `AtomicU64` packing
//! `hi << 32 | lo`, so a single CAS moves either bound atomically with
//! respect to the other:
//!
//! * the **owner** advances `lo` by up to `k` (the front of the range);
//! * a **thief** retreats `hi` by half the range (its back), then
//!   **publishes** the stolen half `[start, hi)` in its own word, which
//!   it has just seen empty, so later thieves can split that half again.
//!
//! Three facts make every index come out exactly once:
//!
//! * every unclaimed index lives in exactly one range word, or in one
//!   chunk (or stolen half) in flight in one thread's hands;
//! * a CAS computes its successor from the expected word alone, so even
//!   after an A→B→A history of a word, a CAS that succeeds detaches only
//!   indices the word holds at that moment;
//! * a thief CASes only a non-empty word it has read. The owner publishes
//!   with a `SeqCst` store onto its own empty word, which no thief
//!   therefore CASes: no concurrent update is overwritten.
//!
//! The packed halves cap `n` at `u32::MAX` for `static` and
//! `nonmonotonic:dynamic` (the constructor panics beyond it). The largest
//! loop the CLI can build is an 8192² image of one-pixel tiles, ≈67 M.
//!
//! ## Hostile chunk sizes
//!
//! `k` comes from the command line. The constructor clamps it to
//! `1..=max(n, 1)`, no cursor is ever moved past `n` (an exhausted
//! dispenser answers `None` without a read-modify-write, however often
//! it is asked), and index arithmetic that could still leave `usize`
//! is checked.

// No lock type, hash-seeded collection or wall clock outside tests:
// the list is `clippy.toml` (docs/static-analysis.md).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use ezp_core::Schedule;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A concurrent source of chunks over `0..n` for one `schedule`.
///
/// Every index is handed out exactly once, whatever the interleaving of
/// `next` calls *across ranks* — the invariant the property tests in
/// this module (and the adversarial `ezp-check` schedules in `vexec`)
/// pin down.
///
/// **Calling protocol**: at most one thread serves a given rank at a
/// time. [`WorkerPool`](crate::WorkerPool) guarantees this structurally
/// (one thread per rank). The stealing policy relies on it: a thief
/// publishes onto its own word with a plain store, and the cyclic cursor
/// of `static,k` is rank-private. Calls with distinct ranks may race
/// freely. Because every slot is an atomic, violating the protocol would
/// be a logic error, never memory unsafety.
///
/// One instance serves one consumer generation — a single `parallel for`
/// drained to exhaustion — and is then dropped; every region builds a
/// fresh one.
pub struct Dispenser {
    n: usize,
    /// The chunk size, clamped to `1..=max(n, 1)`; `n` for `static`,
    /// whose one claim is the whole block.
    k: usize,
    source: Source,
}

/// Where chunks come from (module doc, table).
enum Source {
    /// `static` and `nonmonotonic:dynamic`: each rank's unclaimed range.
    /// `thieves` holds each rank's steal counters; `None` for `static`,
    /// which never steals.
    Ranges {
        words: Vec<RangeWord>,
        thieves: Option<Vec<StealCounters>>,
    },
    /// `static,k`: each rank's next chunk index (`r, r+P, r+2P, …`).
    /// counter-only: each slot is rank-private and the index is the
    /// entire payload.
    Cyclic(Vec<AtomicUsize>),
    /// `dynamic,k` and `guided,k`: one cursor every rank claims from.
    Shared { cursor: Cursor, rule: SizeRule },
}

/// How big a claim on the shared cursor is, given what is left.
enum SizeRule {
    /// `16 · P · k` on a loop above the classic threshold; `usize::MAX`
    /// on a classic one, which therefore never sizes a claim above `k`.
    Dynamic { share: usize },
    /// `2 P`: each claim takes `⌈remaining / (2 P)⌉`.
    Guided { halves: usize },
}

impl SizeRule {
    fn size(&self, remaining: usize, k: usize) -> usize {
        match *self {
            // ⌊⌊r / 16P⌋ / k⌋ = ⌊r / (16 P k)⌋: one division per claim.
            SizeRule::Dynamic { share } => (remaining / share).saturating_mul(k).max(k),
            SizeRule::Guided { halves } => remaining.div_ceil(halves).max(k),
        }
    }
}

/// A `dynamic` loop of at most `CLASSIC_CHUNKS · P` chunks is dispensed
/// one chunk per claim, exactly as libgomp does: every loop the figures
/// draw tile by tile (Fig. 4b, Fig. 8, the ablation cells) is of that
/// size, so what they show is the textbook policy.
const CLASSIC_CHUNKS: usize = 256;

/// On a longer loop one `dynamic` claim takes `1/(CLAIM_SHARE · P)` of
/// what is left, so no rank ever holds more than that share of the work
/// that remained when it claimed; `guided`'s share is `1/(2 P)`.
const CLAIM_SHARE: usize = 16;

impl Dispenser {
    /// The dispenser implementing `schedule` for `n` iterations and
    /// `threads` ranks.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`, and for `static` and
    /// `nonmonotonic:dynamic` when `n > u32::MAX` (module doc).
    pub fn new(schedule: Schedule, n: usize, threads: usize) -> Self {
        assert!(threads > 0, "dispenser needs at least one rank");
        let (k, source) = match schedule {
            Schedule::Static => (n, Source::ranges(n, threads, false)),
            Schedule::NonmonotonicDynamic(k) => (k, Source::ranges(n, threads, true)),
            Schedule::StaticChunk(k) => (
                k,
                Source::Cyclic((0..threads).map(AtomicUsize::new).collect()),
            ),
            Schedule::Dynamic(k) => {
                let per_rank = threads.saturating_mul(clamp_chunk(k, n));
                let share = if n > CLASSIC_CHUNKS.saturating_mul(per_rank) {
                    CLAIM_SHARE.saturating_mul(per_rank)
                } else {
                    usize::MAX
                };
                (k, Source::shared(SizeRule::Dynamic { share }))
            }
            Schedule::Guided(k) => (
                k,
                Source::shared(SizeRule::Guided {
                    halves: 2 * threads,
                }),
            ),
        };
        Dispenser {
            n,
            k: clamp_chunk(k, n),
            source,
        }
    }

    /// Next chunk for `rank`, as `(start, len)` with `len > 0`, or `None`
    /// when no work is left for this rank.
    pub fn next(&self, rank: usize) -> Option<(usize, usize)> {
        match &self.source {
            Source::Ranges { words, thieves } => {
                words.get(rank)?.take_front(self.k).or_else(|| {
                    let own = thieves.as_ref()?.get(rank)?;
                    steal(words, own, rank, self.k)
                })
            }
            Source::Cyclic(cursors) => {
                let cursor = cursors.get(rank)?;
                // ORDERING: counter-only, and rank-private by the calling
                // protocol: the cursor is just this rank's index generator
                // and chunk bounds derive from immutable fields, so nothing
                // synchronizes on the load or the store. The cursor only
                // moves while the rank still has a chunk, and saturates, so
                // no number of further calls can wrap it back onto granted
                // work.
                let chunk = cursor.load(Ordering::Relaxed);
                let start = chunk.checked_mul(self.k).filter(|&s| s < self.n)?;
                cursor.store(chunk.saturating_add(cursors.len()), Ordering::Relaxed);
                Some((start, self.k.min(self.n - start)))
            }
            Source::Shared { cursor, rule } => {
                claim(cursor, self.n, |remaining| rule.size(remaining, self.k))
            }
        }
    }

    /// `(attempted, succeeded)` steals of `rank` so far: how often its
    /// own range was empty, and how often a victim then yielded work.
    /// Only `rank` itself may ask (the rank-serial protocol above), so
    /// the count is always that thread's own. `(0, 0)` for policies
    /// without stealing.
    pub fn steals(&self, rank: usize) -> (u64, u64) {
        let Source::Ranges {
            thieves: Some(thieves),
            ..
        } = &self.source
        else {
            return (0, 0);
        };
        thieves.get(rank).map_or((0, 0), |own| {
            // ORDERING: counter-only. The caller is `rank` itself, so
            // both loads see that thread's own last increments.
            (
                own.attempted.load(Ordering::Relaxed),
                own.succeeded.load(Ordering::Relaxed),
            )
        })
    }
}

impl Source {
    /// One range word per rank, seeded with the rank's static block.
    fn ranges(n: usize, threads: usize, steals: bool) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "range words support at most u32::MAX iterations (got {n})"
        );
        let words = (0..threads)
            .map(|r| {
                let (start, len) = block_of(n, threads, r);
                RangeWord(AtomicU64::new(RangeWord::pack(start, start + len)))
            })
            .collect();
        let thieves = steals.then(|| (0..threads).map(|_| StealCounters::default()).collect());
        Source::Ranges { words, thieves }
    }

    fn shared(rule: SizeRule) -> Self {
        Source::Shared {
            cursor: Cursor::default(),
            rule,
        }
    }
}

/// A chunk size as the dispenser uses it: at least 1, at most the whole
/// loop. `k` is user input (`--schedule dynamic,K`); a value near
/// `usize::MAX` must not reach the cursor arithmetic.
fn clamp_chunk(k: usize, n: usize) -> usize {
    k.clamp(1, n.max(1))
}

/// Rank `rank`'s static block `[r*n/P, (r+1)*n/P)` as `(start, len)`:
/// an even split with the remainder spread over the low ranks, like
/// libgomp.
fn block_of(n: usize, threads: usize, rank: usize) -> (usize, usize) {
    let base = n / threads;
    let rem = n % threads;
    let start = rank * base + rank.min(rem);
    let len = base + usize::from(rank < rem);
    (start, len)
}

/// The shared cursor of `dynamic` and `guided`, alone on its cache lines
/// (128 bytes: the adjacent-line prefetcher pairs them): every claim
/// moves the line between cores, which must not drag the rest along.
/// counter-only: the monotone index is the entire payload; chunk
/// ownership comes from the CAS's atomicity alone.
#[repr(align(128))]
#[derive(Default)]
struct Cursor(AtomicUsize);

/// One claim on a shared monotone cursor over `0..n`: `size(remaining)`
/// iterations from the front of what is left (clipped to it), or `None`
/// once nothing is. `dynamic` and `guided` differ only in `size`.
///
/// The cursor never passes `n`: an exhausted dispenser is answered from
/// the load alone, and a claim is clipped before it is published, so no
/// chunk size and no number of calls can wrap it.
fn claim(cursor: &Cursor, n: usize, size: impl Fn(usize) -> usize) -> Option<(usize, usize)> {
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

    /// Takes up to `k` iterations from the front of the range (CAS loop
    /// against thieves shrinking `hi`), or `None` when it is empty.
    fn take_front(&self, k: usize) -> Option<(usize, usize)> {
        let mut w = self.0.load(Ordering::SeqCst);
        loop {
            let (lo, hi) = Self::unpack(w);
            if lo >= hi {
                return None;
            }
            let len = k.min(hi - lo);
            match self.0.compare_exchange_weak(
                w,
                Self::pack(lo + len, hi),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some((lo, len)),
                Err(seen) => w = seen,
            }
        }
    }
}

/// A rank's steal counters, padded away from its neighbours'. Written
/// and read only by that rank (the rank-serial protocol); atomics only
/// so that a protocol violation stays a logic error.
#[repr(align(128))]
#[derive(Default)]
struct StealCounters {
    /// Times the rank entered the steal path. counter-only: a tally
    /// only its own rank writes and reads.
    attempted: AtomicU64,
    /// Attempts that obtained work from a victim. counter-only, like
    /// `attempted`.
    succeeded: AtomicU64,
}

/// Steals half of the largest other range for `rank`, publishes it in
/// `rank`'s own word — empty, or `rank` would not be stealing — and
/// takes the first chunk of it.
fn steal(
    words: &[RangeWord],
    own: &StealCounters,
    rank: usize,
    k: usize,
) -> Option<(usize, usize)> {
    // ORDERING: counter-only (rank-private, read back by this rank alone
    // in `steals`).
    own.attempted.fetch_add(1, Ordering::Relaxed);
    loop {
        // Pick the victim with the most work left.
        let mut victim = None;
        let mut best = 0;
        for v in (0..words.len()).filter(|&v| v != rank) {
            let (lo, hi) = RangeWord::unpack(words[v].0.load(Ordering::SeqCst));
            let avail = hi.saturating_sub(lo);
            if avail > best {
                best = avail;
                victim = Some(v);
            }
        }
        // Nothing left anywhere: done.
        let victim = victim?;
        let word = &words[victim].0;
        let w = word.load(Ordering::SeqCst);
        let (lo, hi) = RangeWord::unpack(w);
        let avail = hi.saturating_sub(lo);
        if avail == 0 {
            // Drained between the scan and the re-read; rescan.
            continue;
        }
        let start = hi - (avail / 2).max(1);
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
        // [start, hi) is detached. Publish it where the next thief can
        // split it again: no thief CASes our empty word, so the store
        // overwrites nothing.
        let mine = &words[rank];
        mine.0.store(RangeWord::pack(start, hi), Ordering::SeqCst);
        if let Some(chunk) = mine.take_front(k) {
            // ORDERING: counter-only, like `attempted` above.
            own.succeeded.fetch_add(1, Ordering::Relaxed);
            return Some(chunk);
        }
        // Other thieves took the whole half before we did; look again.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use std::collections::BTreeSet;

    /// Drains a dispenser from a single rank.
    fn drain_rank(d: &Dispenser, rank: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        while let Some(c) = d.next(rank) {
            out.push(c);
        }
        out
    }

    /// Exhausts a dispenser from `threads` ranks round-robin (serial but
    /// interleaved), returning every index handed out.
    fn drain_interleaved(d: &Dispenser, threads: usize) -> Vec<usize> {
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

    fn every_policy(k: usize) -> [Schedule; 5] {
        [
            Schedule::Static,
            Schedule::StaticChunk(k),
            Schedule::Dynamic(k),
            Schedule::Guided(k),
            Schedule::NonmonotonicDynamic(k),
        ]
    }

    #[test]
    fn static_blocks_are_contiguous_and_even() {
        let d = Dispenser::new(Schedule::Static, 10, 3);
        assert_eq!(d.next(0), Some((0, 4)));
        assert_eq!(d.next(1), Some((4, 3)));
        assert_eq!(d.next(2), Some((7, 3)));
        assert_eq!(d.next(0), None);
        assert_eq!(d.next(5), None); // out-of-range rank
    }

    #[test]
    fn static_handles_more_threads_than_work() {
        let d = Dispenser::new(Schedule::Static, 2, 5);
        let got = drain_interleaved(&d, 5);
        assert_exact_cover(&got, 2);
    }

    #[test]
    fn static_cyclic_round_robins() {
        let d = Dispenser::new(Schedule::StaticChunk(2), 12, 2); // chunks: 0..2,2..4,...
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
        let d = Dispenser::new(Schedule::Dynamic(2), 5, 2);
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
        let chunks = drain_rank(&Dispenser::new(Schedule::Dynamic(1), 16_384, 2), 0);
        assert_eq!(chunks[0], (0, 512));
        assert!(chunks.windows(2).all(|w| w[0].1 >= w[1].1), "claims grew");
        let singles = chunks
            .iter()
            .rev()
            .take_while(|&&(_, len)| len == 1)
            .count();
        assert!(
            (32..64).contains(&singles),
            "{singles} single-chunk claims at the tail"
        );
        // ≈ 16·P·(1 + ln(n / 16·P)) = 32 · 7.2
        assert!(
            (200..=260).contains(&chunks.len()),
            "{} claims",
            chunks.len()
        );
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
                for sched in every_policy(k) {
                    let d = Dispenser::new(sched, n, threads);
                    // an index at or past `n` would break the cover too
                    let got = drain_interleaved(&d, threads);
                    assert_exact_cover(&got, n);
                    for call in 0..6 {
                        for rank in 0..threads {
                            assert_eq!(
                                d.next(rank),
                                None,
                                "{sched:?}: call {call} after exhaustion"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn guided_chunks_shrink_and_respect_min() {
        let guided = || Dispenser::new(Schedule::Guided(5), 1000, 4);
        let sizes: Vec<usize> = drain_rank(&guided(), 0).iter().map(|&(_, l)| l).collect();
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
        assert_exact_cover(&drain_interleaved(&guided(), 4), 1000);
    }

    #[test]
    fn stealing_starts_static_then_steals() {
        let d = Dispenser::new(Schedule::NonmonotonicDynamic(1), 8, 2);
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
        let d = Dispenser::new(Schedule::NonmonotonicDynamic(1), 8, 2);
        for _ in 0..4 {
            d.next(1).unwrap(); // rank 1 drains its own half
        }
        assert_eq!(d.next(1), Some((2, 1))); // attempt #1: succeeds
        assert_eq!(d.next(1), Some((3, 1))); // local, no steal
        assert_eq!(d.next(0), Some((0, 1)));
        assert_eq!(d.next(0), Some((1, 1)));
        assert_eq!(d.next(0), None); // rank 0 attempt: nothing left
        assert_eq!(d.next(1), None); // rank 1 attempt #2: nothing left
        assert_eq!(d.steals(1), (2, 1));
        assert_eq!(d.steals(0), (1, 0));
        assert_eq!(d.steals(2), (0, 0), "out-of-range rank");
    }

    #[test]
    fn a_stolen_half_can_be_stolen_again() {
        // blocks A = [0,4), B = [4,8), C = [8,12)
        let d = Dispenser::new(Schedule::NonmonotonicDynamic(1), 12, 3);
        for i in 0..4 {
            assert_eq!(d.next(0), Some((i, 1)));
        }
        // A steals B's back half [6,8), publishes it and takes 6
        assert_eq!(d.next(0), Some((6, 1)));
        assert_eq!(d.next(1), Some((4, 1)));
        assert_eq!(d.next(1), Some((5, 1)));
        for i in 8..12 {
            assert_eq!(d.next(2), Some((i, 1)));
        }
        // C has nothing left, B is empty: what is left is the rest of
        // the half A published, and C takes it
        assert_eq!(d.next(2), Some((7, 1)), "the stolen half stayed private");
        assert_eq!(d.steals(2), (1, 1));
        for rank in 0..3 {
            assert_eq!(d.next(rank), None);
        }
    }

    #[test]
    fn range_words_reject_oversized_spaces() {
        // the packed-word representation caps n at u32::MAX; make sure
        // the constructor says so instead of silently corrupting ranges
        if usize::BITS > 32 {
            for sched in [Schedule::Static, Schedule::NonmonotonicDynamic(1)] {
                let res =
                    std::panic::catch_unwind(|| Dispenser::new(sched, u32::MAX as usize + 1, 2));
                assert!(res.is_err(), "{sched:?}");
            }
        }
    }

    #[test]
    fn only_the_stealing_policy_counts_steals() {
        for sched in every_policy(1)
            .into_iter()
            .filter(|s| !matches!(s, Schedule::NonmonotonicDynamic(_)))
        {
            let d = Dispenser::new(sched, 8, 2);
            drain_interleaved(&d, 2);
            assert_eq!((d.steals(0), d.steals(1)), ((0, 0), (0, 0)), "{sched:?}");
        }
    }

    #[test]
    fn empty_space_yields_nothing() {
        for sched in every_policy(2) {
            let d = Dispenser::new(sched, 0, 3);
            for rank in 0..3 {
                assert_eq!(d.next(rank), None, "{sched:?}");
            }
        }
    }

    /// Drains `d` from `threads` real threads, returning how often each
    /// of the `n` indices was handed out.
    fn hits_from_threads(d: &Dispenser, n: usize, threads: usize) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for rank in 0..threads {
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
        hits.into_iter().map(AtomicUsize::into_inner).collect()
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
            let n = 1017;
            let hits = hits_from_threads(&Dispenser::new(sched, n, 4), n, 4);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    *h, 1,
                    "{sched:?}: iteration {i} handed out a wrong number of times"
                );
            }
        }
    }

    #[test]
    fn steal_contention_never_double_grants() {
        // Regression pin for the steal + local-pop audit: tiny per-rank
        // blocks and k=1 force nearly every `next` through the steal
        // path, with all ranks racing to shrink each other's ranges and
        // republishing what they stole. Every index must still come out
        // exactly once.
        for round in 0..20 {
            let threads = 4;
            let n = 4 * threads + round % 3; // a handful of indices per rank
            let d = Dispenser::new(Schedule::NonmonotonicDynamic(1), n, threads);
            let hits = hits_from_threads(&d, n, threads);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    *h, 1,
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
            let d = Dispenser::new(every_policy(k)[which], n, threads);
            let got = drain_interleaved(&d, threads);
            assert_exact_cover(&got, n);
        }

        fn prop_dynamic_claims_are_k_multiples_within_the_hoarding_bound(
            n in 0usize..200_000,
            threads in 1usize..9,
            k in 1usize..8,
        ) {
            let dynamic = || Dispenser::new(Schedule::Dynamic(k), n, threads);
            let chunks = drain_rank(&dynamic(), 0);
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
            assert_exact_cover(&drain_interleaved(&dynamic(), threads), n);
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
            let got = drain_rank(&Dispenser::new(Schedule::Dynamic(k), n, threads), 0);
            let want: Vec<(usize, usize)> =
                (0..n.div_ceil(k)).map(|i| (i * k, k.min(n - i * k))).collect();
            assert_eq!(got, want);
        }

        fn prop_guided_non_increasing(n in 1usize..2000, threads in 1usize..9, k in 1usize..6) {
            let d = Dispenser::new(Schedule::Guided(k), n, threads);
            let sizes: Vec<usize> = drain_rank(&d, 0).iter().map(|&(_, l)| l).collect();
            for w in sizes.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }

        fn prop_static_block_partition(n in 0usize..10_000, threads in 1usize..17) {
            let mut total = 0;
            let mut next_start = 0;
            for rank in 0..threads {
                let (start, len) = block_of(n, threads, rank);
                assert_eq!(start, next_start);
                next_start = start + len;
                total += len;
            }
            assert_eq!(total, n);
        }
    }
}
