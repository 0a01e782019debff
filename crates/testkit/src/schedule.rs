//! Seed-driven interleaving strategies for deterministic schedule
//! exploration (`ezp-check`).
//!
//! A concurrency test wants to ask "what if the workers had run in *this*
//! order?" without leaving the answer to the OS scheduler. An
//! [`Interleave`] strategy is an explicit, replayable answer: given the
//! set of logical workers that could act next, it deterministically picks
//! one. The virtual executor in `ezp-sched` (feature `ezp-check`) drives
//! dispensers and task graphs one step at a time under such a strategy,
//! so a failing interleaving replays byte-for-byte from its
//! `(strategy, seed)` pair — the same contract `EZP_TEST_SEED` gives the
//! property-testing harness.
//!
//! Four strategy families are provided, mirroring the schedules that
//! historically shake out scheduler bugs:
//!
//! * [`RoundRobin`] — the fair baseline: workers act in cyclic order;
//! * [`RandomWalk`] — a uniformly random runnable worker each step,
//!   driven by the testkit PRNG ([`crate::Rng`]);
//! * [`StealHeavy`] — one favourite worker races ahead of everyone else,
//!   drains its own work and is forced into the steal path while victims
//!   still hold untouched ranges;
//! * [`StarveOne`] — one worker is scheduled only when it is the sole
//!   runnable worker, exposing lost-wakeup and double-grant bugs that
//!   need a maximally stale participant.
//!
//! Every strategy is *permutation-complete*: as long as a worker stays
//! runnable it is eventually scheduled, so any system in which workers
//! make progress when scheduled runs to completion under any strategy.

// No lock type, hash-seeded collection or wall clock outside tests:
// the list is `clippy.toml` (docs/static-analysis.md).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use crate::rng::Rng;

/// Picks which logical worker acts next in a virtual schedule.
///
/// Implementations must be deterministic functions of their construction
/// parameters (including the seed) and the sequence of calls made so far
/// — that is what makes a schedule replayable.
pub trait Interleave {
    /// Chooses one worker among the runnable ones (`runnable[w] == true`).
    ///
    /// Returns `None` when no worker is runnable. Implementations must
    /// never return a worker whose `runnable` entry is `false`, and must
    /// not starve a continuously-runnable worker forever.
    fn next_worker(&mut self, runnable: &[bool]) -> Option<usize>;

    /// Chooses among `n` equivalent pending items (e.g. which ready task
    /// of a task graph the scheduled worker grabs). The default takes the
    /// first — FIFO order — which every deterministic queue implements.
    ///
    /// Must return a value `< n` for `n > 0`; callers never invoke it
    /// with `n == 0`.
    fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "pick requires at least one choice");
        let _ = n;
        0
    }

    /// Short name for failure reports (`steal-heavy`, `random-walk`, ...).
    fn name(&self) -> &'static str;
}

/// The strategy families of `ezp-check`, for sweeping all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// Cyclic fair order.
    RoundRobin,
    /// Uniform random runnable worker per step (seeded).
    RandomWalk,
    /// One seed-chosen worker always acts first (maximizes stealing).
    StealHeavy,
    /// One seed-chosen worker acts only when alone (maximal staleness).
    StarveOne,
}

impl StrategyKind {
    /// Every strategy family, in a fixed order.
    pub fn all() -> [StrategyKind; 4] {
        [
            StrategyKind::RoundRobin,
            StrategyKind::RandomWalk,
            StrategyKind::StealHeavy,
            StrategyKind::StarveOne,
        ]
    }

    /// Instantiates this family for `workers` logical workers from a
    /// 64-bit seed. The same `(kind, seed, workers)` triple always yields
    /// the same schedule.
    pub fn build(self, seed: u64, workers: usize) -> Box<dyn Interleave> {
        assert!(workers > 0, "a schedule needs at least one worker");
        match self {
            StrategyKind::RoundRobin => Box::new(RoundRobin::new()),
            StrategyKind::RandomWalk => Box::new(RandomWalk::seeded(seed)),
            StrategyKind::StealHeavy => Box::new(StealHeavy::new((seed as usize) % workers)),
            StrategyKind::StarveOne => Box::new(StarveOne::seeded(seed, workers)),
        }
    }
}

/// Cyclic fair scheduling: worker `w` is followed by `w+1`, skipping
/// non-runnable workers.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin schedule starting at worker 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Interleave for RoundRobin {
    fn next_worker(&mut self, runnable: &[bool]) -> Option<usize> {
        let n = runnable.len();
        for off in 0..n {
            let w = (self.next + off) % n;
            if runnable[w] {
                self.next = (w + 1) % n;
                return Some(w);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Uniformly random runnable worker each step, from the testkit PRNG.
#[derive(Debug)]
pub struct RandomWalk {
    rng: Rng,
}

impl RandomWalk {
    /// A random walk replaying deterministically from `seed`.
    pub fn seeded(seed: u64) -> Self {
        RandomWalk {
            rng: Rng::seed(seed),
        }
    }
}

impl Interleave for RandomWalk {
    fn next_worker(&mut self, runnable: &[bool]) -> Option<usize> {
        let live: Vec<usize> = (0..runnable.len()).filter(|&w| runnable[w]).collect();
        if live.is_empty() {
            return None;
        }
        Some(live[self.rng.gen_range(0..live.len())])
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn name(&self) -> &'static str {
        "random-walk"
    }
}

/// One favourite worker always acts while runnable; the rest round-robin.
///
/// Under a work-stealing dispenser this drives the favourite through its
/// own range and deep into the steal path while every victim still holds
/// its untouched static block — the adversarial "steal everything" run.
#[derive(Debug)]
pub struct StealHeavy {
    favorite: usize,
    rr: RoundRobin,
}

impl StealHeavy {
    /// A steal-heavy schedule favouring `favorite`.
    pub fn new(favorite: usize) -> Self {
        StealHeavy {
            favorite,
            rr: RoundRobin::new(),
        }
    }
}

impl Interleave for StealHeavy {
    fn next_worker(&mut self, runnable: &[bool]) -> Option<usize> {
        if self.favorite < runnable.len() && runnable[self.favorite] {
            return Some(self.favorite);
        }
        self.rr.next_worker(runnable)
    }

    fn name(&self) -> &'static str {
        "steal-heavy"
    }
}

/// One worker is starved: scheduled only when it is the sole runnable
/// worker. Everyone else round-robins.
///
/// This makes the starved worker maximally stale — when it finally acts,
/// the shared state has moved as far as it possibly can, the pattern
/// behind lost-update and double-grant bugs.
#[derive(Debug)]
pub struct StarveOne {
    starved: usize,
    rr: RoundRobin,
}

impl StarveOne {
    /// Starves `starved`.
    pub fn new(starved: usize) -> Self {
        StarveOne {
            starved,
            rr: RoundRobin::new(),
        }
    }

    /// Starves a seed-chosen worker out of `workers`.
    pub fn seeded(seed: u64, workers: usize) -> Self {
        assert!(workers > 0);
        StarveOne::new((seed as usize) % workers)
    }
}

impl Interleave for StarveOne {
    fn next_worker(&mut self, runnable: &[bool]) -> Option<usize> {
        let others_runnable = runnable
            .iter()
            .enumerate()
            .any(|(w, &r)| r && w != self.starved);
        if others_runnable {
            let mut masked: Vec<bool> = runnable.to_vec();
            if self.starved < masked.len() {
                masked[self.starved] = false;
            }
            self.rr.next_worker(&masked)
        } else {
            self.rr.next_worker(runnable)
        }
    }

    fn name(&self) -> &'static str {
        "starve-one"
    }
}

/// Records the picks of a strategy over a fixed runnable-mask script —
/// the replayable "trace" of a schedule, used by tests to assert that
/// equal seeds produce equal schedules.
pub fn trace_strategy(
    strategy: &mut dyn Interleave,
    steps: usize,
    runnable: &[bool],
) -> Vec<Option<usize>> {
    (0..steps).map(|_| strategy.next_worker(runnable)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ezp_proptest;

    /// Drives `strategy` over a toy system where worker `w` needs
    /// `work[w]` scheduling steps to finish; returns the completion
    /// order, panicking if the strategy stops scheduling runnable work.
    fn drain(strategy: &mut dyn Interleave, mut work: Vec<usize>) -> Vec<usize> {
        let mut order = Vec::new();
        let budget = work.iter().sum::<usize>() + 1;
        for _ in 0..budget {
            let runnable: Vec<bool> = work.iter().map(|&r| r > 0).collect();
            match strategy.next_worker(&runnable) {
                Some(w) => {
                    assert!(runnable[w], "{} picked an idle worker", strategy.name());
                    work[w] -= 1;
                    order.push(w);
                }
                None => {
                    assert!(
                        work.iter().all(|&r| r == 0),
                        "{} gave up with work left: {work:?}",
                        strategy.name()
                    );
                    return order;
                }
            }
        }
        assert!(
            work.iter().all(|&r| r == 0),
            "{} exceeded its step budget: {work:?}",
            strategy.name()
        );
        order
    }

    #[test]
    fn round_robin_is_cyclic_and_skips_idle() {
        let mut rr = RoundRobin::new();
        let all = [true, true, true];
        assert_eq!(rr.next_worker(&all), Some(0));
        assert_eq!(rr.next_worker(&all), Some(1));
        assert_eq!(rr.next_worker(&all), Some(2));
        assert_eq!(rr.next_worker(&all), Some(0));
        assert_eq!(rr.next_worker(&[false, false, true]), Some(2));
        assert_eq!(rr.next_worker(&[true, false, false]), Some(0));
        assert_eq!(rr.next_worker(&[false, false, false]), None);
    }

    #[test]
    fn steal_heavy_prefers_favorite_until_idle() {
        let mut s = StealHeavy::new(2);
        assert_eq!(s.next_worker(&[true, true, true]), Some(2));
        assert_eq!(s.next_worker(&[true, true, true]), Some(2));
        assert_eq!(s.next_worker(&[true, true, false]), Some(0));
        assert_eq!(s.next_worker(&[true, true, true]), Some(2));
    }

    #[test]
    fn starve_one_schedules_starved_only_when_alone() {
        let mut s = StarveOne::new(0);
        assert_eq!(s.next_worker(&[true, true, true]), Some(1));
        assert_eq!(s.next_worker(&[true, true, true]), Some(2));
        assert_eq!(s.next_worker(&[true, false, false]), Some(0));
        assert_eq!(s.next_worker(&[false, false, false]), None);
    }

    #[test]
    fn default_pick_is_fifo_random_walk_is_seeded() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(5), 0);
        let picks = |seed: u64| {
            let mut w = RandomWalk::seeded(seed);
            (0..32).map(|_| w.pick(7)).collect::<Vec<_>>()
        };
        assert_eq!(picks(9), picks(9));
        assert!(picks(9).iter().all(|&p| p < 7));
        assert_ne!(picks(9), picks(10));
    }

    ezp_proptest! {
        #![cases(48)]

        /// Same `(kind, seed)` must yield the same schedule — the replay
        /// guarantee everything in ezp-check rests on.
        fn prop_same_seed_same_trace(
            seed in crate::prop::any_u64(),
            workers in 1usize..7,
            kind_idx in 0usize..4,
        ) {
            let kind = StrategyKind::all()[kind_idx];
            let runnable = vec![true; workers];
            let a = trace_strategy(&mut *kind.build(seed, workers), 64, &runnable);
            let b = trace_strategy(&mut *kind.build(seed, workers), 64, &runnable);
            assert_eq!(a, b, "{kind:?} is not replayable from its seed");
        }

        /// Every strategy is permutation-complete: any finite per-worker
        /// workload drains fully, and every worker appears in the order.
        fn prop_every_strategy_drains_all_workers(
            seed in crate::prop::any_u64(),
            workers in 1usize..7,
            kind_idx in 0usize..4,
            per_worker in 1usize..9,
        ) {
            let kind = StrategyKind::all()[kind_idx];
            let mut strategy = kind.build(seed, workers);
            let order = drain(&mut *strategy, vec![per_worker; workers]);
            assert_eq!(order.len(), workers * per_worker);
            for w in 0..workers {
                assert_eq!(
                    order.iter().filter(|&&x| x == w).count(),
                    per_worker,
                    "{kind:?} lost steps of worker {w}"
                );
            }
        }

        /// Strategies never pick an idle worker, whatever the mask.
        fn prop_picks_respect_runnable_mask(
            seed in crate::prop::any_u64(),
            workers in 1usize..7,
            kind_idx in 0usize..4,
            mask_bits in crate::prop::any_u64(),
        ) {
            let kind = StrategyKind::all()[kind_idx];
            let mut strategy = kind.build(seed, workers);
            let runnable: Vec<bool> =
                (0..workers).map(|w| mask_bits >> w & 1 == 1).collect();
            for _ in 0..16 {
                match strategy.next_worker(&runnable) {
                    Some(w) => assert!(runnable[w], "{kind:?} picked idle worker {w}"),
                    None => assert!(runnable.iter().all(|&r| !r)),
                }
            }
        }
    }
}
