//! Miniature property-testing harness.
//!
//! A [`Strategy`] produces random values and knows how to simplify a failing
//! one. The [`ezp_proptest!`] macro wraps each property in a `#[test]` that
//! draws `cases` inputs, runs the body under `catch_unwind`, and on failure
//! shrinks the input (binary-search style for numbers, prefix/halving for
//! vectors) before reporting the minimal counter-example together with the
//! seed needed to replay it.
//!
//! Determinism: the base seed comes from `EZP_TEST_SEED` (a u64, decimal or
//! `0x`-prefixed hex) or a fixed default. Each property derives its own
//! stream as `base_seed ^ fnv1a(test_name)`, so runs are reproducible and
//! independent of test execution order.

use std::cell::Cell;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::Rng;

/// Cases per property when no `#![cases(n)]` attribute is given.
pub const DEFAULT_CASES: u32 = 64;

/// Base seed used when `EZP_TEST_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0xEA5F_9A9D_2020_1EA4;

/// A generator of random values with optional shrinking.
pub trait Strategy {
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of `v`, most aggressive first. Returning an
    /// empty vec means the value is already minimal (or unshrinkable).
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let _ = v;
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Integer and float ranges as strategies
// ---------------------------------------------------------------------------

macro_rules! impl_int_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut Rng) -> $ty {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$ty) -> Vec<$ty> {
                shrink_int(self.start, *v)
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut Rng) -> $ty {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$ty) -> Vec<$ty> {
                shrink_int(*self.start(), *v)
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Binary-search shrinking toward the lower bound: try the bound itself,
/// then the midpoint, then the immediate predecessor.
fn shrink_int<T>(lo: T, v: T) -> Vec<T>
where
    T: Copy + PartialOrd + PartialEq + MidpointToward,
{
    if v == lo {
        return Vec::new();
    }
    let mut out = vec![lo];
    let mid = v.midpoint_toward(lo);
    if mid != lo && mid != v {
        out.push(mid);
    }
    let pred = v.step_toward(lo);
    if pred != lo && !out.contains(&pred) {
        out.push(pred);
    }
    out
}

/// Helper for shrink_int: midpoint and single-step moves toward a bound.
pub trait MidpointToward {
    fn midpoint_toward(self, lo: Self) -> Self;
    fn step_toward(self, lo: Self) -> Self;
}

macro_rules! impl_midpoint {
    ($($ty:ty),*) => {$(
        impl MidpointToward for $ty {
            fn midpoint_toward(self, lo: Self) -> Self {
                // lo + (self - lo) / 2 without overflow on signed types.
                lo.wrapping_add(self.wrapping_sub(lo) / 2)
            }
            fn step_toward(self, lo: Self) -> Self {
                if self > lo { self - 1 } else { self }
            }
        }
    )*};
}

impl_midpoint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.gen_range(self.clone())
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        if *v == self.start {
            return Vec::new();
        }
        let mid = self.start + (*v - self.start) / 2.0;
        if mid == *v {
            vec![self.start]
        } else {
            vec![self.start, mid]
        }
    }
}

/// Strategy covering the full u64 domain.
pub fn any_u64() -> RangeInclusive<u64> {
    0..=u64::MAX
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// Uniform choice from a fixed list; earlier entries are considered simpler.
pub struct Select<T> {
    items: Vec<T>,
}

pub fn select<T: Clone + Debug + PartialEq>(items: Vec<T>) -> Select<T> {
    assert!(!items.is_empty(), "select requires at least one item");
    Select { items }
}

impl<T: Clone + Debug + PartialEq> Strategy for Select<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        let i = rng.gen_range(0..self.items.len());
        self.items[i].clone()
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        match self.items.iter().position(|it| it == v) {
            Some(idx) if idx > 0 => vec![self.items[0].clone(), self.items[idx - 1].clone()],
            _ => Vec::new(),
        }
    }
}

/// Vector of values from `elem`, with length drawn from `len`.
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

pub fn vec_of<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec_of requires a non-empty length range");
    VecStrategy { elem, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = self.len.start;
        let mut out = Vec::new();
        // Structural shrinks first: minimal length, half length, drop last.
        if v.len() > min {
            out.push(v[..min].to_vec());
            let half = min + (v.len() - min) / 2;
            if half != min && half != v.len() {
                out.push(v[..half].to_vec());
            }
            if v.len() - 1 != half {
                out.push(v[..v.len() - 1].to_vec());
            }
        }
        // Then element-wise: first shrink candidate for each position.
        for (i, item) in v.iter().enumerate() {
            if let Some(simpler) = self.elem.shrink(item).into_iter().next() {
                let mut copy = v.clone();
                copy[i] = simpler;
                out.push(copy);
            }
        }
        out
    }
}

/// Grid dimensions `(dim, tile)` where `tile` divides `dim` — the shape every
/// EASYPAP kernel iterates over. Shrinks toward small power-of-two grids.
pub struct GridDims {
    max_tiles_per_side: usize,
}

pub fn grid_dims(max_tiles_per_side: usize) -> GridDims {
    assert!(max_tiles_per_side >= 1);
    GridDims { max_tiles_per_side }
}

impl Strategy for GridDims {
    type Value = (usize, usize);

    fn generate(&self, rng: &mut Rng) -> (usize, usize) {
        let tile = 1usize << rng.gen_range(2u32..6); // 4, 8, 16, 32
        let tiles = rng.gen_range(1..=self.max_tiles_per_side);
        (tile * tiles, tile)
    }

    fn shrink(&self, v: &(usize, usize)) -> Vec<(usize, usize)> {
        let (dim, tile) = *v;
        let tiles = dim / tile;
        let mut out = Vec::new();
        if tiles > 1 {
            out.push((tile, tile));
            let half = tiles / 2;
            if half > 1 {
                out.push((tile * half, tile));
            }
        }
        if tile > 4 {
            let t = tile / 2;
            out.push((t * tiles, t));
        }
        out
    }
}

/// Output of [`StrategyExt::prop_map`]. Mapped values do not shrink (the
/// inverse mapping is unknown), which keeps the combinator trivially correct.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

pub trait StrategyExt: Strategy + Sized {
    /// Transform generated values. Named `prop_map` (not `map`) because
    /// ranges are both strategies and iterators, and a bare `.map` call on
    /// `0..n` would be ambiguous.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        T: Clone + Debug,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy> StrategyExt for S {}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    T: Clone + Debug,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

// Tuples of strategies are strategies over tuples; shrinking tries each
// component in turn while holding the others fixed.
macro_rules! impl_tuple_strategy {
    ($(($($S:ident . $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut copy = v.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Base seed for this process: `EZP_TEST_SEED` (decimal or 0x-hex) if set,
/// otherwise [`DEFAULT_SEED`].
pub fn base_seed() -> u64 {
    match std::env::var("EZP_TEST_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|_| panic!("EZP_TEST_SEED is not a valid u64: {s:?}"))
        }
        Err(_) => DEFAULT_SEED,
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Install (once per process) a panic hook that stays silent while the
/// current thread is probing a property case, so shrinking does not spam
/// stderr with hundreds of expected panic reports. Other threads — i.e.
/// ordinary failing tests — keep the previous hook's behaviour.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_one<V, F>(f: &F, value: V) -> Result<(), String>
where
    F: Fn(V),
{
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(value)));
    QUIET_PANICS.with(|q| q.set(false));
    outcome.map_err(panic_message)
}

/// Run `cases` random cases of a property, shrinking on failure. This is the
/// engine behind [`ezp_proptest!`]; call it directly for hand-rolled setups.
pub fn run_cases<S, F>(name: &str, cases: u32, strategy: S, body: F)
where
    S: Strategy,
    F: Fn(S::Value),
{
    install_quiet_hook();
    let seed = base_seed();
    let mut rng = Rng::seed(seed ^ fnv1a(name));
    for case in 0..cases {
        let value = strategy.generate(&mut rng);
        if let Err(first_msg) = run_one(&body, value.clone()) {
            let (minimal, msg, steps) = shrink_failure(&strategy, &body, value, first_msg);
            panic!(
                "property `{name}` failed (case {case_n}/{cases}, seed {seed:#x}).\n\
                 minimal input after {steps} shrink step(s): {minimal:?}\n\
                 failure: {msg}\n\
                 replay with: EZP_TEST_SEED={seed} cargo test {name}",
                case_n = case + 1,
            );
        }
    }
}

/// Greedily walk the shrink tree: take the first candidate that still fails,
/// repeat until no candidate fails or the probe budget is exhausted.
fn shrink_failure<S, F>(
    strategy: &S,
    body: &F,
    mut value: S::Value,
    mut msg: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(S::Value),
{
    let mut budget: u32 = 500;
    let mut steps = 0;
    'outer: while budget > 0 {
        for cand in strategy.shrink(&value) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(m) = run_one(body, cand.clone()) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Declare property tests.
///
/// ```ignore
/// ezp_proptest! {
///     #![cases(32)]  // optional, defaults to DEFAULT_CASES
///
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]`. The expressions after `in` are
/// [`Strategy`] values (integer/float ranges work directly); multiple
/// arguments are bundled into a tuple strategy so shrinking can simplify
/// each independently.
#[macro_export]
macro_rules! ezp_proptest {
    (#![cases($n:expr)] $($rest:tt)*) => {
        $crate::__ezp_proptest_fns! { ($n) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__ezp_proptest_fns! { ($crate::prop::DEFAULT_CASES) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __ezp_proptest_fns {
    (($cases:expr)) => {};
    (($cases:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::prop::run_cases(
                stringify!($name),
                $cases,
                ($($strat,)+),
                |($($arg,)+)| $body,
            );
        }
        $crate::__ezp_proptest_fns! { ($cases) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_name() {
        let strat = 0u64..1000;
        let collect = |name: &str| {
            let mut rng = Rng::seed(base_seed() ^ fnv1a(name));
            (0..10).map(|_| strat.generate(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(collect("alpha"), collect("alpha"));
        assert_ne!(collect("alpha"), collect("beta"));
    }

    #[test]
    fn shrink_int_halves_toward_bound() {
        let c = shrink_int(0u32, 100);
        assert!(c.contains(&0));
        assert!(c.contains(&50));
        assert!(c.contains(&99));
        assert!(shrink_int(5u32, 5).is_empty());
    }

    #[test]
    fn failing_property_shrinks_to_threshold() {
        // Property fails for v >= 37; shrinking must land exactly on 37.
        let strat = 0u32..10_000;
        let mut rng = Rng::seed(99);
        let mut value = strat.generate(&mut rng);
        while value < 37 {
            value = strat.generate(&mut rng);
        }
        install_quiet_hook();
        let body = |v: u32| assert!(v < 37, "too big: {v}");
        let msg = run_one(&body, value).unwrap_err();
        let (minimal, _, _) = shrink_failure(&strat, &body, value, msg);
        assert_eq!(minimal, 37);
    }

    #[test]
    fn vec_strategy_respects_length_bounds() {
        let strat = vec_of(0u8..10, 2..6);
        let mut rng = Rng::seed(1);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
        // Shrinks never go below the minimum length.
        let v = strat.generate(&mut rng);
        for cand in strat.shrink(&v) {
            assert!(cand.len() >= 2);
        }
    }

    #[test]
    fn grid_dims_tile_divides_dim() {
        let strat = grid_dims(8);
        let mut rng = Rng::seed(2);
        for _ in 0..100 {
            let (dim, tile) = strat.generate(&mut rng);
            assert!(dim % tile == 0, "tile {tile} must divide dim {dim}");
            assert!(dim / tile <= 8);
        }
    }

    #[test]
    fn select_shrinks_toward_first() {
        let strat = select(vec![8usize, 12, 16]);
        let c = strat.shrink(&16);
        assert_eq!(c, vec![8, 12]);
        assert!(strat.shrink(&8).is_empty());
    }

    #[test]
    fn tuple_shrink_varies_one_component() {
        let strat = (0u32..100, 0u32..100);
        for cand in strat.shrink(&(40, 60)) {
            let changed = (cand.0 != 40) as u32 + (cand.1 != 60) as u32;
            assert_eq!(changed, 1);
        }
    }

    // The macro itself, exercised end-to-end on passing properties.
    ezp_proptest! {
        #![cases(16)]

        fn macro_addition_commutes(a in 0u32..1000, b in 0u32..1000) {
            assert_eq!(a + b, b + a);
        }

        fn macro_single_arg(n in 1usize..64) {
            assert!(n >= 1 && n < 64);
        }

        fn macro_mapped_strategy(s in (0usize..3).prop_map(|i| ["a", "b", "c"][i])) {
            assert!(["a", "b", "c"].contains(&s));
        }
    }
}
