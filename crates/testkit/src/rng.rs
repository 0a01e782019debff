//! Deterministic pseudo-random number generation.
//!
//! The generator is Xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 so that any 64-bit seed — including 0 — expands to a
//! well-mixed 256-bit state. Both algorithms are public domain reference
//! designs; the implementation here is self-contained so the workspace
//! carries no registry dependency for randomness.

use std::ops::{Range, RangeInclusive};

/// Expand a 64-bit seed into a stream of well-mixed words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Xoshiro256++ generator. Cheap to copy, deterministic for a given seed.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed. Any seed is fine, including 0.
    pub fn seed(seed: u64) -> Self {
        let mut x = seed;
        let s = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform u64 in `[0, span)`, unbiased via rejection sampling.
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0, "bounded_u64 requires a non-empty span");
        // 2^64 mod span, computed without overflowing; values past the last
        // full multiple of `span` are rejected to keep the draw unbiased.
        let excess = (u64::MAX % span).wrapping_add(1) % span;
        let zone = u64::MAX - excess;
        loop {
            let r = self.next_u64();
            if r <= zone {
                return r % span;
            }
        }
    }

    /// Uniform sample from an integer range (`a..b` or `a..=b`).
    ///
    /// Panics on an empty range, matching `rand`'s behaviour.
    pub fn gen_range<R: RangeSample>(&mut self, range: R) -> R::Out {
        range.sample(self)
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fill a byte slice with random data.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&word[..rest.len()]);
        }
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Integer range types that [`Rng::gen_range`] can sample from.
pub trait RangeSample {
    type Out;
    fn sample(self, rng: &mut Rng) -> Self::Out;
}

macro_rules! impl_range_sample {
    ($($ty:ty),*) => {$(
        impl RangeSample for Range<$ty> {
            type Out = $ty;
            fn sample(self, rng: &mut Rng) -> $ty {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $ty
            }
        }
        impl RangeSample for RangeInclusive<$ty> {
            type Out = $ty;
            fn sample(self, rng: &mut Rng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                (lo as i128 + rng.bounded_u64(span + 1) as i128) as $ty
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl RangeSample for Range<f64> {
    type Out = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::seed(42);
        let mut b = Rng::seed(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed(1);
        let mut b = Rng::seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams for distinct seeds should differ");
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = Rng::seed(0);
        let first = r.next_u64();
        let second = r.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, second);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = Rng::seed(7);
        for _ in 0..1000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut r = Rng::seed(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_u64_range_works() {
        let mut r = Rng::seed(11);
        // Must not hang or panic on the degenerate full-width span.
        let v = r.gen_range(0u64..=u64::MAX);
        let _ = v;
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::seed(5);
        for _ in 0..1000 {
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn fill_covers_tail() {
        let mut r = Rng::seed(9);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed(13);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed(17);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits} hits for p=0.25");
    }
}
