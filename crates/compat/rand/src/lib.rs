//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this vendored crate
//! implements exactly the API subset the workspace uses: `StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::gen_range` over integer ranges and
//! `Rng::gen_bool`. The generator is SplitMix64 — deterministic, seedable
//! and statistically solid for test-input generation (it is the stream
//! initialiser recommended by the xoshiro authors). It is NOT a
//! cryptographic generator, which matches how the workspace uses it.

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A generator that can be deterministically constructed from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
///
/// The widening through `i128` covers every primitive integer up to 64 bits
/// (signed and unsigned) without overflow.
pub trait SampleUniform: Copy + PartialOrd {
    /// Widens to `i128`.
    fn to_i128(self) -> i128;
    /// Narrows from `i128` (the value is always in range by construction).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Reduces a random word into `0..span`. Every span of a 64-bit integer
/// range fits in 64 bits except that of the full-width inclusive range
/// (`2^64`), so the remainder is a `u64` division, not a 128-bit one
/// through a runtime call; the value is the same either way.
fn reduce(word: u64, span: u128) -> i128 {
    match u64::try_from(span) {
        Ok(span) => (word % span) as i128,
        Err(_) => (word as u128 % span) as i128,
    }
}

/// Types usable as the argument of [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniformly distributed value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// Single blanket impls per range shape (not per integer type): type
// inference must unify an unsuffixed literal range like `0..50` with the
// result type the caller needs, exactly as the real crate's blanket
// `impl<T: SampleUniform> SampleRange<T> for Range<T>` does.
impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start.to_i128(), self.end.to_i128());
        assert!(lo < hi, "cannot sample empty range");
        let span = (hi - lo) as u128;
        T::from_i128(lo + reduce(rng.next_u64(), span))
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start().to_i128(), self.end().to_i128());
        assert!(lo <= hi, "cannot sample empty range");
        let span = (hi - lo) as u128 + 1;
        T::from_i128(lo + reduce(rng.next_u64(), span))
    }
}

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        // 53 random bits give a uniform float in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator (SplitMix64 here).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SampleUniform, SeedableRng};

    /// `gen_range` as it was written before the 64-bit reduction: the
    /// remainder taken in 128 bits.
    fn wide_formula<T: SampleUniform>(word: u64, lo: T, hi: T, inclusive: bool) -> T {
        let (lo, hi) = (lo.to_i128(), hi.to_i128());
        let span = (hi - lo) as u128 + u128::from(inclusive);
        T::from_i128(lo + (word as u128 % span) as i128)
    }

    /// Draws from `lo..hi` and `lo..=hi` on one generator and checks both
    /// against [`wide_formula`] on the words a twin generator yields.
    fn check_against_wide_formula<T>(seed: u64, lo: T, hi: T)
    where
        T: SampleUniform + std::fmt::Debug,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut words = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            if lo < hi {
                let expected = wide_formula(words.next_u64(), lo, hi, false);
                assert_eq!(rng.gen_range(lo..hi), expected, "{lo:?}..{hi:?}");
            }
            let expected = wide_formula(words.next_u64(), lo, hi, true);
            assert_eq!(rng.gen_range(lo..=hi), expected, "{lo:?}..={hi:?}");
        }
    }

    macro_rules! check_type {
        ($t:ty, $pick:expr) => {{
            let edges = [<$t>::MIN, <$t>::MIN + 1, 0, 1, <$t>::MAX - 1, <$t>::MAX];
            for (i, &a) in edges.iter().enumerate() {
                for &b in &edges {
                    check_against_wide_formula::<$t>(i as u64, a.min(b), a.max(b));
                }
            }
            let mut pick = StdRng::seed_from_u64(0xD1CE);
            for seed in 0..200 {
                let (a, b): ($t, $t) = ($pick(pick.next_u64()), $pick(pick.next_u64()));
                check_against_wide_formula::<$t>(seed, a.min(b), a.max(b));
            }
        }};
    }

    #[test]
    fn gen_range_equals_the_128_bit_formula_for_every_integer_type() {
        check_type!(u8, |w| w as u8);
        check_type!(u16, |w| w as u16);
        check_type!(u32, |w| w as u32);
        check_type!(u64, |w| w);
        check_type!(usize, |w| w as usize);
        check_type!(i8, |w| w as i8);
        check_type!(i16, |w| w as i16);
        check_type!(i32, |w| w as i32);
        check_type!(i64, |w| w as i64);
        check_type!(isize, |w| w as isize);
    }

    #[test]
    fn full_width_inclusive_ranges_return_the_word_itself() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut words = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            assert_eq!(rng.gen_range(0..=u64::MAX), words.next_u64());
        }
        for _ in 0..16 {
            let word = words.next_u64();
            assert_eq!(
                rng.gen_range(i64::MIN..=i64::MAX),
                (i64::MIN as i128 + word as i128) as i64
            );
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0u8..=2);
            assert!(w <= 2);
            let x = rng.gen_range(5usize..6);
            assert_eq!(x, 5);
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!(
            (1_500..3_500).contains(&hits),
            "p=0.25 hit rate was {hits}/10000"
        );
    }
}
