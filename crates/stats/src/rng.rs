//! A small, dependency-free deterministic PRNG.
//!
//! The reproduction needs randomness in exactly four shapes — raw 64-bit
//! draws, bounded integers, uniform `f64` in `[0, 1)` and slice shuffles —
//! and it needs every draw to be a pure function of a [`SeedSeq`] so that
//! trials replay bit-for-bit on any platform and any thread count. A
//! SplitMix64 counter generator provides all of that in ~10 lines of
//! arithmetic, with no external crates (the build must succeed offline).
//!
//! [`SeedSeq`]: crate::SeedSeq

use std::ops::{Range, RangeInclusive};

/// A SplitMix64 pseudo-random generator.
///
/// Statistically strong enough for workload synthesis and replacement
/// policies (it passes BigCrush as a 64-bit mixer), trivially seedable,
/// `Clone`-able for replay, and exactly reproducible everywhere.
///
/// # Examples
///
/// ```
/// use tapeworm_stats::Rng;
///
/// let mut a = Rng::from_seed(7);
/// let mut b = Rng::from_seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(0..10u64);
/// assert!(x < 10);
/// let f = a.next_f64();
/// assert!((0.0..1.0).contains(&f));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rng {
    state: u64,
}

/// Golden-ratio increment of the SplitMix64 counter.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer; a strong 64-bit mixing function.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bits of precision of [`Rng::next_f64`]: its variates are the
/// multiples of 2⁻⁵³ in `[0, 1)`.
pub(crate) const GRID_BITS: u32 = 53;

/// The variate `k · 2⁻⁵³` for a grid integer `k < 2⁵³` (exact).
#[inline]
pub(crate) fn grid_f64(k: u64) -> f64 {
    k as f64 * (1.0 / (1u64 << GRID_BITS) as f64)
}

impl Rng {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Draws the next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        grid_f64(self.next_grid())
    }

    /// Draws the integer behind the next [`Rng::next_f64`] variate:
    /// `grid_f64(self.next_grid())` is that variate, bit for bit, and
    /// consumes the same single `next_u64`.
    #[inline]
    pub(crate) fn next_grid(&mut self) -> u64 {
        self.next_u64() >> (64 - GRID_BITS)
    }

    /// Draws a value uniformly from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Draws a value of a [`Sample`] type (`u64`, `u32`, `f64`, `bool`).
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// Uniform draw in `[0, span)` via 128-bit widening multiply
    /// (Lemire's multiply-shift; bias is < 2⁻⁶⁴ · span, immaterial for
    /// the spans used here and exactly reproducible everywhere).
    fn bounded(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

/// Types [`Rng::gen`] can draw directly.
pub trait Sample {
    /// Draws one value from `rng`.
    fn sample(rng: &mut Rng) -> Self;
}

impl Sample for u64 {
    fn sample(rng: &mut Rng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample(rng: &mut Rng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for f64 {
    fn sample(rng: &mut Rng) -> f64 {
        rng.next_f64()
    }
}

impl Sample for bool {
    fn sample(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded(span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        assert!(
            self.start.is_finite() && self.end.is_finite(),
            "gen_range on non-finite range"
        );
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Rng::from_seed(123);
        let mut b = Rng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn golden_splitmix64_values() {
        // Reference values for seed 0 from the canonical SplitMix64
        // (Steele, Lea & Flood; same constants as Java's SplittableRandom).
        let mut r = Rng::from_seed(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Rng::from_seed(9);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f), "{f} escaped [0,1)");
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::from_seed(5);
        for _ in 0..10_000 {
            assert!(r.gen_range(10..20u64) >= 10);
            assert!(r.gen_range(10..20u64) < 20);
            let v = r.gen_range(3..=7usize);
            assert!((3..=7).contains(&v));
            let f = r.gen_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
            let b = r.gen_range(0..32u8);
            assert!(b < 32);
        }
    }

    #[test]
    fn range_draws_cover_the_domain() {
        let mut r = Rng::from_seed(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::from_seed(77);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "{frac}");
        let mut r = Rng::from_seed(78);
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::from_seed(4);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "64 elements virtually never shuffle to identity");
    }

    #[test]
    fn full_u64_inclusive_range_does_not_overflow() {
        let mut r = Rng::from_seed(2);
        let _ = r.gen_range(0..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng::from_seed(0).gen_range(5..5u64);
    }

    #[test]
    fn mean_of_unit_draws_is_half() {
        let mut r = Rng::from_seed(31);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
    }
}
