//! Zipf-distributed sampling for synthetic reference streams.

use std::error::Error;
use std::fmt;

use crate::rng::{grid_f64, Rng, GRID_BITS};

/// Parameters for [`Zipf::new`] were invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZipfError {
    /// The number of elements was zero.
    EmptyDomain,
    /// The exponent was not a finite, non-negative number.
    BadExponent(f64),
}

impl fmt::Display for ZipfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZipfError::EmptyDomain => f.write_str("zipf domain must be non-empty"),
            ZipfError::BadExponent(s) => {
                write!(f, "zipf exponent must be finite and >= 0, got {s}")
            }
        }
    }
}

impl Error for ZipfError {}

/// A Zipf(`n`, `s`) sampler over ranks `0..n` using a precomputed CDF.
///
/// The workload models use Zipf popularity to choose which "procedure" a
/// task executes next: a few hot procedures dominate (capturing temporal
/// locality) while a long tail keeps the full text footprint warm — the
/// combination that gives the miss-ratio-vs-cache-size curves their
/// characteristic knee.
///
/// Sampling is inverse-CDF through a guide table (the "cutpoint" method
/// of Chen & Asau, 1974): O(1) expected work per draw, and the same rank
/// the plain CDF search returns for every variate (see
/// [`Zipf::rank_for`]).
///
/// # Examples
///
/// ```
/// use tapeworm_stats::{Rng, Zipf};
///
/// let zipf = Zipf::new(100, 1.0)?;
/// let mut rng = Rng::from_seed(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// # Ok::<(), tapeworm_stats::ZipfError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF entry exceeds `j / m`,
    /// for the `m = guide.len()` equal buckets of `[0, 1)`.
    guide: Vec<u32>,
    /// `53 − log2 m`: a grid variate `k · 2⁻⁵³` lies in bucket
    /// `k >> shift`, and on its floor when the low `shift` bits are 0.
    shift: u32,
}

/// Guide buckets per rank, once the rank count is rounded up to a power
/// of two. A bucket that straddles a CDF entry needs a data-dependent scan step,
/// whose exit branch the host mispredicts about half the time; with
/// eight buckets per rank at most one draw in eight lands in one.
const BUCKETS_PER_RANK: usize = 8;

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; larger `s` skews
    /// probability toward low ranks.
    ///
    /// # Errors
    ///
    /// Returns [`ZipfError::EmptyDomain`] when `n == 0` and
    /// [`ZipfError::BadExponent`] when `s` is negative, NaN or infinite.
    pub fn new(n: usize, s: f64) -> Result<Self, ZipfError> {
        if n == 0 {
            return Err(ZipfError::EmptyDomain);
        }
        if !s.is_finite() || s < 0.0 {
            return Err(ZipfError::BadExponent(s));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against rounding leaving the last entry below 1.0.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Self::from_cdf(cdf))
    }

    /// Builds the guide table over a non-empty, non-decreasing CDF that
    /// ends at 1.0.
    fn from_cdf(cdf: Vec<f64>) -> Self {
        let m = cdf.len().next_power_of_two() * BUCKETS_PER_RANK;
        let shift = GRID_BITS - m.trailing_zeros();
        // Bucket floors j/m are exact (m is a power of two), and the
        // CDF ends at 1.0 > j/m, so the cursor never runs off the end.
        let mut guide = Vec::with_capacity(m);
        let mut rank = 0usize;
        for j in 0..m {
            let floor = j as f64 / m as f64;
            while cdf[rank] <= floor {
                rank += 1;
            }
            guide.push(u32::try_from(rank).expect("zipf ranks fit in u32"));
        }
        Zipf { cdf, guide, shift }
    }

    /// Number of ranks in the domain.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when the domain has exactly one rank (never zero by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..self.len()`: the rank
    /// [`Zipf::rank_for`] gives the variate `rng.next_f64()` would
    /// return, from the same single `next_u64`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_at(rng.next_grid())
    }

    /// Maps a uniform variate in `[0, 1)` to a rank; exposed for
    /// deterministic replay in tests.
    ///
    /// The rank is the CDF inverse: the first rank whose entry exceeds
    /// `u` (the library binary search over the whole CDF decides when
    /// an entry equals `u`). Variates on the 2⁻⁵³ grid that
    /// [`Rng::next_f64`] draws from take the guide table, which finds
    /// the same rank in O(1) expected steps; any other value goes to
    /// the binary search directly.
    pub fn rank_for(&self, u: f64) -> usize {
        // Scaling by a power of two is exact, so `x` is an integer
        // below 2⁵³ exactly when `u` is a grid variate.
        let x = u * (1u64 << GRID_BITS) as f64;
        if (0.0..(1u64 << GRID_BITS) as f64).contains(&x) && (x as u64) as f64 == x {
            self.rank_at(x as u64)
        } else {
            self.search(u)
        }
    }

    /// The rank of the grid variate `k · 2⁻⁵³`.
    #[inline]
    fn rank_at(&self, k: u64) -> usize {
        match self.guided(k) {
            Some(rank) => rank,
            None => self.search(grid_f64(k)),
        }
    }

    /// The guide-table lookup for the grid variate `u = k · 2⁻⁵³`, in
    /// bucket `j = k >> shift`. Every rank before `guide[j]` has an
    /// entry `≤ j/m`; when `u` lies strictly inside the bucket those
    /// entries are all `< u`, so the forward scan, stopping at the first
    /// entry `> u` having met none equal to `u`, stops at exactly the
    /// insertion point the binary search reports. The two cases that
    /// argument does not cover answer `None` for the search to decide:
    /// a variate on a bucket floor (an earlier entry may equal it) and a
    /// scan that meets an entry equal to the variate (the search picks
    /// among equal entries, so duplicates resolve bit for bit).
    #[inline]
    fn guided(&self, k: u64) -> Option<usize> {
        if k & ((1u64 << self.shift) - 1) == 0 {
            return None;
        }
        let u = grid_f64(k);
        let start = self.guide[(k >> self.shift) as usize] as usize;
        for (rank, &c) in self.cdf[start..].iter().enumerate() {
            if c > u {
                return Some(start + rank);
            }
            if c == u {
                return None;
            }
        }
        None
    }

    /// The reference inverse: binary search over the whole CDF. Only
    /// bucket floors, entries equal to the variate and variates off the
    /// grid reach it.
    #[cold]
    fn search(&self, u: f64) -> usize {
        let cdf = &self.cdf;
        match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => (i + 1).min(cdf.len() - 1),
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// Probability mass of a given rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod exactness;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(Zipf::new(0, 1.0), Err(ZipfError::EmptyDomain));
        assert_eq!(Zipf::new(4, -1.0), Err(ZipfError::BadExponent(-1.0)));
        assert!(Zipf::new(4, f64::NAN).is_err());
        assert!(Zipf::new(4, f64::INFINITY).is_err());
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(4, 0.0).unwrap();
        for rank in 0..4 {
            assert!((z.pmf(rank) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn low_ranks_dominate_with_positive_exponent() {
        let z = Zipf::new(50, 1.2).unwrap();
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(49));
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(128, 0.8).unwrap();
        let total: f64 = (0..128).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_stay_in_range_and_hit_hot_rank() {
        let z = Zipf::new(10, 1.0).unwrap();
        let mut rng = Rng::from_seed(7);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            counts[r] += 1;
        }
        // Rank 0 carries ~34% of the mass for n=10, s=1.
        assert!(counts[0] > counts[9]);
        assert!(counts[0] as f64 / 20_000.0 > 0.25);
    }

    #[test]
    fn rank_for_extremes() {
        let z = Zipf::new(5, 1.0).unwrap();
        assert_eq!(z.rank_for(0.0), 0);
        assert_eq!(z.rank_for(0.999_999_9), 4);
    }
}
