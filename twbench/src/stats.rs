//! Sample arithmetic under the benchmark's reporting rules.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, one stray sample would decide it.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it. `None` for no samples.
fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile must be in 1..=100");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// 1-based nearest rank of percentile `pct` among `n` samples, in
/// integer arithmetic so `90% of 100` is exactly rank 90.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// A tail percentile, or `None` unless at least [`MIN_BEYOND`] samples
/// lie beyond its rank.
pub fn tail(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(n, pct) < MIN_BEYOND {
        return None;
    }
    percentile(samples, pct)
}

/// Samples a run needs before [`tail`] reports percentile `pct`.
pub fn samples_for_tail(pct: usize) -> usize {
    (1..)
        .find(|&n| n - rank(n, pct) >= MIN_BEYOND)
        .expect("finite")
}

/// `num / den`, absent (never NaN or infinite) when `den` is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(10), 100), Some(10.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(90), 100);
        assert_eq!(tail(&ramp(99), 90), None);
        assert_eq!(tail(&ramp(100), 90), Some(90.0));
        assert_eq!(tail(&ramp(250), 90), Some(225.0));
        assert_eq!(tail(&[], 90), None);
        // The median of a small run is still a tail-free statistic.
        assert_eq!(tail(&ramp(20), 50), Some(10.0));
        assert_eq!(tail(&ramp(19), 50), None);
    }

    #[test]
    fn zero_denominator_ratio_is_absent() {
        assert_eq!(ratio(3.0, 0.0), None);
        assert_eq!(ratio(0.0, 0.0), None);
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        assert_eq!(ratio(0.0, 4.0), Some(0.0));
    }
}
