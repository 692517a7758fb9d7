//! Confidence intervals for trial means — the planner's stopping rule.
//!
//! The paper observes that combined variance sources "force a larger
//! number of trials to be performed to increase the level of confidence
//! in the mean value". The sweep planner turns that around: it keeps
//! running trials of a cell *until* the confidence interval of the mean
//! closes below a configured bound, then stops early and reports the
//! interval it stopped at.
//!
//! The math is the classic Student-t interval for a sample mean:
//! `x̄ ± t(df, confidence) · s / √n` with `df = n − 1`. The critical
//! values are a hardcoded two-sided table (the workspace builds offline
//! with no statistics dependency); between tabulated rows the *lower*
//! degrees-of-freedom row is used, which never understates `t`, so the
//! interval is conservative — it can only be wider than the exact one.
//!
//! Determinism: trial values are themselves deterministic functions of
//! `(config, base_seed, trial_index)`, so an interval computed over the
//! first `n` committed trials is bit-identical on every host and thread
//! count, and so is any stopping decision derived from it.

use crate::OnlineStats;

/// Tabulated two-sided Student-t critical values: `(df, t)` rows per
/// confidence level, ending in the normal-limit row used for large
/// `df`. Rows must be ascending in `df`.
const T_ROWS_90: [(u64, f64); 34] = [
    (1, 6.314),
    (2, 2.920),
    (3, 2.353),
    (4, 2.132),
    (5, 2.015),
    (6, 1.943),
    (7, 1.895),
    (8, 1.860),
    (9, 1.833),
    (10, 1.812),
    (11, 1.796),
    (12, 1.782),
    (13, 1.771),
    (14, 1.761),
    (15, 1.753),
    (16, 1.746),
    (17, 1.740),
    (18, 1.734),
    (19, 1.729),
    (20, 1.725),
    (21, 1.721),
    (22, 1.717),
    (23, 1.714),
    (24, 1.711),
    (25, 1.708),
    (26, 1.706),
    (27, 1.703),
    (28, 1.701),
    (29, 1.699),
    (30, 1.697),
    (40, 1.684),
    (60, 1.671),
    (120, 1.658),
    (u64::MAX, 1.645),
];

const T_ROWS_95: [(u64, f64); 34] = [
    (1, 12.706),
    (2, 4.303),
    (3, 3.182),
    (4, 2.776),
    (5, 2.571),
    (6, 2.447),
    (7, 2.365),
    (8, 2.306),
    (9, 2.262),
    (10, 2.228),
    (11, 2.201),
    (12, 2.179),
    (13, 2.160),
    (14, 2.145),
    (15, 2.131),
    (16, 2.120),
    (17, 2.110),
    (18, 2.101),
    (19, 2.093),
    (20, 2.086),
    (21, 2.080),
    (22, 2.074),
    (23, 2.069),
    (24, 2.064),
    (25, 2.060),
    (26, 2.056),
    (27, 2.052),
    (28, 2.048),
    (29, 2.045),
    (30, 2.042),
    (40, 2.021),
    (60, 2.000),
    (120, 1.980),
    (u64::MAX, 1.960),
];

const T_ROWS_99: [(u64, f64); 34] = [
    (1, 63.657),
    (2, 9.925),
    (3, 5.841),
    (4, 4.604),
    (5, 4.032),
    (6, 3.707),
    (7, 3.499),
    (8, 3.355),
    (9, 3.250),
    (10, 3.169),
    (11, 3.106),
    (12, 3.055),
    (13, 3.012),
    (14, 2.977),
    (15, 2.947),
    (16, 2.921),
    (17, 2.898),
    (18, 2.878),
    (19, 2.861),
    (20, 2.845),
    (21, 2.831),
    (22, 2.819),
    (23, 2.807),
    (24, 2.797),
    (25, 2.787),
    (26, 2.779),
    (27, 2.771),
    (28, 2.763),
    (29, 2.756),
    (30, 2.750),
    (40, 2.704),
    (60, 2.660),
    (120, 2.617),
    (u64::MAX, 2.576),
];

/// Two-sided Student-t critical value for a given confidence level and
/// degrees of freedom. Between tabulated rows the lower-`df` (larger
/// `t`) row applies, so the returned value never understates the exact
/// one.
///
/// # Panics
///
/// Panics if `df == 0` or `confidence` is not one of the supported
/// levels (0.90, 0.95, 0.99).
pub fn student_t_critical(confidence: f64, df: u64) -> f64 {
    assert!(df > 0, "Student-t needs at least one degree of freedom");
    let rows: &[(u64, f64)] = if (confidence - 0.90).abs() < 1e-9 {
        &T_ROWS_90
    } else if (confidence - 0.95).abs() < 1e-9 {
        &T_ROWS_95
    } else if (confidence - 0.99).abs() < 1e-9 {
        &T_ROWS_99
    } else {
        panic!("unsupported confidence level {confidence} (use 0.90, 0.95, or 0.99)");
    };
    // Largest tabulated df that does not exceed the requested df.
    rows.iter()
        .rev()
        .find(|&&(d, _)| d <= df)
        .map(|&(_, t)| t)
        .expect("table starts at df = 1")
}

/// A confidence interval for a sample mean: `mean ± half_width` at the
/// stated confidence level, over `count` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Number of values the interval summarizes.
    pub count: u64,
    /// The sample mean.
    pub mean: f64,
    /// Half-width of the interval (`t · s / √n`).
    pub half_width: f64,
    /// Confidence level (e.g. 0.95).
    pub confidence: f64,
}

impl MeanCi {
    /// Lower edge of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the interval covers `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.low() <= x && x <= self.high()
    }

    /// Half-width relative to the magnitude of the mean — the planner's
    /// stopping criterion. A degenerate zero-mean sample reports `0.0`
    /// when the half-width is also zero (an exact interval) and
    /// infinity otherwise (never tight enough to stop on).
    pub fn relative_half_width(&self) -> f64 {
        if self.half_width == 0.0 {
            0.0
        } else if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// The Student-t interval from already-computed summary parts.
///
/// Returns `None` when `count < 2` — one value has no spread to
/// estimate, so no honest interval exists.
pub fn mean_ci_from_parts(count: u64, mean: f64, stddev: f64, confidence: f64) -> Option<MeanCi> {
    if count < 2 {
        return None;
    }
    let t = student_t_critical(confidence, count - 1);
    Some(MeanCi {
        count,
        mean,
        half_width: t * stddev / (count as f64).sqrt(),
        confidence,
    })
}

/// The Student-t interval for the mean of a running accumulator.
///
/// Returns `None` when fewer than two values have been pushed.
pub fn mean_ci(stats: &OnlineStats, confidence: f64) -> Option<MeanCi> {
    mean_ci_from_parts(
        stats.count(),
        stats.mean(),
        stats.sample_stddev(),
        confidence,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn hand_computed_interval_matches() {
        // Values 1, 2, 3: mean 2, s = 1, n = 3, t(0.95, df=2) = 4.303.
        let mut acc = OnlineStats::new();
        for v in [1.0, 2.0, 3.0] {
            acc.push(v);
        }
        let ci = mean_ci(&acc, 0.95).expect("n = 3");
        assert_eq!(ci.count, 3);
        assert!((ci.mean - 2.0).abs() < 1e-12);
        let want = 4.303 * 1.0 / 3.0f64.sqrt();
        assert!((ci.half_width - want).abs() < 1e-9, "got {}", ci.half_width);
        assert!(ci.contains(2.0) && ci.contains(ci.low()) && ci.contains(ci.high()));
        assert!(!ci.contains(ci.high() + 1e-9));
        assert!((ci.relative_half_width() - want / 2.0).abs() < 1e-12);
    }

    #[test]
    fn fewer_than_two_values_yield_no_interval() {
        let mut acc = OnlineStats::new();
        assert!(mean_ci(&acc, 0.95).is_none());
        acc.push(42.0);
        assert!(mean_ci(&acc, 0.95).is_none());
        acc.push(42.0);
        let ci = mean_ci(&acc, 0.95).expect("two identical values");
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.relative_half_width(), 0.0, "exact interval is tight");
    }

    #[test]
    fn zero_mean_nonzero_spread_is_never_tight() {
        let ci = mean_ci_from_parts(4, 0.0, 1.0, 0.95).unwrap();
        assert!(ci.relative_half_width().is_infinite());
    }

    #[test]
    fn t_table_is_monotone_in_df_and_confidence() {
        for conf in [0.90, 0.95, 0.99] {
            let mut prev = f64::INFINITY;
            for df in 1..=200 {
                let t = student_t_critical(conf, df);
                assert!(t <= prev, "t must not grow with df ({conf}, {df})");
                assert!(t > 0.0);
                prev = t;
            }
        }
        for df in [1, 5, 30, 1000] {
            assert!(student_t_critical(0.90, df) < student_t_critical(0.95, df));
            assert!(student_t_critical(0.95, df) < student_t_critical(0.99, df));
        }
        // Conservative lookup: any large finite df rounds *down* to the
        // df = 120 row, never to the normal limit below it.
        assert!((student_t_critical(0.95, 1 << 20) - 1.980).abs() < 1e-12);
        assert!((student_t_critical(0.95, u64::MAX) - 1.960).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn unsupported_confidence_panics() {
        let _ = student_t_critical(0.42, 5);
    }

    #[test]
    #[should_panic(expected = "degree of freedom")]
    fn zero_df_panics() {
        let _ = student_t_critical(0.95, 0);
    }

    /// Property: for a fixed spread, the half-width strictly shrinks as
    /// the sample count grows — `t(n−1)` is non-increasing and `√n`
    /// strictly increasing. SplitMix64-driven over random spreads, the
    /// repo's always-on property-loop idiom.
    #[test]
    fn half_width_shrinks_monotonically_in_sample_count() {
        let mut rng = Rng::from_seed(0x005e_edc1);
        for _ in 0..50 {
            let stddev = rng.next_f64() * 1e6 + 1e-3;
            let conf = [0.90, 0.95, 0.99][rng.gen_range(0..3u64) as usize];
            let mut prev = f64::INFINITY;
            for n in 2..=150u64 {
                let hw = mean_ci_from_parts(n, 100.0, stddev, conf)
                    .unwrap()
                    .half_width;
                assert!(hw < prev, "half-width must shrink: n={n} {hw} !< {prev}");
                prev = hw;
            }
        }
    }

    /// Property: on synthetic populations with a known mean, the 95%
    /// interval covers the true mean at least ~nominally often. The
    /// population is an Irwin–Hall sum of 12 uniforms (≈ normal with
    /// known mean), SplitMix64-seeded so the check is deterministic.
    #[test]
    fn coverage_is_at_least_nominal_on_known_populations() {
        let mut rng = Rng::from_seed(0x005e_edc2);
        let (mu, sigma) = (1000.0, 25.0);
        let draw = |rng: &mut Rng| {
            let z: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            mu + sigma * z
        };
        for (n, experiments) in [(4usize, 400), (8, 400), (16, 200)] {
            let mut covered = 0;
            for _ in 0..experiments {
                let mut acc = OnlineStats::new();
                for _ in 0..n {
                    acc.push(draw(&mut rng));
                }
                if mean_ci(&acc, 0.95).unwrap().contains(mu) {
                    covered += 1;
                }
            }
            let rate = f64::from(covered) / f64::from(experiments);
            assert!(
                rate >= 0.92,
                "95% CI covered the true mean only {rate:.3} of the time at n={n}"
            );
        }
    }
}
