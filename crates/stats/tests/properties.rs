//! Randomized properties of the statistics crate. Each case draws its
//! inputs from its own SplitMix64 stream, a pure function of the
//! property's name and the case index, so a failing case replays
//! alone. Dependency-free; runs with the default `cargo test`.

use std::ops::Range;

use tapeworm_stats::{OnlineStats, Rng, SeedSeq, Summary, Zipf};

const CASES: u64 = 256;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// `len` values, each uniform in `values`.
fn floats(rng: &mut Rng, values: Range<f64>, len: Range<usize>) -> Vec<f64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(values.clone())).collect()
}

#[test]
fn online_matches_naive() {
    for case in 0..CASES {
        let xs = floats(
            &mut case_rng("online_matches_naive", case),
            -1.0e6..1.0e6,
            1..200,
        );
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        assert!(
            (acc.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "case {case}"
        );
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            assert!(
                (acc.sample_variance() - var).abs() <= 1e-4 * (1.0 + var.abs()),
                "case {case}"
            );
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(acc.min(), min, "case {case}");
        assert_eq!(acc.max(), max, "case {case}");
    }
}

#[test]
fn merge_is_associative_enough() {
    for case in 0..CASES {
        let mut rng = case_rng("merge_is_associative_enough", case);
        let a = floats(&mut rng, -1.0e3..1.0e3, 1..50);
        let b = floats(&mut rng, -1.0e3..1.0e3, 1..50);
        let mut whole = OnlineStats::new();
        for &x in a.iter().chain(&b) {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        for &x in &a {
            left.push(x);
        }
        let mut right = OnlineStats::new();
        for &x in &b {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count(), "case {case}");
        assert!(
            (left.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()),
            "case {case}"
        );
        assert!(
            (left.sample_variance() - whole.sample_variance()).abs()
                < 1e-6 * (1.0 + whole.sample_variance().abs()),
            "case {case}"
        );
    }
}

#[test]
fn summary_invariants() {
    for case in 0..CASES {
        let xs = floats(
            &mut case_rng("summary_invariants", case),
            0.0..1.0e9,
            1..100,
        );
        let s = Summary::from_values(xs.iter().copied()).unwrap();
        assert!(s.min() <= s.mean() + 1e-6, "case {case}");
        assert!(s.mean() <= s.max() + 1e-6, "case {case}");
        assert!(s.range() >= -1e-9, "case {case}");
        assert!(s.stddev() >= 0.0, "case {case}");
        assert_eq!(s.count(), xs.len() as u64, "case {case}");
    }
}

#[test]
fn zipf_cdf_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng("zipf_cdf_monotone", case);
        let n = rng.gen_range(1..512usize);
        let s = rng.gen_range(0.0..3.0);
        let z = Zipf::new(n, s).unwrap();
        let mut prev = 0.0;
        let mut total = 0.0;
        for r in 0..n {
            let p = z.pmf(r);
            assert!(p >= 0.0, "case {case}");
            if s > 0.0 && r > 0 {
                // Monotone non-increasing mass in rank.
                assert!(p <= prev + 1e-12, "case {case}: n {n}, s {s}, rank {r}");
            }
            prev = p;
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-6, "case {case}: n {n}, s {s}");
    }
}

#[test]
fn zipf_rank_in_range() {
    for case in 0..CASES {
        let mut rng = case_rng("zipf_rank_in_range", case);
        let n = rng.gen_range(1..512usize);
        let s = rng.gen_range(0.0..3.0);
        let u = rng.gen_range(0.0..1.0);
        let z = Zipf::new(n, s).unwrap();
        assert!(z.rank_for(u) < n, "case {case}: n {n}, s {s}, u {u}");
    }
}

#[test]
fn seed_streams_do_not_collide() {
    for case in 0..CASES {
        let mut rng = case_rng("seed_streams_do_not_collide", case);
        let base = rng.next_u64();
        // Two distinct indices: redraw until they differ.
        let (i, j) = loop {
            let (i, j) = (rng.gen_range(0..1000u64), rng.gen_range(0..1000u64));
            if i != j {
                break (i, j);
            }
        };
        let s = SeedSeq::new(base);
        assert_ne!(s.derive("trial", i), s.derive("trial", j), "case {case}");
    }
}
