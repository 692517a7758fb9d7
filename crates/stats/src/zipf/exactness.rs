//! Exactness suite for the guide-table sampler: every path through
//! [`Zipf::rank_for`] must return the rank the plain CDF search returns,
//! and [`Zipf::sample`] must consume the generator exactly as before.

use super::*;

/// The inverse-CDF search as the sampler computed it before the guide
/// table: a linear scan over the first eight entries, then the library
/// binary search. Kept verbatim as the differential oracle.
fn reference(z: &Zipf, u: f64) -> usize {
    let cdf = &z.cdf;
    let head = cdf.len().min(8);
    for (i, &c) in cdf[..head].iter().enumerate() {
        if c == u {
            break;
        }
        if c > u {
            return i;
        }
    }
    match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite")) {
        Ok(i) => (i + 1).min(cdf.len() - 1),
        Err(i) => i.min(cdf.len() - 1),
    }
}

/// `(footprint_kb, zipf_exponent, hot_fraction)` of every procedure
/// stream in the workload table (`tapeworm_workload::spec`), with 256-byte
/// nominal procedures.
const STREAMS: [(usize, f64, f64); 26] = [
    (2, 1.5, 1.0),
    (6, 1.4, 1.0),
    (8, 0.3, 1.0),
    (12, 1.2, 0.1667),
    (16, 0.9, 0.25),
    (16, 0.9, 1.0),
    (16, 1.0, 0.125),
    (24, 0.4, 0.08),
    (24, 0.5, 0.08),
    (24, 0.8, 1.0),
    (28, 0.5, 0.08),
    (32, 0.1, 1.0),
    (32, 0.5, 0.08),
    (32, 0.7, 0.1875),
    (36, 0.5, 0.08),
    (40, 0.2, 1.0),
    (40, 0.5, 0.08),
    (44, 0.5, 0.08),
    (48, 0.5, 0.08),
    (52, 0.4, 0.08),
    (52, 0.5, 0.08),
    (56, 0.05, 1.0),
    (56, 0.5, 0.08),
    // StreamParams::tight and ::sprawling.
    (8, 1.1, 0.25),
    (8, 0.6, 1.0),
    (64, 0.6, 1.0),
];

/// The `(n, s)` classes the streams build: each procedure stream's hot
/// and cold classes at its nominal procedure count, and the data stream
/// over 128-byte blocks of twice the text footprint (exponent 0.8).
fn spec_classes() -> Vec<(usize, f64)> {
    let mut classes = Vec::new();
    for &(kb, s, hot_fraction) in &STREAMS {
        let n = kb * 1024 / 256;
        let hot = ((n as f64 * hot_fraction).round() as usize).clamp(1, n);
        classes.push((hot, s));
        if n > hot {
            classes.push((n - hot, s));
        }
        classes.push(((2 * kb * 1024).max(4096) / 128, 0.8));
    }
    classes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    classes.dedup();
    classes
}

/// The grid integer of `u`, when `Rng::next_f64` can draw it.
fn on_grid(u: f64) -> Option<u64> {
    let k = u * (1u64 << GRID_BITS) as f64;
    ((0.0..1.0).contains(&u) && grid_f64(k as u64) == u).then_some(k as u64)
}

/// The grid integer of a variate `Rng::next_f64` can draw.
fn grid(u: f64) -> u64 {
    on_grid(u).unwrap_or_else(|| panic!("{u:e} is not a grid variate"))
}

/// Checks `rank_for` against the oracle at `u` and at its two float
/// neighbours inside `[0, 1)`.
fn check_around(z: &Zipf, u: f64) {
    let below = f64::from_bits(u.to_bits().wrapping_sub(1));
    let above = f64::from_bits(u.to_bits() + 1);
    for v in [below, u, above] {
        if (0.0..1.0).contains(&v) {
            assert_eq!(z.rank_for(v), reference(z, v), "n={} u={v:e}", z.len());
        }
    }
}

#[test]
fn samples_match_the_reference_search_on_every_spec_class() {
    let classes = spec_classes();
    assert!(classes.len() >= 20, "{} classes", classes.len());
    for (i, &(n, s)) in classes.iter().enumerate() {
        let z = Zipf::new(n, s).unwrap();
        let mut rng = Rng::from_seed(0x5eed_0000 + i as u64);
        let mut oracle = rng.clone();
        for _ in 0..1_000_000 {
            let got = z.sample(&mut rng);
            let want = reference(&z, oracle.next_f64());
            assert_eq!(got, want, "n={n} s={s}");
        }
        // One next_u64 per draw, in the same order.
        assert_eq!(rng, oracle, "n={n} s={s}");
    }
}

#[test]
fn bucket_boundaries_and_cdf_entries_match_the_reference_search() {
    let mut classes = spec_classes();
    for n in 1..=130 {
        for s in [0.0, 0.05, 0.5, 0.7, 1.0, 1.5, 3.0] {
            classes.push((n, s));
        }
    }
    for (n, s) in classes {
        let z = Zipf::new(n, s).unwrap();
        let m = z.guide.len();
        assert!(m.is_power_of_two() && m >= n);
        assert!(
            z.cdf.windows(2).all(|w| w[0] < w[1] || w[0] == 1.0),
            "n={n} s={s}: an entry below 1.0 repeats"
        );
        assert_eq!(m, 1 << (GRID_BITS - z.shift));
        for j in 0..m {
            let boundary = j as f64 / m as f64;
            assert_eq!(z.guided(grid(boundary)), None, "a floor takes the fallback");
            check_around(&z, boundary);
        }
        for &c in &z.cdf {
            // An entry below 1/2 may be finer than the grid; no draw
            // can then equal it.
            if let Some(k) = on_grid(c) {
                assert_eq!(z.guided(k), None, "an equal entry takes the fallback");
            }
            check_around(&z, c);
        }
    }
}

#[test]
fn guide_entries_are_the_first_rank_above_each_bucket_floor() {
    for (n, s) in spec_classes() {
        let z = Zipf::new(n, s).unwrap();
        for (j, &g) in z.guide.iter().enumerate() {
            let floor = j as f64 / z.guide.len() as f64;
            let first = z.cdf.iter().position(|&c| c > floor).unwrap();
            assert_eq!(g as usize, first, "n={n} s={s} j={j}");
        }
    }
}

#[test]
fn single_rank_domain_always_answers_zero() {
    let z = Zipf::new(1, 1.0).unwrap();
    assert!(z.guide.iter().all(|&g| g == 0));
    let mut rng = Rng::from_seed(1);
    for _ in 0..10_000 {
        assert_eq!(z.sample(&mut rng), 0);
    }
    for u in [0.0, 0.5, f64::from_bits(1.0f64.to_bits() - 1)] {
        assert_eq!(z.rank_for(u), 0);
    }
}

#[test]
fn uniform_domains_match_the_reference_search() {
    for n in 1..=300 {
        let z = Zipf::new(n, 0.0).unwrap();
        let mut rng = Rng::from_seed(n as u64);
        let mut oracle = rng.clone();
        for _ in 0..2_000 {
            assert_eq!(
                z.sample(&mut rng),
                reference(&z, oracle.next_f64()),
                "n={n}"
            );
        }
        for k in 0..n {
            check_around(&z, k as f64 / n as f64);
        }
    }
}

#[test]
fn large_high_exponent_domain_with_a_saturated_tail_matches_the_reference_search() {
    // With s = 4 the tail terms fall below half an ulp of the running
    // sum, so every rank past the saturation point shares the entry 1.0.
    let z = Zipf::new(1 << 16, 4.0).unwrap();
    let duplicates = z.cdf.windows(2).filter(|w| w[0] == w[1]).count();
    assert!(duplicates > 1000, "{duplicates} duplicate entries");
    for &c in &z.cdf {
        check_around(&z, c);
    }
    assert_eq!(z.rank_for(1.0), reference(&z, 1.0));
    let mut rng = Rng::from_seed(0xd0b1e);
    let mut oracle = rng.clone();
    for _ in 0..1_000_000 {
        assert_eq!(z.sample(&mut rng), reference(&z, oracle.next_f64()));
    }
}

#[test]
fn interior_duplicate_entries_resolve_through_the_equality_fallback() {
    // `Zipf::new` repeats an entry only in the saturated tail, where it
    // is 1.0 and no variate in [0, 1) can equal it. Runs of equal
    // entries below 1.0 are built by hand so the equality fallback
    // decides among them exactly as the reference search does. Entries
    // in [1/2, 1) are grid variates, so draws can equal them.
    let cdfs: [&[f64]; 4] = [
        &[0.1, 0.55, 0.55, 0.55, 0.6, 0.6, 0.7, 1.0, 1.0],
        &[0.6, 0.6, 0.6, 0.6, 0.6, 1.0],
        &[0.0, 0.0, 0.2, 0.65, 0.65, 0.65, 0.65, 0.9, 1.0],
        // Dyadic entries: every one sits on a bucket boundary.
        &[0.1, 0.25, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0],
    ];
    for cdf in cdfs {
        let z = Zipf::from_cdf(cdf.to_vec());
        for w in cdf.windows(2).filter(|w| w[0] == w[1] && w[0] < 1.0) {
            assert_eq!(z.guided(grid(w[0])), None, "equal entry {}", w[0]);
        }
        for &c in cdf {
            check_around(&z, c);
        }
        let mut rng = Rng::from_seed(cdf.len() as u64);
        let mut oracle = rng.clone();
        for _ in 0..100_000 {
            assert_eq!(z.sample(&mut rng), reference(&z, oracle.next_f64()));
        }
    }
}

#[test]
fn out_of_domain_variates_match_the_reference_search() {
    let z = Zipf::new(24, 0.7).unwrap();
    for u in [-1.0, -0.0, 1.0, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(z.rank_for(u), reference(&z, u), "u={u}");
    }
}

#[test]
fn first_ranks_of_a_fixed_seed_are_pinned() {
    // mpeg_play's user hot class: 24 procedures, exponent 0.7.
    let z = Zipf::new(24, 0.7).unwrap();
    let mut rng = Rng::from_seed(1994);
    let ranks: Vec<usize> = (0..64).map(|_| z.sample(&mut rng)).collect();
    let golden = [
        0, 3, 18, 9, 16, 1, 6, 2, 4, 18, 18, 8, 19, 3, 2, 2, 12, 18, 0, 1, 8, 0, 13, 5, 3, 0, 16,
        2, 11, 4, 15, 15, 1, 0, 22, 19, 3, 0, 3, 2, 5, 9, 8, 4, 22, 2, 22, 1, 21, 11, 1, 19, 2, 3,
        8, 0, 15, 4, 8, 1, 13, 5, 10, 2,
    ];
    assert_eq!(ranks, golden);
}
