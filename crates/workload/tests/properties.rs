//! Randomized properties of the workload models. Each case draws its
//! inputs from its own SplitMix64 stream, a pure function of the
//! property's name and the case index, so a failing case replays
//! alone. Dependency-free; runs with the default `cargo test`.

use tapeworm_stats::{Rng, SeedSeq};
use tapeworm_workload::{DataParams, DataStream, ProcStream, RefStream, StreamParams, Workload};

const CASES: u64 = 256;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// Any valid stream parameterization.
fn any_params(rng: &mut Rng) -> StreamParams {
    let kb = rng.gen_range(1..64u64); // footprint KiB
    let proc_bytes = [64u64, 128, 256, 512][rng.gen_range(0..4usize)];
    let zipf_exponent = rng.gen_range(0.0..2.0);
    let hot_fraction = rng.gen_range(0.05..1.0);
    let hot_prob = rng.gen_range(0.0..1.0);
    let loop_min = rng.gen_range(1..4u32);
    let loop_extra = rng.gen_range(0..8u32);
    StreamParams {
        footprint_bytes: (kb * 1024).max(proc_bytes),
        proc_bytes,
        zipf_exponent,
        hot_fraction,
        hot_prob,
        loop_min,
        loop_max: loop_min + loop_extra,
    }
}

/// Every run from any valid parameterization stays inside the
/// footprint and consists of whole words.
#[test]
fn runs_always_in_bounds() {
    for case in 0..CASES {
        let mut rng = case_rng("runs_always_in_bounds", case);
        let params = any_params(&mut rng);
        let base = 0x40_0000u64;
        let mut s = ProcStream::new(base, params, SeedSeq::new(rng.next_u64()));
        for _ in 0..300 {
            let run = s.next_run();
            assert!(run.words >= 1, "case {case}: {params:?}");
            assert!(run.va.raw() >= base, "case {case}: {params:?}");
            assert!(
                run.va.raw() + u64::from(run.words) * 4 <= base + params.footprint_bytes,
                "case {case}: {params:?}"
            );
        }
    }
}

/// Streams are pure functions of (base, params, seed).
#[test]
fn streams_are_deterministic() {
    for case in 0..CASES {
        let mut rng = case_rng("streams_are_deterministic", case);
        let params = any_params(&mut rng);
        let seed = rng.next_u64();
        let mut a = ProcStream::new(0x1000, params, SeedSeq::new(seed));
        let mut b = ProcStream::new(0x1000, params, SeedSeq::new(seed));
        for _ in 0..100 {
            assert_eq!(a.next_run(), b.next_run(), "case {case}: {params:?}");
        }
    }
}

/// Data pacing is exact: over any sequence of instruction batches,
/// total refs equal floor densities of the total.
#[test]
fn data_pacing_is_exact() {
    for case in 0..CASES {
        let mut rng = case_rng("data_pacing_is_exact", case);
        let params = DataParams::default_for_text(16 * 1024);
        let mut s = DataStream::new(0x2000_0000, params, SeedSeq::new(1));
        let mut refs = 0u64;
        let mut instr = 0u64;
        for _ in 0..rng.gen_range(1..40usize) {
            let b = rng.gen_range(1..500u64);
            refs += s.refs_for(b).len() as u64;
            instr += b;
        }
        let expect = instr * u64::from(params.loads_per_kinstr) / 1000
            + instr * u64::from(params.stores_per_kinstr) / 1000;
        // Fractional accumulators may hold back at most one load and
        // one store.
        assert!(refs <= expect + 2, "case {case}: {refs} refs for {instr}");
        assert!(refs + 2 >= expect, "case {case}: {refs} refs for {instr}");
    }
}

/// Every workload spec produces a usable stream for every
/// component with any seed.
#[test]
fn all_specs_stream() {
    for case in 0..CASES {
        let mut rng = case_rng("all_specs_stream", case);
        let seed = rng.next_u64();
        let w = Workload::ALL[rng.gen_range(0..8usize)];
        let spec = w.spec();
        for params in [
            spec.user_stream,
            spec.kernel_stream,
            spec.bsd_stream,
            spec.x_stream,
        ] {
            let mut s = ProcStream::new(0x10_0000, params, SeedSeq::new(seed));
            assert!(s.next_run().words > 0, "case {case}: {w:?}");
        }
    }
}
