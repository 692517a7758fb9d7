//! Randomized properties of the experiment engine, at tiny instruction
//! scale so hundreds of full-system trials stay fast. Each case draws
//! its inputs from its own SplitMix64 stream, a pure function of the
//! property's name and the case index, so a failing case replays
//! alone. Dependency-free; runs with the default `cargo test`.

use tapeworm_core::{CacheConfig, Indexing};
use tapeworm_sim::{run_trial, run_trial_windowed, AllocPolicy, ComponentSet, SystemConfig};
use tapeworm_stats::{Rng, SeedSeq};
use tapeworm_workload::Workload;

const TINY: u64 = 20_000; // mpeg_play: ~71k instructions
const CASES: u64 = 24;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

fn any_workload(rng: &mut Rng) -> Workload {
    Workload::ALL[rng.gen_range(0..8usize)]
}

fn any_cache(rng: &mut Rng) -> CacheConfig {
    let kb = [1u64, 2, 4, 16][rng.gen_range(0..4usize)];
    let ways = [1u32, 2][rng.gen_range(0..2usize)];
    let c = CacheConfig::new(kb * 1024, 16, ways).unwrap();
    if rng.gen() {
        c.with_indexing(Indexing::Virtual)
    } else {
        c
    }
}

/// The engine is a pure function of its two seeds for any
/// workload/cache combination.
#[test]
fn trials_are_deterministic() {
    for case in 0..CASES {
        let mut rng = case_rng("trials_are_deterministic", case);
        let (w, cache) = (any_workload(&mut rng), any_cache(&mut rng));
        let (base, trial) = (rng.next_u64(), rng.next_u64());
        let cfg = SystemConfig::cache(w, cache).with_scale(TINY);
        let a = run_trial(&cfg, SeedSeq::new(base), SeedSeq::new(trial));
        let b = run_trial(&cfg, SeedSeq::new(base), SeedSeq::new(trial));
        assert_eq!(a, b, "case {case}: {w:?} {cache:?}");
    }
}

/// Conservation: every component's misses are bounded by the
/// instructions it could have executed, and totals are internally
/// consistent.
#[test]
fn results_are_internally_consistent() {
    for case in 0..CASES {
        let mut rng = case_rng("results_are_internally_consistent", case);
        let (w, cache) = (any_workload(&mut rng), any_cache(&mut rng));
        let seed = rng.next_u64();
        let cfg = SystemConfig::cache(w, cache).with_scale(TINY);
        let r = run_trial(&cfg, SeedSeq::new(seed), SeedSeq::new(seed ^ 1));
        let at = format!("case {case}: {w:?} {cache:?}");
        assert!(r.total_misses() >= 0.0, "{at}");
        // At one trap per line of 4 instructions, misses can't exceed
        // references... with generous slack for data structures.
        assert!(r.total_misses() <= r.instructions as f64, "{at}");
        assert!(r.workload_cycles >= r.instructions, "{at}"); // CPI >= 1
        assert!(r.slowdown() >= 0.0, "{at}");
        assert!(r.page_faults > 0, "{at}: demand paging must occur");
        // At tiny instruction budgets not every fork is reached, but
        // task creation never exceeds the Table 4 count.
        assert!(r.tasks_created >= 1, "{at}");
        assert!(
            r.tasks_created <= u64::from(w.spec().user_task_count),
            "{at}"
        );
    }
}

/// Measuring a subset of components never yields more misses than
/// measuring all of them (with identical seeds).
#[test]
fn subsets_never_exceed_all_activity() {
    for case in 0..CASES {
        let mut rng = case_rng("subsets_never_exceed_all_activity", case);
        let w = any_workload(&mut rng);
        let seed = rng.next_u64();
        let cache = CacheConfig::new(4096, 16, 1).unwrap();
        let all = run_trial(
            &SystemConfig::cache(w, cache).with_scale(TINY),
            SeedSeq::new(seed),
            SeedSeq::new(7),
        );
        let user = run_trial(
            &SystemConfig::cache(w, cache)
                .with_components(ComponentSet::user_only())
                .with_scale(TINY),
            SeedSeq::new(seed),
            SeedSeq::new(7),
        );
        assert!(
            user.total_misses() <= all.total_misses() + 1e-9,
            "case {case}: {w:?}"
        );
    }
}

/// Windowed monitoring partitions the raw miss count exactly.
#[test]
fn windows_partition_the_miss_count() {
    for case in 0..CASES {
        let seed = case_rng("windows_partition_the_miss_count", case).next_u64();
        let cache = CacheConfig::new(2048, 16, 1).unwrap();
        let cfg = SystemConfig::cache(Workload::Espresso, cache).with_scale(TINY);
        let (r, windows) = run_trial_windowed(&cfg, SeedSeq::new(seed), SeedSeq::new(3), 5_000);
        let windowed: u64 = windows.iter().map(|w| w.misses).sum();
        // The final partial window is not emitted; the sum must be a
        // lower bound within one window of the total raw misses.
        let raw: u64 = tapeworm_machine::Component::ALL
            .iter()
            .map(|&c| r.raw_misses(c))
            .sum();
        assert!(windowed <= raw, "case {case}");
        let mut prev = 0;
        for w in &windows {
            assert!(w.end_instructions > prev, "case {case}");
            prev = w.end_instructions;
        }
    }
}

/// Allocation policies are orthogonal to virtual-indexed results:
/// the allocator cannot affect a VA-indexed cache's miss count.
#[test]
fn allocator_is_invisible_to_virtual_indexing() {
    for case in 0..CASES {
        let seed = case_rng("allocator_is_invisible_to_virtual_indexing", case).next_u64();
        let cache = CacheConfig::new(8192, 16, 1)
            .unwrap()
            .with_indexing(Indexing::Virtual);
        let run = |alloc| {
            run_trial(
                &SystemConfig::cache(Workload::Xlisp, cache)
                    .with_scale(TINY)
                    .with_alloc(alloc),
                SeedSeq::new(seed),
                SeedSeq::new(9),
            )
            .total_misses()
        };
        let random = run(AllocPolicy::Random);
        let seq = run(AllocPolicy::Sequential);
        let colored = run(AllocPolicy::Coloring(64));
        assert_eq!(random, seq, "case {case}");
        assert_eq!(seq, colored, "case {case}");
    }
}
