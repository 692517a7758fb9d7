//! Randomized properties of the trace-driven baseline. Each case draws
//! its inputs from its own SplitMix64 stream, a pure function of the
//! property's name and the case index, so a failing case replays
//! alone. Dependency-free; runs with the default `cargo test`.

use std::ops::Range;

use tapeworm_mem::VirtAddr;
use tapeworm_stats::{Rng, SeedSeq};
use tapeworm_trace::{Cache2000, Cache2000Config, StackDistance, TracePolicy};

const CASES: u64 = 256;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// A reference stream: `len` addresses, each uniform below `below`.
fn addrs(rng: &mut Rng, below: u64, len: Range<usize>) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(0..below)).collect()
}

fn vas(addrs: &[u64]) -> impl Iterator<Item = VirtAddr> + '_ {
    addrs.iter().map(|&a| VirtAddr::new(a))
}

/// Cache2000 conservation: hits + misses == references, and the
/// miss count never exceeds references nor falls below distinct
/// lines touched when the cache is large enough.
#[test]
fn cache2000_conservation() {
    for case in 0..CASES {
        let mut rng = case_rng("cache2000_conservation", case);
        let addrs = addrs(&mut rng, 16_384, 1..500);
        let kb = [1u64, 4, 32][rng.gen_range(0..3usize)];
        let mut sim = Cache2000::new(Cache2000Config::with_geometry(kb * 1024, 16, 1));
        sim.run(vas(&addrs));
        assert_eq!(sim.hits() + sim.misses(), sim.references(), "case {case}");
        let mut lines: Vec<u64> = addrs.iter().map(|a| a / 16).collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(sim.misses() >= lines.len() as u64, "case {case}");
        if kb == 32 {
            // 32K holds the whole 16K address range: cold misses only.
            assert_eq!(sim.misses(), lines.len() as u64, "case {case}");
        }
    }
}

/// Stack inclusion: miss counts are monotone non-increasing in
/// capacity for any reference string, and match a fully
/// associative LRU Cache2000 at any capacity.
#[test]
fn stack_distance_matches_lru() {
    for case in 0..CASES {
        let mut rng = case_rng("stack_distance_matches_lru", case);
        let addrs = addrs(&mut rng, 4_096, 1..300);
        let cap = 1usize << rng.gen_range(1..7u32);
        let mut stack = StackDistance::new(16);
        stack.run(vas(&addrs));
        let mut cfg = Cache2000Config::with_geometry(16 * cap as u64, 16, cap as u32);
        cfg.policy = TracePolicy::Lru;
        let mut lru = Cache2000::new(cfg);
        lru.run(vas(&addrs));
        assert_eq!(
            stack.misses_for_capacity(cap),
            lru.misses(),
            "case {case}: {cap} lines"
        );
        assert!(
            stack.misses_for_capacity(cap * 2) <= stack.misses_for_capacity(cap),
            "case {case}: {cap} lines"
        );
    }
}

/// LRU never does worse than FIFO... is false in general (Belady),
/// but both policies agree exactly on direct-mapped caches.
#[test]
fn policies_agree_when_direct_mapped() {
    for case in 0..CASES {
        let addrs = addrs(
            &mut case_rng("policies_agree_when_direct_mapped", case),
            8_192,
            1..300,
        );
        let run = |policy| {
            let mut cfg = Cache2000Config::with_geometry(1024, 16, 1);
            cfg.policy = policy;
            let mut sim = Cache2000::new(cfg);
            sim.run(vas(&addrs));
            sim.misses()
        };
        assert_eq!(run(TracePolicy::Lru), run(TracePolicy::Fifo), "case {case}");
    }
}
