//! Randomized properties of the Tapeworm core.
//!
//! The central property: for registered pages under physical indexing,
//! a line is trapped **iff** its set is sampled and the line is not in
//! the simulated cache. Any reference sequence must preserve it. Each
//! case draws its inputs from its own SplitMix64 stream, a pure
//! function of the property's name and the case index, so a failing
//! case replays alone. Dependency-free; runs with the default
//! `cargo test`.

use std::ops::Range;

use tapeworm_core::{CacheConfig, Indexing, Replacement, SetSample, Tapeworm};
use tapeworm_machine::Component;
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr};
use tapeworm_os::Tid;
use tapeworm_stats::{Rng, SeedSeq};

const PAGE: u64 = 4096;
const MEM: u64 = 1 << 20;
const CASES: u64 = 64;
/// A stream that once broke a single-page property; replayed as case 0.
const PINNED: [u64; 2] = [3488, 3488];

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// A reference stream: `len` addresses, each uniform below `below`.
fn addrs(rng: &mut Rng, below: u64, len: Range<usize>) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(0..below)).collect()
}

/// The single-page streams: the pinned one, then `CASES` random ones.
fn page_streams(property: &str, len: Range<usize>) -> impl Iterator<Item = Vec<u64>> + '_ {
    std::iter::once(PINNED.to_vec())
        .chain((0..CASES).map(move |case| addrs(&mut case_rng(property, case), PAGE, len.clone())))
}

fn drive(tw: &mut Tapeworm, traps: &mut TrapMap, tid: Tid, refs: &[u64]) -> u64 {
    // Simulate the hardware loop: trapped -> handler; else full speed.
    let mut misses = 0;
    for &addr in refs {
        let pa = PhysAddr::new(addr);
        if traps.is_trapped(pa) {
            tw.handle_miss(traps, Component::User, tid, VirtAddr::new(addr), pa);
            misses += 1;
        }
    }
    misses
}

fn distinct_lines(addrs: &[u64]) -> u64 {
    let mut lines: Vec<u64> = addrs.iter().map(|a| a / 16).collect();
    lines.sort_unstable();
    lines.dedup();
    lines.len() as u64
}

/// The trap/cache duality invariant survives arbitrary reference
/// sequences, for several geometries and policies.
#[test]
fn trap_cache_duality() {
    for case in 0..CASES {
        let mut rng = case_rng("trap_cache_duality", case);
        let refs = addrs(&mut rng, 4 * PAGE, 1..300);
        let size_kb = [1u64, 2, 4, 8][rng.gen_range(0..4usize)];
        let ways = [1u32, 2, 4][rng.gen_range(0..3usize)];
        let random_repl: bool = rng.gen();

        let mut cfg = CacheConfig::new(size_kb * 1024, 16, ways).unwrap();
        if random_repl {
            cfg = cfg.with_replacement(Replacement::Random);
        }
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(7));
        let mut traps = TrapMap::new(MEM, 16);
        let tid = Tid::new(1);
        for p in 0..4 {
            tw.tw_register_page(&mut traps, tid, Pfn::new(p), p);
        }
        drive(&mut tw, &mut traps, tid, &refs);
        if let Err(e) = tw.validate_invariant(&traps) {
            panic!("case {case} ({size_kb} KiB, {ways}-way, random {random_repl}): {e:?}");
        }
    }
}

/// Re-referencing an address immediately after a miss never misses
/// again (it is cached), for any single-page stream.
#[test]
fn no_double_miss_on_same_line() {
    for addrs in page_streams("no_double_miss_on_same_line", 1..100) {
        let cfg = CacheConfig::new(8 * 1024, 16, 1).unwrap();
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1));
        let mut traps = TrapMap::new(MEM, 16);
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        for &a in &addrs {
            let pa = PhysAddr::new(a);
            if traps.is_trapped(pa) {
                tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(a), pa);
            }
            // A page-sized footprint fits an 8K cache entirely: once
            // cached, the line can never be displaced.
            assert!(!traps.is_trapped(pa), "{a:#x} missed twice in {addrs:?}");
        }
    }
}

/// Miss count equals the number of distinct lines touched when the
/// footprint fits in the cache (cold misses only).
#[test]
fn cold_misses_equal_distinct_lines() {
    for addrs in page_streams("cold_misses_equal_distinct_lines", 1..200) {
        let cfg = CacheConfig::new(8 * 1024, 16, 1).unwrap();
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1));
        let mut traps = TrapMap::new(MEM, 16);
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        let misses = drive(&mut tw, &mut traps, tid, &addrs);
        assert_eq!(misses, distinct_lines(&addrs), "{addrs:?}");
        assert_eq!(tw.stats().raw_total(), misses, "{addrs:?}");
    }
}

/// Sampling measures a strict subset: sampled misses never exceed
/// the full-trace misses for the same reference string, and traps
/// only ever appear on sampled sets.
#[test]
fn sampling_is_a_subset() {
    for case in 0..CASES {
        let mut rng = case_rng("sampling_is_a_subset", case);
        let addrs = addrs(&mut rng, 2 * PAGE, 1..200);
        let den = [2u64, 4, 8][rng.gen_range(0..3usize)];

        let cfg = CacheConfig::new(1024, 16, 1).unwrap(); // 64 sets
        let tid = Tid::new(1);

        let mut full = Tapeworm::new(cfg, PAGE, SeedSeq::new(3));
        let mut full_traps = TrapMap::new(MEM, 16);
        full.tw_register_page(&mut full_traps, tid, Pfn::new(0), 0);
        full.tw_register_page(&mut full_traps, tid, Pfn::new(1), 1);
        let full_misses = drive(&mut full, &mut full_traps, tid, &addrs);

        let sample = SetSample::new(den, SeedSeq::new(11));
        let mut sampled = Tapeworm::new(cfg, PAGE, SeedSeq::new(3)).with_sampling(sample);
        let mut s_traps = TrapMap::new(MEM, 16);
        sampled.tw_register_page(&mut s_traps, tid, Pfn::new(0), 0);
        sampled.tw_register_page(&mut s_traps, tid, Pfn::new(1), 1);
        let sampled_misses = drive(&mut sampled, &mut s_traps, tid, &addrs);

        assert!(sampled_misses <= full_misses, "case {case}");
        for g in s_traps.iter_trapped() {
            let set = g % 64;
            assert!(
                sample.is_sampled(set),
                "case {case}: trap on unsampled set {set}"
            );
        }
        assert!(sampled.validate_invariant(&s_traps).is_ok(), "case {case}");
    }
}

/// Virtual indexing with tid tags keeps same-VA streams of two
/// tasks on private pages independent — given enough ways for both
/// tags to coexist in the shared set (in a direct-mapped cache the
/// two tasks would ping-pong, which is correct cache behaviour).
#[test]
fn virtual_indexing_separates_tasks() {
    for addrs in page_streams("virtual_indexing_separates_tasks", 1..100) {
        let cfg = CacheConfig::new(64 * 1024, 16, 2)
            .unwrap()
            .with_indexing(Indexing::Virtual);
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1));
        let mut traps = TrapMap::new(MEM, 16);
        let (t1, t2) = (Tid::new(1), Tid::new(2));
        tw.tw_register_page(&mut traps, t1, Pfn::new(0), 0);
        tw.tw_register_page(&mut traps, t2, Pfn::new(1), 0);
        // Interleave the two tasks over the same VAs (different frames).
        let mut misses = 0;
        for &a in &addrs {
            for (tid, frame) in [(t1, 0u64), (t2, PAGE)] {
                let pa = PhysAddr::new(frame + a);
                if traps.is_trapped(pa) {
                    tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(a), pa);
                    misses += 1;
                }
            }
        }
        // Each task takes its own cold misses on its own frame.
        assert_eq!(misses, 2 * distinct_lines(&addrs), "{addrs:?}");
    }
}
