//! Randomized properties of the machine crate. Each case draws its
//! inputs from its own SplitMix64 stream, a pure function of the
//! property's name and the case index, so a failing case replays
//! alone. Dependency-free; runs with the default `cargo test`.

use std::collections::BTreeSet;

use tapeworm_machine::{
    AccessKind, DmaEngine, FetchOutcome, IntervalClock, Machine, MachineConfig, Tlb, TlbOutcome,
};
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr, WritePolicy};
use tapeworm_stats::{Rng, SeedSeq};

const CASES: u64 = 256;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// The clock fires exactly floor(total / period) interrupts no
/// matter how the advance is chunked.
#[test]
fn clock_firing_is_chunking_invariant() {
    for case in 0..CASES {
        let mut rng = case_rng("clock_firing_is_chunking_invariant", case);
        let period = rng.gen_range(1..10_000u64);
        let chunks: Vec<u64> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen_range(0..5_000u64))
            .collect();
        let total: u64 = chunks.iter().sum();
        let mut chunked = IntervalClock::new(period);
        let mut n = 0;
        for c in &chunks {
            n += chunked.advance(*c);
        }
        let mut whole = IntervalClock::new(period);
        let m = whole.advance(total);
        assert_eq!(n, m, "case {case}");
        assert_eq!(n, total / period, "case {case}");
    }
}

/// A TLB with n entries holds at most n translations: after probing
/// k <= wired-free entries inserted, all are hits.
#[test]
fn tlb_holds_working_set_up_to_capacity() {
    for case in 0..CASES {
        let mut rng = case_rng("tlb_holds_working_set_up_to_capacity", case);
        // Leave the one wired slot out: redraw until pages < cap.
        let (cap, pages) = loop {
            let (cap, pages) = (rng.gen_range(2..32usize), rng.gen_range(1..31usize));
            if pages < cap {
                break (cap, pages);
            }
        };
        let mut tlb = Tlb::new(cap, 1, 4096, SeedSeq::new(1));
        for p in 0..pages as u64 {
            let va = VirtAddr::new(p * 4096);
            assert_eq!(tlb.probe(1, va), TlbOutcome::Miss, "case {case}");
            tlb.refill(1, va, Pfn::new(p));
        }
        for p in 0..pages as u64 {
            let va = VirtAddr::new(p * 4096);
            assert_eq!(
                tlb.probe(1, va),
                TlbOutcome::Hit(Pfn::new(p)),
                "case {case}: {pages} pages in {cap} entries"
            );
        }
    }
}

/// Machine access outcomes are a pure function of trap state,
/// access kind, write policy and interrupt mask.
#[test]
fn access_outcome_table() {
    for case in 0..CASES {
        let mut rng = case_rng("access_outcome_table", case);
        let trapped: bool = rng.gen();
        let enabled: bool = rng.gen();
        let kind =
            [AccessKind::IFetch, AccessKind::Load, AccessKind::Store][rng.gen_range(0..3usize)];
        let policy = if rng.gen() {
            WritePolicy::NoAllocateOnWrite
        } else {
            WritePolicy::AllocateOnWrite
        };
        let mut m = Machine::new(MachineConfig {
            mem_bytes: 1 << 16,
            trap_granule: 16,
            clock_period: 1000,
            breakpoint_registers: 0,
            write_policy: policy,
        });
        let pa = PhysAddr::new(0x400);
        let va = VirtAddr::new(0x400);
        if trapped {
            m.traps_mut().set_range(pa, 16);
        }
        m.set_interrupts_enabled(enabled);
        let out = m.access(kind, va, pa);
        let expect = match (trapped, kind, policy, enabled) {
            (false, ..) => FetchOutcome::Run,
            (true, AccessKind::Store, WritePolicy::NoAllocateOnWrite, _) => {
                FetchOutcome::WriteTrapDestroyed
            }
            (true, _, _, true) => FetchOutcome::EccTrap,
            (true, _, _, false) => FetchOutcome::MaskedEccSkipped,
        };
        assert_eq!(out, expect, "case {case}: {kind:?} {policy:?}");
    }
}

/// DMA destroys exactly the armed granules its window overlaps —
/// no more, no fewer — and re-arming precisely those granules
/// restores the trap set bit-exactly (the §4.3 OS recovery
/// contract the failure-injection suite exercises end to end).
#[test]
fn dma_destroys_exactly_the_overlap_and_rearm_restores() {
    const GRANULE: u64 = 16;
    const GRANULES: u64 = 64;
    for case in 0..CASES {
        let mut rng = case_rng("dma_destroys_exactly_the_overlap_and_rearm_restores", case);
        // A set of up to 39 distinct armed granules.
        let target = rng.gen_range(0..40usize);
        let mut armed = BTreeSet::new();
        while armed.len() < target {
            armed.insert(rng.gen_range(0..GRANULES));
        }
        let start_g = rng.gen_range(0..GRANULES);
        let len_g = rng.gen_range(1..32u64);

        let mut traps = TrapMap::new(GRANULES * GRANULE, GRANULE);
        for &g in &armed {
            traps.set_range(PhysAddr::new(g * GRANULE), GRANULE);
        }
        let snapshot = traps.clone();

        let start = start_g * GRANULE;
        let size = (len_g * GRANULE).min(GRANULES * GRANULE - start);
        let mut dma = DmaEngine::new();
        let destroyed = dma.transfer(&mut traps, PhysAddr::new(start), size);

        let touched = start_g..start_g + size / GRANULE;
        let overlapped: Vec<u64> = armed
            .iter()
            .copied()
            .filter(|g| touched.contains(g))
            .collect();
        assert_eq!(
            destroyed,
            overlapped.len() as u64,
            "case {case}: destroyed = armed ∩ window"
        );
        for &g in &overlapped {
            assert!(!traps.is_trapped(PhysAddr::new(g * GRANULE)), "case {case}");
            traps.set_range(PhysAddr::new(g * GRANULE), GRANULE);
        }
        assert_eq!(traps, snapshot, "case {case}");
    }
}

/// The O(1) per-frame trapped-granule counts behind
/// `TrapMap::frame_clean` never drift from the raw bitmap, no
/// matter how arms, disarms, sampled arms, and DMA strikes with
/// OS re-arm are interleaved — the safety condition of the
/// resident-run fast path.
#[test]
fn frame_counts_survive_dma_and_rearm() {
    const FRAME: u64 = 4096; // TrapMap::FRAME_BYTES
    const MEM: u64 = 8 * FRAME;
    const GRANULE: u64 = 16;
    for case in 0..CASES {
        let mut rng = case_rng("frame_counts_survive_dma_and_rearm", case);
        let mut traps = TrapMap::new(MEM, GRANULE);
        let mut dma = DmaEngine::new();
        for _ in 0..rng.gen_range(1..40usize) {
            let op = rng.gen_range(0..4u8);
            let start = rng.gen_range(0..MEM);
            let size = rng.gen_range(1..9000u64);
            let pa = PhysAddr::new(start);
            match op {
                0 => traps.set_range(pa, size),
                1 => traps.clear_range(pa, size),
                2 => traps.set_range_filtered(pa, size, |g| g % 3 == 0),
                _ => {
                    // A DMA strike silently destroys the armed granules
                    // it overlaps; the OS re-arms the window (§4.3).
                    let size = size.min(MEM - start);
                    dma.transfer(&mut traps, pa, size);
                    traps.set_range(pa, size);
                }
            }
            // Recount every frame from the raw bitmap (via the public
            // trapped-granule iterator) and compare against the
            // incrementally maintained counts.
            for f in 0..MEM / FRAME {
                let expected = traps
                    .iter_trapped()
                    .filter(|g| {
                        let base = g * GRANULE;
                        base < (f + 1) * FRAME && base + GRANULE > f * FRAME
                    })
                    .count() as u32;
                assert_eq!(
                    traps.frame_trapped(PhysAddr::new(f * FRAME)),
                    expected,
                    "case {case}: frame {f} count drifted from the bitmap"
                );
            }
        }
    }
}
