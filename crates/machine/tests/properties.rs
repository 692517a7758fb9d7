// Property-based suites need the external `proptest` crate, which the
// offline build intentionally omits. Enable with
// `--features proptest` after restoring the dev-dependency (see ci.sh).
#![cfg(feature = "proptest")]

//! Property-based tests for the machine crate.

use proptest::prelude::*;
use tapeworm_machine::{
    AccessKind, DmaEngine, FetchOutcome, IntervalClock, Machine, MachineConfig, Tlb, TlbOutcome,
};
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr, WritePolicy};
use tapeworm_stats::SeedSeq;

proptest! {
    /// The clock fires exactly floor(total / period) interrupts no
    /// matter how the advance is chunked.
    #[test]
    fn clock_firing_is_chunking_invariant(
        period in 1u64..10_000,
        chunks in proptest::collection::vec(0u64..5_000, 1..50),
    ) {
        let total: u64 = chunks.iter().sum();
        let mut chunked = IntervalClock::new(period);
        let mut n = 0;
        for c in &chunks {
            n += chunked.advance(*c);
        }
        let mut whole = IntervalClock::new(period);
        let m = whole.advance(total);
        prop_assert_eq!(n, m);
        prop_assert_eq!(n, total / period);
    }

    /// A TLB with n entries holds at most n translations: after probing
    /// k <= wired-free entries inserted, all are hits.
    #[test]
    fn tlb_holds_working_set_up_to_capacity(cap in 2usize..32, pages in 1usize..31) {
        prop_assume!(pages < cap); // leave the one wired slot out
        let mut tlb = Tlb::new(cap, 1, 4096, SeedSeq::new(1));
        for p in 0..pages as u64 {
            let va = VirtAddr::new(p * 4096);
            prop_assert_eq!(tlb.probe(1, va), TlbOutcome::Miss);
            tlb.refill(1, va, Pfn::new(p));
        }
        for p in 0..pages as u64 {
            let va = VirtAddr::new(p * 4096);
            prop_assert_eq!(tlb.probe(1, va), TlbOutcome::Hit(Pfn::new(p)));
        }
    }

    /// Machine access outcomes are a pure function of trap state,
    /// access kind, write policy and interrupt mask.
    #[test]
    fn access_outcome_table(
        trapped in any::<bool>(),
        enabled in any::<bool>(),
        kind_ix in 0u8..3,
        no_alloc in any::<bool>(),
    ) {
        let kind = [AccessKind::IFetch, AccessKind::Load, AccessKind::Store][kind_ix as usize];
        let policy = if no_alloc {
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
        prop_assert_eq!(out, expect);
    }

    /// DMA destroys exactly the armed granules its window overlaps —
    /// no more, no fewer — and re-arming precisely those granules
    /// restores the trap set bit-exactly (the §4.3 OS recovery
    /// contract the failure-injection suite exercises end to end).
    #[test]
    fn dma_destroys_exactly_the_overlap_and_rearm_restores(
        armed in proptest::collection::btree_set(0u64..64, 0..40),
        start_g in 0u64..64,
        len_g in 1u64..32,
    ) {
        const GRANULE: u64 = 16;
        const GRANULES: u64 = 64;
        let mut traps = TrapMap::new(GRANULES * GRANULE, GRANULE);
        for &g in &armed {
            traps.set_range(PhysAddr::new(g * GRANULE), GRANULE);
        }
        let snapshot = traps.clone();

        let start = start_g * GRANULE;
        let size = (len_g * GRANULE).min(GRANULES * GRANULE - start);
        prop_assume!(size > 0);
        let mut dma = DmaEngine::new();
        let destroyed = dma.transfer(&mut traps, PhysAddr::new(start), size);

        let touched = start_g..start_g + size / GRANULE;
        let overlapped: Vec<u64> =
            armed.iter().copied().filter(|g| touched.contains(g)).collect();
        prop_assert_eq!(destroyed, overlapped.len() as u64, "destroyed = armed ∩ window");
        for &g in &overlapped {
            prop_assert!(!traps.is_trapped(PhysAddr::new(g * GRANULE)));
            traps.set_range(PhysAddr::new(g * GRANULE), GRANULE);
        }
        prop_assert_eq!(&traps, &snapshot);
    }

    /// The O(1) per-frame trapped-granule counts behind
    /// `TrapMap::frame_clean` never drift from the raw bitmap, no
    /// matter how arms, disarms, sampled arms, and DMA strikes with
    /// OS re-arm are interleaved — the safety condition of the
    /// resident-run fast path.
    #[test]
    fn frame_counts_survive_dma_and_rearm(
        ops in proptest::collection::vec(
            (0u8..4, 0u64..8 * 4096, 1u64..9000),
            1..40,
        ),
    ) {
        const FRAME: u64 = 4096; // TrapMap::FRAME_BYTES
        const MEM: u64 = 8 * FRAME;
        const GRANULE: u64 = 16;
        let mut traps = TrapMap::new(MEM, GRANULE);
        let mut dma = DmaEngine::new();
        for (op, start, size) in ops {
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
                prop_assert_eq!(
                    traps.frame_trapped(PhysAddr::new(f * FRAME)),
                    expected,
                    "frame {} count drifted from the bitmap",
                    f
                );
            }
        }
    }
}
