//! Failure injection: genuine memory errors, DMA interference and the
//! no-allocate-on-write hazard — the measurement-bias and portability
//! pitfalls of paper §4.2–§4.4.

use tapeworm::core::{CacheConfig, Tapeworm};
use tapeworm::machine::{AccessKind, Component, DmaEngine, FetchOutcome, Machine, MachineConfig};
use tapeworm::mem::{EccMemory, MemoryEvent, Pfn, PhysAddr, TrapMap, VirtAddr, WritePolicy};
use tapeworm::os::Tid;
use tapeworm::stats::SeedSeq;

/// Paper footnote 1: with Tapeworm active, true errors are still
/// detected with high probability. Inject random single-bit errors
/// into a memory carrying traps and verify none is mistaken for a
/// Tapeworm trap.
#[test]
fn injected_errors_never_masquerade_as_traps() {
    let mut mem = EccMemory::new(64 * 1024);
    // Trap every other line, like a half-full simulated cache.
    for line in 0..(64 * 1024 / 16) {
        if line % 2 == 0 {
            mem.set_trap(PhysAddr::new(line * 16), 16).unwrap();
        }
    }
    let mut rng = SeedSeq::new(42).rng();
    let mut detected = 0;
    for _ in 0..2_000 {
        let word = rng.gen_range(0..64u64 * 1024 / 4) * 4;
        let pa = PhysAddr::new(word);
        let bit = rng.gen_range(0..32u8);
        let mut faulty = mem.clone();
        faulty.inject_data_error(pa, bit).unwrap();
        match faulty.read_word(pa).unwrap() {
            MemoryEvent::CorrectedTrueError(_) | MemoryEvent::Uncorrectable => detected += 1,
            MemoryEvent::TapewormTrap(_) => {
                panic!("true error at {pa} bit {bit} misread as a Tapeworm trap")
            }
            MemoryEvent::Clean(_) => panic!("injected error at {pa} went unnoticed"),
        }
    }
    assert_eq!(detected, 2_000);
}

/// Check-bit errors on the *designated* trap bit are indistinguishable
/// from traps by construction — the one truly ambiguous case, which
/// the paper's probability argument accepts (1 position in 39).
#[test]
fn only_the_designated_check_bit_is_ambiguous() {
    let mut mem = EccMemory::new(4096);
    let pa = PhysAddr::new(0x40);
    // Injecting an error on check bit 0 (the trap bit) looks like a trap:
    mem.inject_check_error(pa, 0).unwrap();
    assert!(mem.read_word(pa).unwrap().is_tapeworm_trap());
    // Every other check bit reads as a true error.
    for bit in 1..7u8 {
        let mut m = EccMemory::new(4096);
        m.inject_check_error(pa, bit).unwrap();
        assert!(m.read_word(pa).unwrap().is_true_error(), "check bit {bit}");
    }
}

/// DMA writes regenerate ECC behind the CPU's back, silently clearing
/// traps: the simulated cache diverges until the OS re-registers the
/// buffer (the 5000/240 port hazard, §4.3).
#[test]
fn dma_transfer_breaks_and_reregistration_restores_the_invariant() {
    let cfg = CacheConfig::new(1024, 16, 1).unwrap();
    let mut tw = Tapeworm::new(cfg, 4096, SeedSeq::new(1));
    let mut traps = TrapMap::new(1 << 20, 16);
    let tid = Tid::new(1);
    tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
    tw.validate_invariant(&traps).unwrap();

    let mut dma = DmaEngine::new();
    let destroyed = dma.transfer(&mut traps, PhysAddr::new(0), 1024);
    assert!(destroyed > 0);
    // The invariant is now broken: lines that should trap do not.
    assert!(tw.validate_invariant(&traps).is_err());

    // OS-level fix: after I/O completion, remove and re-register the
    // page so its trap state is rebuilt.
    tw.tw_remove_page(&mut traps, tid, Pfn::new(0), 0);
    tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
    tw.validate_invariant(&traps).unwrap();
}

/// The §4.3 recovery discipline under stress: random DMA storms over a
/// multi-page working set, each followed by the OS re-arming the pages
/// the transfer touched, must restore the trap map to *exactly* its
/// pre-DMA state — not just re-satisfy the invariant. (Re-registration
/// derives trap state purely from simulated-cache residency, which DMA
/// never changes, so the restored set must be bit-identical.)
#[test]
fn randomized_dma_storms_re_arm_to_the_exact_trap_set() {
    const PAGE: u64 = 4096;
    const PAGES: u64 = 8;
    let cfg = CacheConfig::new(1024, 16, 1).unwrap();
    let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(9));
    let mut traps = TrapMap::new(1 << 20, 16);
    let tid = Tid::new(1);
    for p in 0..PAGES {
        tw.tw_register_page(&mut traps, tid, Pfn::new(p), p);
    }
    tw.validate_invariant(&traps).unwrap();
    let snapshot = traps.clone();
    assert!(snapshot.count() > 0, "working set must arm traps");

    let mut dma = DmaEngine::new();
    let mut rng = SeedSeq::new(2024).rng();
    let mut destroyed_total = 0;
    for round in 0..50u32 {
        let start = rng.gen_range(0..PAGES * PAGE);
        let size = (1 + rng.gen_range(0..2 * PAGE)).min(PAGES * PAGE - start);
        destroyed_total += dma.transfer(&mut traps, PhysAddr::new(start), size);
        // After I/O completion the OS re-arms every page the window
        // touched.
        for p in (start / PAGE)..=((start + size - 1) / PAGE) {
            tw.tw_remove_page(&mut traps, tid, Pfn::new(p), p);
            tw.tw_register_page(&mut traps, tid, Pfn::new(p), p);
        }
        assert_eq!(
            traps, snapshot,
            "round {round}: re-arm must restore the exact trap set"
        );
        tw.validate_invariant(&traps).unwrap();
    }
    assert!(destroyed_total > 0, "the storm must actually destroy traps");
    assert_eq!(dma.traps_destroyed(), destroyed_total);
}

/// Stores under no-allocate-on-write destroy traps without invoking
/// the handler — why data-cache simulation failed on the 5000/200 —
/// while allocate-on-write machines trap on stores too (§4.4).
#[test]
fn write_policy_gates_data_cache_simulability() {
    for (policy, expect_trap) in [
        (WritePolicy::NoAllocateOnWrite, false),
        (WritePolicy::AllocateOnWrite, true),
    ] {
        let mut machine = Machine::new(MachineConfig {
            mem_bytes: 1 << 16,
            trap_granule: 16,
            clock_period: 1000,
            breakpoint_registers: 0,
            write_policy: policy,
        });
        machine.traps_mut().set_range(PhysAddr::new(0x100), 16);
        let out = machine.access(
            AccessKind::Store,
            VirtAddr::new(0x100),
            PhysAddr::new(0x100),
        );
        assert_eq!(out.traps(), expect_trap, "{policy:?}");
        if !expect_trap {
            assert_eq!(machine.write_traps_destroyed(), 1);
            // The miss was silently lost.
            assert!(!machine.traps().is_trapped(PhysAddr::new(0x100)));
        }
    }
}

/// Masked-interrupt sections lose ECC traps but the loss is counted,
/// so the bias can be bounded (§4.2).
#[test]
fn masked_sections_lose_but_count_misses() {
    let cfg = CacheConfig::new(1024, 16, 1).unwrap();
    let mut tw = Tapeworm::new(cfg, 4096, SeedSeq::new(1));
    let mut machine = Machine::new(MachineConfig::default());
    let tid = Tid::new(1);
    tw.tw_register_page(traps_of(&mut machine), tid, Pfn::new(0), 0);

    machine.set_interrupts_enabled(false);
    let mut lost = 0;
    for line in 0..8u64 {
        let pa = PhysAddr::new(line * 16);
        match machine.access(AccessKind::IFetch, VirtAddr::new(pa.raw()), pa) {
            FetchOutcome::MaskedEccSkipped => {
                tw.note_masked_miss();
                lost += 1;
            }
            other => panic!("expected masked skip, got {other:?}"),
        }
    }
    assert_eq!(lost, 8);
    assert_eq!(tw.stats().masked(), 8);
    assert_eq!(tw.stats().raw_total(), 0);
    assert_eq!(machine.masked_ecc_skips(), 8);

    // Unmasked, the same references trap normally.
    machine.set_interrupts_enabled(true);
    let pa = PhysAddr::new(0);
    assert_eq!(
        machine.access(AccessKind::IFetch, VirtAddr::new(0), pa),
        FetchOutcome::EccTrap
    );
    let _ = Component::ALL;
}

fn traps_of(machine: &mut Machine) -> &mut TrapMap {
    machine.traps_mut()
}

/// An undersized physical memory is a configuration error, not a
/// crash: `try_run_trial` surfaces it as a typed
/// [`tapeworm::sim::TrialError::OutOfFrames`] whose message names the
/// knob to raise (`SystemConfig::frames`), and `Error::source` carries
/// the VM-level out-of-memory error.
#[test]
fn out_of_frames_is_a_typed_trial_error() {
    use std::error::Error as _;
    use tapeworm::sim::{try_run_trial, SystemConfig, TrialError};
    use tapeworm::workload::Workload;

    let mut cfg = SystemConfig::cache(
        Workload::MpegPlay,
        CacheConfig::new(4 * 1024, 16, 1).expect("valid geometry"),
    )
    .with_scale(20_000);
    // mpeg_play's text + data footprint needs far more than 8 pages.
    cfg.frames = 8;

    let base = SeedSeq::new(1994);
    let err = try_run_trial(&cfg, base, base.derive("trial", 0))
        .expect_err("8 frames cannot hold the workload");
    let TrialError::OutOfFrames { frames, .. } = err;
    assert_eq!(frames, 8);
    assert!(err.source().is_some(), "source must carry the VM error");
    let msg = err.to_string();
    assert!(
        msg.contains("SystemConfig::frames") && msg.contains("8 frames"),
        "message must name the knob: {msg}"
    );
}
