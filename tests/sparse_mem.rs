//! Suite for the sparse demand-allocated physical state.
//!
//! The machine's trap bitmap, its per-frame trap counts and the VM's
//! frame refcounts sit on chunked backing that materializes 4 KiB
//! chunks on first write, with untouched chunks sharing one canonical
//! all-zero page. This suite pins that the backing engages in every
//! simulator mode and stays bit-identical across serial and parallel
//! sweeps (its allocation tallies included), and property-tests the
//! chunk materialization/dedup invariants against a plain `Vec`. The
//! engine digests in `tests/determinism.rs` pin every mode's results.

use tapeworm::core::{CacheConfig, TlbSimConfig};
use tapeworm::mem::{SparseVec, CHUNK_BYTES};
use tapeworm::obs::CounterId;
use tapeworm::sim::{
    run_sweep, run_trial_observed, ComponentSet, ObsConfig, SystemConfig, TrialResult,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

const SCALE: u64 = 20_000;

fn dm(kb: u64) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry")
}

/// One configuration per simulator mode, same shapes as the golden
/// determinism matrix.
fn modes() -> Vec<(&'static str, SystemConfig)> {
    vec![
        (
            "cache",
            SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE),
        ),
        (
            "cache-sampled",
            SystemConfig::cache(Workload::Espresso, dm(4))
                .with_components(ComponentSet::user_only())
                .with_sampling(8)
                .with_scale(SCALE),
        ),
        (
            "split",
            SystemConfig::split(Workload::JpegPlay, dm(4), dm(4)).with_scale(SCALE),
        ),
        (
            "two-level",
            SystemConfig::two_level(Workload::Espresso, dm(1), dm(8)).with_scale(SCALE),
        ),
        (
            "tlb",
            SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(SCALE),
        ),
        (
            "buffer",
            SystemConfig::kernel_trace_buffer(Workload::MpegPlay, dm(4)).with_scale(SCALE),
        ),
    ]
}

fn flatten(cells: &[tapeworm::sim::TrialSummary]) -> Vec<&TrialResult> {
    cells.iter().flat_map(|c| c.results()).collect()
}

/// For every simulator mode, a sweep's `TrialResult`s, counters (the
/// sparse allocation tallies included: scratch reuse across a worker's
/// trials must not leak chunk state) and phase cycles are identical at
/// 1, 4 and 8 worker threads.
#[test]
fn sparse_backing_is_bit_identical_across_thread_counts() {
    for (label, cfg) in modes() {
        let cfgs = vec![cfg];
        let serial = run_sweep(&cfgs, 4, SeedSeq::new(1994), 1);
        for threads in [4usize, 8] {
            let parallel = run_sweep(&cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&serial),
                flatten(&parallel),
                "{label}: results diverged at threads={threads}"
            );
            let (sm, pm) = (&serial[0].metrics(), &parallel[0].metrics());
            for (id, sv) in sm.counters.iter() {
                assert_eq!(
                    sv,
                    pm.counters.get(id),
                    "{label}: counter {id} diverged at threads={threads}"
                );
            }
            assert_eq!(sm.phases, pm.phases, "{label}: phase cycles diverged");
        }
    }
}

/// Sparse backing actually engages everywhere: every mode demand-
/// materializes some chunks and leaves the untouched remainder
/// deduped.
#[test]
fn sparse_backing_engages_in_every_mode() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("sparse", 0).derive("trial", 0);

    for (label, cfg) in modes() {
        let (_, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
        let faults = m.counters.get(CounterId::ChunkFaults);
        let chunks = m.counters.get(CounterId::SparseChunksAllocated);
        let deduped = m.counters.get(CounterId::ZeroChunksDeduped);
        assert!(faults > 0, "{label}: no chunk was ever demand-materialized");
        assert!(chunks > 0, "{label}: no chunk is privately backed");
        assert!(
            deduped > 0,
            "{label}: expected untouched chunks to share the canonical page"
        );
    }
}

/// SplitMix64 — the repo's stand-in for a property-test generator
/// (the workspace deliberately carries no external dependencies).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Property: under random stores, a sparse vector (a) agrees with a
/// plain `Vec` reference model element for element, (b) keeps its
/// chunk accounting consistent (`allocated + deduped == chunks`,
/// faults only grow), and (c) never materializes a chunk for a store
/// of the fill value into untouched territory.
#[test]
fn chunk_materialization_and_dedup_invariants_hold_under_random_ops() {
    let mut s = 0x5eed_u64;
    for round in 0..8 {
        let len = 1 + (splitmix(&mut s) % 10_000) as usize;
        let mut v: SparseVec<u64> = SparseVec::new(len, 0);
        let mut reference = vec![0u64; len];
        let mut last_faults = 0;
        for _ in 0..2_000 {
            let i = (splitmix(&mut s) as usize) % len;
            // Bias toward zero stores so fill stores land in both
            // materialized and untouched chunks.
            let value = match splitmix(&mut s) % 4 {
                0 | 1 => 0,
                _ => splitmix(&mut s),
            };
            v.store(i, value);
            reference[i] = value;

            let stats = v.stats();
            assert_eq!(
                stats.chunks_allocated + stats.zero_chunks_deduped,
                v.chunks() as u64,
                "round {round}: chunk accounting must partition the table"
            );
            assert!(stats.chunk_faults >= last_faults, "faults are lifetime");
            last_faults = stats.chunk_faults;
        }
        for (i, &want) in reference.iter().enumerate() {
            assert_eq!(v.load(i), want, "round {round}: index {i}");
        }
        // A store of the fill value into a canonical chunk is a no-op.
        let before = v.stats();
        let elems_per_chunk = CHUNK_BYTES / std::mem::size_of::<u64>();
        if v.chunks() > 1 && before.zero_chunks_deduped > 0 {
            let canonical = (0..v.chunks())
                .find(|&c| v.chunk_is_canonical(c))
                .expect("a deduped chunk exists");
            let idx = (canonical * elems_per_chunk).min(len - 1);
            if v.chunk_is_canonical(idx / elems_per_chunk) {
                v.store(idx, 0);
                assert_eq!(v.stats(), before, "fill store must not materialize");
            }
        }
    }
}
