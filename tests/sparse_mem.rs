//! Differential suite for the sparse demand-allocated physical state.
//!
//! The machine's trap bitmap, its per-frame trap counts and the VM's
//! frame refcounts sit on chunked backing that materializes 4 KiB
//! chunks on first write, with untouched chunks sharing one canonical
//! all-zero page. That layout is only legal because it is
//! *bit-identical* to the eagerly materialized (dense) layout — same
//! `TrialResult`, same counters (minus the sparse allocation tallies
//! themselves). This suite pins that equivalence for every simulator
//! mode and for serial and parallel sweeps, exercises the two kill
//! switches (`SystemConfig::with_sparse_mem(false)` and `TW_SPARSE=0`),
//! and property-tests the chunk materialization/dedup invariants and
//! the checkpoint codec's sparse trap-state round trip.

use std::sync::{Mutex, MutexGuard};

use tapeworm::core::{CacheConfig, TlbSimConfig};
use tapeworm::mem::{PhysAddr, SparseVec, TrapMap, CHUNK_BYTES};
use tapeworm::obs::CounterId;
use tapeworm::sim::{
    decode_trap_state, encode_trap_state, run_sweep, run_trial_observed, ComponentSet, ObsConfig,
    SystemConfig, TrialResult,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

const SCALE: u64 = 20_000;

/// Serializes every test that runs the engine: `TW_SPARSE` is
/// process-global, so the engagement assertions would misfire if
/// another test flipped it mid-run, and an equivalence test running
/// beside `TW_SPARSE=0` would compare dense against dense.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`ENV_LOCK`], recovering it if a test panicked while holding it
/// (the guarded data is `()`, so a poisoned lock carries no bad state).
fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Counters that legitimately differ between the two backings: the
/// sparse allocation tallies themselves.
fn is_sparse_tally(id: CounterId) -> bool {
    matches!(
        id,
        CounterId::SparseChunksAllocated | CounterId::ZeroChunksDeduped | CounterId::ChunkFaults
    )
}

/// The acceptance bar: for every simulator mode, a sweep on sparse
/// backing commits `TrialResult`s bit-identical to forced-dense
/// backing, at 1, 4 and 8 worker threads.
#[test]
fn sparse_backing_is_bit_identical_to_dense() {
    let _guard = env_lock();
    for (label, cfg) in modes() {
        let dense_cfgs = vec![cfg.clone().with_sparse_mem(false)];
        let sparse_cfgs = vec![cfg];
        let dense = run_sweep(&dense_cfgs, 4, SeedSeq::new(1994), 1);
        for threads in [1usize, 4, 8] {
            let sparse = run_sweep(&sparse_cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&dense),
                flatten(&sparse),
                "{label}: sparse backing diverged from dense at threads={threads}"
            );
            let (dm, sm) = (&dense[0].metrics(), &sparse[0].metrics());
            for (id, dv) in dm.counters.iter() {
                if is_sparse_tally(id) {
                    continue;
                }
                assert_eq!(
                    dv,
                    sm.counters.get(id),
                    "{label}: counter {id} diverged at threads={threads}"
                );
            }
            assert_eq!(dm.phases, sm.phases, "{label}: phase cycles diverged");
        }
    }
}

/// Sparse backing actually engages everywhere: every mode demand-
/// materializes some chunks and leaves the untouched remainder
/// deduped; the config kill switch pre-materializes everything and
/// never faults.
#[test]
fn sparse_backing_engages_in_every_mode() {
    let _guard = env_lock();
    std::env::remove_var("TW_SPARSE");
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

        let (_, m) = run_trial_observed(
            &cfg.with_sparse_mem(false),
            base,
            trial,
            ObsConfig::default(),
        );
        assert_eq!(
            m.counters.get(CounterId::ChunkFaults),
            0,
            "{label}: dense mode must never demand-fault"
        );
        assert_eq!(
            m.counters.get(CounterId::ZeroChunksDeduped),
            0,
            "{label}: dense mode dedups nothing"
        );
    }
}

/// `TW_SPARSE=0` is the no-recompile kill switch: it forces dense
/// backing (observable in the counters) without perturbing any result.
#[test]
fn tw_sparse_env_knob_forces_dense_backing() {
    let _guard = env_lock();
    let base = SeedSeq::new(1994);
    let trial = base.derive("sparse", 0).derive("trial", 0);
    let cfg = SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE);

    std::env::remove_var("TW_SPARSE");
    let (on_result, on_metrics) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    assert!(on_metrics.counters.get(CounterId::ChunkFaults) > 0);

    std::env::set_var("TW_SPARSE", "0");
    let (off_result, off_metrics) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    std::env::remove_var("TW_SPARSE");

    assert_eq!(off_metrics.counters.get(CounterId::ChunkFaults), 0);
    assert_eq!(off_metrics.counters.get(CounterId::ZeroChunksDeduped), 0);
    assert_eq!(on_result, off_result, "TW_SPARSE=0 perturbed the result");
    // Any value other than "0" leaves sparse backing on.
    std::env::set_var("TW_SPARSE", "1");
    let (_, again) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    std::env::remove_var("TW_SPARSE");
    assert!(again.counters.get(CounterId::ChunkFaults) > 0);
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
        let mut v: SparseVec<u64> = SparseVec::new(len, 0, false);
        let mut reference = vec![0u64; len];
        let mut last_faults = 0;
        for _ in 0..2_000 {
            let i = (splitmix(&mut s) as usize) % len;
            // Bias toward zero stores so re-canonicalization sees work.
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
        // Compaction reclaims every all-zero chunk and changes nothing
        // observable.
        v.compact();
        let after = v.stats();
        assert_eq!(
            after.chunks_allocated + after.zero_chunks_deduped,
            v.chunks() as u64
        );
        for (i, &want) in reference.iter().enumerate() {
            assert_eq!(v.load(i), want, "round {round} post-compact: index {i}");
        }
    }
}

/// Property: the checkpoint codec round-trips a randomly mutated trap
/// map — state, counts and event counters — through its hex payload,
/// in both sparse and dense mode, and the payload of a sparse map
/// stays proportional to touched state.
#[test]
fn checkpoint_codec_round_trips_random_trap_state() {
    let mut s = 0xc0de_u64;
    for round in 0..16 {
        let sparse = round % 2 == 0;
        let mem_bytes = 1u64 << (16 + (splitmix(&mut s) % 8)); // 64 KiB – 8 MiB
        let mut map = TrapMap::with_mode(mem_bytes, 16, sparse);
        for _ in 0..64 {
            let pa = PhysAddr::new(splitmix(&mut s) % mem_bytes);
            let span = 16 * (1 + splitmix(&mut s) % 64);
            let span = span.min(mem_bytes - pa.raw());
            if span == 0 {
                continue;
            }
            if splitmix(&mut s) % 3 == 0 {
                map.clear_range(pa, span);
            } else {
                map.set_range(pa, span);
            }
        }
        let payload = encode_trap_state(&map);
        let restored = decode_trap_state(&payload)
            .unwrap_or_else(|| panic!("round {round}: round trip failed"));
        assert_eq!(restored, map, "round {round}");
        assert_eq!(restored.count(), map.count(), "round {round}");
        assert_eq!(restored.set_events(), map.set_events(), "round {round}");
        assert_eq!(restored.clear_events(), map.clear_events(), "round {round}");
        // Spot-check granule state agreement at random probes.
        for _ in 0..64 {
            let pa = PhysAddr::new(splitmix(&mut s) % mem_bytes);
            assert_eq!(restored.is_trapped(pa), map.is_trapped(pa), "round {round}");
            assert_eq!(
                restored.frame_trapped(pa),
                map.frame_trapped(pa),
                "round {round}"
            );
        }
    }
    // Payload size scales with touched state, not simulated memory.
    let mut huge = TrapMap::new(64 << 30, 16);
    huge.set_range(PhysAddr::new(33 << 30), 256);
    let payload = encode_trap_state(&huge);
    assert!(
        payload.len() < 2048,
        "one hot page in 64 GiB must encode compactly, got {} bytes",
        payload.len()
    );
    assert_eq!(decode_trap_state(&payload).expect("round trip"), huge);
}
