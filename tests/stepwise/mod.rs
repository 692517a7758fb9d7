//! The stepwise differential suite: the trap-driven engine against the
//! stepwise oracle.
//!
//! `SystemConfig::fast_path` is the one engine switch. On, the engine
//! retires trap-free instruction runs in one batch (the resident-run
//! fast path) and serves a run of consecutive trapped chunks as one
//! burst through `Tapeworm::service_burst`, with one deferred clock
//! advance. Off, it steps chunk by chunk and calls `handle_miss` once
//! per miss. Both optimisations are only legal because they are
//! *bit-identical* to stepwise execution: same `TrialResult`, same
//! interrupt delivery positions, same ring-event timestamps, same
//! counters (minus the engine's own bookkeeping).
//!
//! This module holds the modes and the three checks once. The modes
//! fall in three disjoint groups, and the test files split the checks
//! over them so that every check covers every mode exactly once:
//!
//! | group                   | bit-identical      | ring events        | engagement         |
//! |-------------------------|--------------------|--------------------|--------------------|
//! | [`simulator_modes`]     | `fast_path.rs`     | `miss_schedule.rs` | `fast_path.rs`     |
//! | [`granule_geometries`]  | `miss_batch.rs`    | `miss_batch.rs`    | `miss_batch.rs`    |
//! | [`merged_geometries`]   | `miss_schedule.rs` | `miss_schedule.rs` | `miss_batch.rs`    |
//!
//! `stepwise_differential.rs` pins the setters kept for the benchmark's
//! oracle on [`modes`], without simulating.

// Each test file runs only some of the checks.
#![allow(dead_code)]

use tapeworm::core::{CacheConfig, Indexing, Replacement, TlbSimConfig};
use tapeworm::obs::CounterId;
use tapeworm::sim::{
    run_sweep, run_trial_observed, ComponentSet, ObsConfig, SimModel, SystemConfig, TrialResult,
    TrialSummary,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

pub type Mode = (&'static str, SystemConfig);

const SCALE: u64 = 20_000;

fn dm(kb: u64) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry")
}

fn two_way(kb: u64) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 2).expect("valid geometry")
}

/// One configuration per simulator mode, same shapes as the golden
/// determinism matrix, with the single cache also on user tasks alone
/// under set sampling.
pub fn simulator_modes() -> Vec<Mode> {
    vec![
        (
            "cache",
            SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE),
        ),
        (
            "cache-user-only-sampled",
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

/// Geometries whose bursts are served granule by granule
/// (`Tapeworm::sched_eligible` is false): set spans below a page,
/// random replacement and virtual indexing, on the single cache and
/// the split I-side.
pub fn granule_geometries() -> Vec<Mode> {
    vec![
        (
            "cache-2way-4k",
            SystemConfig::cache(Workload::MpegPlay, two_way(4)).with_scale(SCALE),
        ),
        (
            "cache-1k-user-only",
            SystemConfig::cache(Workload::MpegPlay, dm(1))
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE),
        ),
        (
            "cache-4way-random",
            SystemConfig::cache(
                Workload::Espresso,
                CacheConfig::new(8 * 1024, 16, 4)
                    .expect("valid geometry")
                    .with_replacement(Replacement::Random),
            )
            .with_scale(SCALE),
        ),
        (
            "cache-virtual",
            SystemConfig::cache(Workload::MpegPlay, dm(8).with_indexing(Indexing::Virtual))
                .with_scale(SCALE),
        ),
        (
            "split-2way",
            SystemConfig::split(Workload::JpegPlay, two_way(4), two_way(4)).with_scale(SCALE),
        ),
        (
            "split-virtual-i",
            SystemConfig::split(
                Workload::JpegPlay,
                dm(4).with_indexing(Indexing::Virtual),
                dm(4),
            )
            .with_scale(SCALE),
        ),
    ]
}

/// Geometries whose bursts are served as merged runs (physically
/// indexed FIFO, set span ≥ page): the miss-rich `user_only` cache of
/// the throughput gate, where bursts matter most, set sampling, the
/// `hit-heavy` benchmark cache and a set-associative FIFO whose set
/// span is exactly a page.
pub fn merged_geometries() -> Vec<Mode> {
    vec![
        (
            "cache-user-only",
            SystemConfig::cache(Workload::MpegPlay, dm(4))
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE),
        ),
        (
            "cache-sampled",
            SystemConfig::cache(Workload::MpegPlay, dm(16))
                .with_sampling(8)
                .with_scale(SCALE),
        ),
        (
            "cache-64k-user-only",
            SystemConfig::cache(Workload::MpegPlay, dm(64))
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE),
        ),
        (
            "cache-2way-8k",
            SystemConfig::cache(Workload::MpegPlay, two_way(8)).with_scale(SCALE),
        ),
    ]
}

/// Every mode of the three groups.
pub fn modes() -> Vec<Mode> {
    [simulator_modes(), granule_geometries(), merged_geometries()].concat()
}

/// The modes whose misses can take the burst path: the single cache
/// and the split I-side (the two-level hierarchy's L2-dependent cost
/// stays stepwise).
fn bursting(cfg: &SystemConfig) -> bool {
    matches!(cfg.model, SimModel::Cache(_) | SimModel::SplitCache { .. })
}

fn flatten(cells: &[TrialSummary]) -> Vec<&TrialResult> {
    cells.iter().flat_map(|c| c.results()).collect()
}

/// The engine's own bookkeeping, the only counters that may differ
/// from the stepwise run: fast-path runs and words, and burst flushes
/// with the served-burst tally that equals them.
const ENGINE_BOOKKEEPING: [CounterId; 4] = [
    CounterId::FastRuns,
    CounterId::FastWords,
    CounterId::MissBatchFlushes,
    CounterId::SchedRecords,
];

/// The acceptance bar: for each mode, a sweep on the trap-driven engine
/// commits `TrialResult`s bit-identical to the stepwise engine, at 1, 4
/// and 8 worker threads, with every counter but the engine bookkeeping
/// equal and equal phase cycles.
pub fn assert_bit_identical_to_stepwise(modes: Vec<Mode>) {
    for (label, cfg) in modes {
        let stepwise_cfgs = vec![cfg.clone().with_fast_path(false)];
        let engine_cfgs = vec![cfg];
        let stepwise = run_sweep(&stepwise_cfgs, 4, SeedSeq::new(1994), 1);
        for threads in [1usize, 4, 8] {
            let engine = run_sweep(&engine_cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&stepwise),
                flatten(&engine),
                "{label}: diverged from stepwise at threads={threads}"
            );
            let (sm, em) = (&stepwise[0].metrics(), &engine[0].metrics());
            for (id, sv) in sm.counters.iter() {
                if ENGINE_BOOKKEEPING.contains(&id) {
                    continue;
                }
                assert_eq!(
                    sv,
                    em.counters.get(id),
                    "{label}: counter {id} diverged at threads={threads}"
                );
            }
            assert_eq!(sm.phases, em.phases, "{label}: phase cycles diverged");
        }
    }
}

/// Bursts record ring events with *virtual* timestamps (the cycle the
/// trap would have been serviced at, had the engine stepped). The
/// observable event streams must therefore match the stepwise run
/// exactly — kind, cycle, thread and address — not just the results.
pub fn assert_ring_events_match_stepwise(modes: Vec<Mode>) {
    let base = SeedSeq::new(1994);
    let trial = base.derive("stepwise", 0).derive("trial", 0);
    for (label, cfg) in modes {
        let stepwise = cfg.clone().with_fast_path(false);
        let (er, emx) = run_trial_observed(&cfg, base, trial, ObsConfig::with_ring(4096));
        let (sr, smx) = run_trial_observed(&stepwise, base, trial, ObsConfig::with_ring(4096));
        assert_eq!(er, sr, "{label}: observed results diverged");
        assert_eq!(
            emx.events_recorded, smx.events_recorded,
            "{label}: event counts diverged"
        );
        assert_eq!(emx.events, smx.events, "{label}: ring events diverged");
        let cycles: Vec<u64> = emx.events.iter().map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "{label}: burst virtual timestamps out of order"
        );
    }
}

/// The engine engages where it is supposed to: cache-style modes
/// retire most instructions through the fast path, TLB mode (no
/// per-chunk access dispatch) and the kernel trace buffer (which pays
/// per reference) never batch, every cache and split mode serves
/// bursts, one per flush, and the retired slots read 0. With the
/// switch off nothing engages.
pub fn assert_engages_where_expected(modes: Vec<Mode>) {
    let base = SeedSeq::new(1994);
    let trial = base.derive("stepwise", 0).derive("trial", 0);
    for (label, cfg) in modes {
        let (r, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
        let c = |id| m.counters.get(id);
        let (runs, words) = (c(CounterId::FastRuns), c(CounterId::FastWords));
        if matches!(cfg.model, SimModel::Tlb(_) | SimModel::KernelTraceBuffer(_)) {
            assert_eq!(runs, 0, "{label}: fast path must stay off");
            assert_eq!(words, 0, "{label}");
        } else {
            assert!(runs > 0, "{label}: fast path never engaged");
            assert!(words >= runs, "{label}: runs retire at least one word");
            assert!(
                words * 2 > r.instructions,
                "{label}: expected the majority of {} instructions on the \
                 fast path, got {words}",
                r.instructions
            );
        }
        if bursting(&cfg) {
            assert!(c(CounterId::SchedRecords) > 0, "{label}: never burst");
        }
        assert_eq!(
            c(CounterId::SchedRecords),
            c(CounterId::MissBatchFlushes),
            "{label}: a flush that was not one served burst"
        );
        for retired in [
            CounterId::SchedReplays,
            CounterId::SchedSigMisses,
            CounterId::VictimMemoHits,
        ] {
            assert_eq!(c(retired), 0, "{label}: retired {retired} counted");
        }

        let off = cfg.with_fast_path(false);
        let (_, m) = run_trial_observed(&off, base, trial, ObsConfig::default());
        for id in ENGINE_BOOKKEEPING {
            assert_eq!(m.counters.get(id), 0, "{label}: {id} counted when off");
        }
    }
}
