//! Differential suite for batched miss handling.
//!
//! When a chunk's clean-span scan shows a trap-dense stretch, the
//! engine may service the whole stretch in one coalesced handler pass
//! (memoized victim selection, merged trap-set range ops) instead of
//! bouncing trap-by-trap between simulator and kernel. Like the
//! resident-run fast path, the batch is only legal because it is
//! *bit-identical* to stepwise servicing — same `TrialResult`, same
//! ring-event timestamps, same counters (minus the batch bookkeeping
//! itself). This suite pins that equivalence for every simulator mode,
//! serial and parallel sweeps, and both kill switches:
//! `SystemConfig::with_miss_batch(false)` and the `TW_BATCH=0`
//! environment knob.

use std::sync::{Mutex, MutexGuard};

use tapeworm::core::{CacheConfig, TlbSimConfig};
use tapeworm::obs::CounterId;
use tapeworm::sim::{
    run_sweep, run_trial_observed, ComponentSet, ObsConfig, SystemConfig, TrialResult,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

const SCALE: u64 = 20_000;

/// Serializes every test that runs the engine: `TW_BATCH` is
/// process-global and is sampled at system construction, so the
/// engagement assertions would misfire if another test flipped it
/// mid-run, and an equivalence test running beside `TW_BATCH=0` would
/// compare stepwise against stepwise.
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
/// determinism matrix. The miss-rich `user_only` cache config mirrors
/// the throughput gate, where batching matters most.
fn modes() -> Vec<(&'static str, SystemConfig)> {
    vec![
        (
            "cache",
            SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE),
        ),
        (
            "cache-user-only",
            SystemConfig::cache(Workload::MpegPlay, dm(4))
                .with_components(ComponentSet::user_only())
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

/// Counters that legitimately differ between batched and stepwise
/// servicing: the batch bookkeeping itself, and the fast-path tallies
/// (the burst hands different residues to the clean-run batcher).
fn batch_bookkeeping(id: CounterId) -> bool {
    matches!(
        id,
        CounterId::MissBatchFlushes
            | CounterId::VictimMemoHits
            | CounterId::FastRuns
            | CounterId::FastWords
            | CounterId::SchedReplays
            | CounterId::SchedRecords
            | CounterId::SchedSigMisses
    )
}

/// The acceptance bar: for every simulator mode, a sweep with miss
/// batching enabled commits `TrialResult`s bit-identical to stepwise
/// servicing, at 1, 4 and 8 worker threads. (Metrics are compared
/// modulo the batch bookkeeping, which legitimately differs.)
#[test]
fn miss_batch_is_bit_identical_to_stepwise() {
    let _guard = env_lock();
    for (label, cfg) in modes() {
        let stepwise_cfgs = vec![cfg.clone().with_miss_batch(false)];
        let batched_cfgs = vec![cfg];
        let stepwise = run_sweep(&stepwise_cfgs, 4, SeedSeq::new(1994), 1);
        for threads in [1usize, 4, 8] {
            let batched = run_sweep(&batched_cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&stepwise),
                flatten(&batched),
                "{label}: batched miss handling diverged at threads={threads}"
            );
            let (sm, bm) = (&stepwise[0].metrics(), &batched[0].metrics());
            for (id, sv) in sm.counters.iter() {
                if batch_bookkeeping(id) {
                    continue;
                }
                assert_eq!(
                    sv,
                    bm.counters.get(id),
                    "{label}: counter {id} diverged at threads={threads}"
                );
            }
            assert_eq!(sm.phases, bm.phases, "{label}: phase cycles diverged");
        }
    }
}

/// Bursts record ring events with *virtual* timestamps (the cycle the
/// trap would have been serviced at, had the engine stepped). The
/// observable event streams must therefore match the stepwise run
/// exactly — kind, cycle, thread and address — not just the trial
/// results.
#[test]
fn miss_batch_preserves_ring_event_timestamps() {
    let _guard = env_lock();
    let base = SeedSeq::new(1994);
    let trial = base.derive("batch", 0).derive("trial", 0);
    for (label, cfg) in modes() {
        let stepwise = cfg.clone().with_miss_batch(false);
        let (br, bmx) = run_trial_observed(&cfg, base, trial, ObsConfig::with_ring(4096));
        let (sr, smx) = run_trial_observed(&stepwise, base, trial, ObsConfig::with_ring(4096));
        assert_eq!(br, sr, "{label}: observed results diverged");
        assert_eq!(
            bmx.events_recorded, smx.events_recorded,
            "{label}: event counts diverged"
        );
        assert_eq!(bmx.events, smx.events, "{label}: ring events diverged");
        let cycles: Vec<u64> = bmx.events.iter().map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "{label}: burst virtual timestamps out of order"
        );
    }
}

/// The batch engages where it is supposed to — the miss-rich gate-shaped
/// config flushes coalesced bursts — and never engages when disabled via
/// the config knob.
#[test]
fn miss_batch_engages_exactly_where_expected() {
    let _guard = env_lock();
    std::env::remove_var("TW_BATCH");
    let base = SeedSeq::new(1994);
    let trial = base.derive("batch", 0).derive("trial", 0);

    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let (_, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    assert!(
        m.counters.get(CounterId::MissBatchFlushes) > 0,
        "miss-rich config never flushed a batch"
    );
    // The victim memo only services bursts when the miss schedule is
    // not short-circuiting them, so pin its engagement with the
    // schedule disabled.
    let memo_cfg = cfg.clone().with_miss_schedule(false);
    let (_, m) = run_trial_observed(&memo_cfg, base, trial, ObsConfig::default());
    assert!(
        m.counters.get(CounterId::VictimMemoHits) > 0,
        "batch never reused a memoized victim"
    );

    let off = cfg.with_miss_batch(false);
    let (_, m) = run_trial_observed(&off, base, trial, ObsConfig::default());
    assert_eq!(
        m.counters.get(CounterId::MissBatchFlushes),
        0,
        "disabled batch still flushed"
    );
}

/// `TW_BATCH=0` is the no-recompile kill switch: it forces stepwise
/// servicing (observable in the counters) without perturbing any
/// result, mirroring `TW_FAST=0` for the resident-run fast path.
#[test]
fn tw_batch_env_knob_forces_stepwise_servicing() {
    let _guard = env_lock();
    let base = SeedSeq::new(1994);
    let trial = base.derive("batch", 0).derive("trial", 0);
    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);

    std::env::remove_var("TW_BATCH");
    let (on_result, on_metrics) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    assert!(on_metrics.counters.get(CounterId::MissBatchFlushes) > 0);

    std::env::set_var("TW_BATCH", "0");
    let (off_result, off_metrics) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    std::env::remove_var("TW_BATCH");

    assert_eq!(off_metrics.counters.get(CounterId::MissBatchFlushes), 0);
    assert_eq!(on_result, off_result, "TW_BATCH=0 perturbed the result");
    // Any value other than "0" leaves batching on.
    std::env::set_var("TW_BATCH", "1");
    let (_, again) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    std::env::remove_var("TW_BATCH");
    assert!(again.counters.get(CounterId::MissBatchFlushes) > 0);
}
