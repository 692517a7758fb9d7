//! Differential suite for set-state tables and miss-schedule replay.
//!
//! On the cache/split burst path the engine may service a trapped burst
//! from per-set residency tables and, when the burst's entry conditions
//! and set-state signature recur, replay a recorded miss schedule with
//! zero trapset probes. Both layers are only legal because they are
//! *bit-identical* to stepwise servicing — same `TrialResult`, same
//! ring-event virtual timestamps, same counters (minus the schedule
//! bookkeeping and the victim memo, which the schedule path replaces).
//! This suite pins that equivalence for every simulator mode, serial
//! and parallel sweeps, and both kill switches:
//! `SystemConfig::with_miss_schedule(false)` and the `TW_SCHED=0`
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

/// Serializes every test that runs the engine: `TW_SCHED` is
/// process-global and is sampled at system construction, so the
/// engagement assertions would misfire if another test flipped it
/// mid-run, and an equivalence test running beside `TW_SCHED=0` would
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
/// the throughput gate, where replay matters most.
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

/// Counters that legitimately differ between scheduled and stepwise
/// servicing: the schedule bookkeeping itself and the victim memo,
/// which the set-state tables bypass entirely.
fn sched_bookkeeping(id: CounterId) -> bool {
    matches!(
        id,
        CounterId::SchedReplays
            | CounterId::SchedRecords
            | CounterId::SchedSigMisses
            | CounterId::VictimMemoHits
    )
}

/// The acceptance bar: for every simulator mode, a sweep with the miss
/// schedule enabled commits `TrialResult`s bit-identical to stepwise
/// burst servicing, at 1, 4 and 8 worker threads. (Metrics are
/// compared modulo the schedule bookkeeping, which legitimately
/// differs.)
#[test]
fn miss_schedule_is_bit_identical_to_stepwise() {
    let _guard = env_lock();
    for (label, cfg) in modes() {
        let stepwise_cfgs = vec![cfg.clone().with_miss_schedule(false)];
        let sched_cfgs = vec![cfg];
        let stepwise = run_sweep(&stepwise_cfgs, 4, SeedSeq::new(1994), 1);
        for threads in [1usize, 4, 8] {
            let sched = run_sweep(&sched_cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&stepwise),
                flatten(&sched),
                "{label}: miss-schedule servicing diverged at threads={threads}"
            );
            let (sm, bm) = (&stepwise[0].metrics(), &sched[0].metrics());
            for (id, sv) in sm.counters.iter() {
                if sched_bookkeeping(id) {
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

/// Replayed bursts emit ring events with recomputed *virtual*
/// timestamps (the cycle each trap would have been serviced at, had
/// the engine stepped). The observable event streams must therefore
/// match the stepwise run exactly — kind, cycle, thread and address.
#[test]
fn miss_schedule_preserves_ring_event_timestamps() {
    let _guard = env_lock();
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);
    for (label, cfg) in modes() {
        let stepwise = cfg.clone().with_miss_schedule(false);
        let (br, bmx) = run_trial_observed(&cfg, base, trial, ObsConfig::with_ring(4096));
        let (sr, smx) = run_trial_observed(&stepwise, base, trial, ObsConfig::with_ring(4096));
        assert_eq!(br, sr, "{label}: observed results diverged");
        assert_eq!(
            bmx.events_recorded, smx.events_recorded,
            "{label}: event counts diverged"
        );
        assert_eq!(bmx.events, smx.events, "{label}: ring events diverged");
    }
}

/// The schedule engages where it is supposed to — the miss-rich
/// gate-shaped config both records and replays schedules — and never
/// engages when disabled via the config knob.
#[test]
fn miss_schedule_engages_exactly_where_expected() {
    let _guard = env_lock();
    std::env::remove_var("TW_SCHED");
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);

    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let (_, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    assert!(
        m.counters.get(CounterId::SchedRecords) > 0,
        "miss-rich config never recorded a schedule"
    );
    assert!(
        m.counters.get(CounterId::SchedReplays) > 0,
        "miss-rich config never replayed a schedule"
    );

    let off = cfg.with_miss_schedule(false);
    let (_, m) = run_trial_observed(&off, base, trial, ObsConfig::default());
    assert_eq!(m.counters.get(CounterId::SchedRecords), 0, "disabled");
    assert_eq!(m.counters.get(CounterId::SchedReplays), 0, "disabled");
    assert_eq!(m.counters.get(CounterId::SchedSigMisses), 0, "disabled");
}

/// `TW_SCHED=0` is the no-recompile kill switch: it restores the
/// pre-schedule engine (observable in the counters) without perturbing
/// any result, mirroring `TW_FAST=0` and `TW_BATCH=0`.
#[test]
fn tw_sched_env_knob_restores_stepwise_servicing() {
    let _guard = env_lock();
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);
    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);

    std::env::remove_var("TW_SCHED");
    let (on_result, on_metrics) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    assert!(on_metrics.counters.get(CounterId::SchedRecords) > 0);

    std::env::set_var("TW_SCHED", "0");
    let (off_result, off_metrics) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    std::env::remove_var("TW_SCHED");

    assert_eq!(off_metrics.counters.get(CounterId::SchedRecords), 0);
    assert_eq!(off_metrics.counters.get(CounterId::SchedReplays), 0);
    assert_eq!(on_result, off_result, "TW_SCHED=0 perturbed the result");
    // Any value other than "0" leaves the schedule on.
    std::env::set_var("TW_SCHED", "1");
    let (_, again) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    std::env::remove_var("TW_SCHED");
    assert!(again.counters.get(CounterId::SchedRecords) > 0);
}
