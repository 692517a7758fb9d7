//! Differential suite for set-state burst service.
//!
//! On the cache/split burst path the engine may service a whole trapped
//! burst at once on eligible geometries: size it from the trap bitmap,
//! disarm it in one merged clear, then insert each line with the miss
//! handler's own step. That is only legal because it is *bit-identical*
//! to the per-chunk burst loop — same `TrialResult`, same ring-event
//! virtual timestamps, same counters (minus the burst tally and the
//! victim memo, whose hit count depends on which loop ran). This suite
//! pins that equivalence for every simulator mode, serial and parallel
//! sweeps, against `SystemConfig::with_miss_schedule(false)`.

use tapeworm::core::{CacheConfig, TlbSimConfig};
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

/// Counters that legitimately differ between set-state and per-chunk
/// servicing: the burst tally (and its two retired neighbours) and the
/// victim memo hits, which depend on which loop ran.
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

/// Set-state service engages where it is supposed to — the miss-rich
/// gate-shaped config serves bursts through it — and never when
/// disabled via the config knob. The retired replay counters stay 0.
#[test]
fn miss_schedule_engages_exactly_where_expected() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);

    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let (_, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    assert!(
        m.counters.get(CounterId::SchedRecords) > 0,
        "miss-rich config never served a set-state burst"
    );
    assert_eq!(m.counters.get(CounterId::SchedReplays), 0, "retired");
    assert_eq!(m.counters.get(CounterId::SchedSigMisses), 0, "retired");

    let off = cfg.with_miss_schedule(false);
    let (_, m) = run_trial_observed(&off, base, trial, ObsConfig::default());
    assert_eq!(m.counters.get(CounterId::SchedRecords), 0, "disabled");
    assert_eq!(m.counters.get(CounterId::SchedReplays), 0, "retired");
    assert_eq!(m.counters.get(CounterId::SchedSigMisses), 0, "retired");
}
