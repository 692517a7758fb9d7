//! Differential suite for set-state burst service and the
//! `with_miss_schedule` compatibility setter.
//!
//! Every trapped burst on the cache/split path is served by
//! `Tapeworm::service_burst`: size the run from the trap bitmap, clear
//! it (one merged clear where the geometry allows, else per granule in
//! handler order), then insert each line with the miss handler's own
//! step. That is only legal because it is *bit-identical* to stepwise
//! servicing — same `TrialResult`, same ring-event virtual timestamps,
//! same counters (minus the batch bookkeeping). This suite pins that
//! equivalence for every simulator mode, serial and parallel sweeps,
//! and pins `SystemConfig::with_miss_schedule` as a no-op: there is no
//! second burst path left for it to select, so a config that calls it
//! must run exactly like one that does not, every counter included.

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
/// the throughput gate, where set-state service matters most.
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

/// Counters that legitimately differ between set-state and stepwise
/// servicing: the batch bookkeeping itself (flushes, and the burst
/// tally that equals them), and the fast-path tallies (a burst hands
/// different residues to the clean-run batcher).
fn batch_bookkeeping(id: CounterId) -> bool {
    matches!(
        id,
        CounterId::MissBatchFlushes
            | CounterId::FastRuns
            | CounterId::FastWords
            | CounterId::SchedRecords
    )
}

/// The acceptance bar: for every simulator mode, a sweep served through
/// set-state bursts commits `TrialResult`s bit-identical to stepwise
/// servicing (`with_miss_batch(false)`), at 1, 4 and 8 worker threads,
/// with metrics equal modulo the batch bookkeeping. The same sweep with
/// `with_miss_schedule(false)` applied is identical in every result,
/// counter and phase: the setter is a no-op.
#[test]
fn miss_schedule_is_bit_identical_to_stepwise() {
    for (label, cfg) in modes() {
        let stepwise_cfgs = vec![cfg.clone().with_miss_batch(false)];
        let noop_cfgs = vec![cfg.clone().with_miss_schedule(false)];
        let sched_cfgs = vec![cfg];
        let stepwise = run_sweep(&stepwise_cfgs, 4, SeedSeq::new(1994), 1);
        for threads in [1usize, 4, 8] {
            let sched = run_sweep(&sched_cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&stepwise),
                flatten(&sched),
                "{label}: set-state servicing diverged at threads={threads}"
            );
            let (sm, bm) = (&stepwise[0].metrics(), &sched[0].metrics());
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

            let noop = run_sweep(&noop_cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&noop),
                flatten(&sched),
                "{label}: with_miss_schedule(false) changed a result at threads={threads}"
            );
            let nm = &noop[0].metrics();
            for (id, v) in bm.counters.iter() {
                assert_eq!(
                    v,
                    nm.counters.get(id),
                    "{label}: with_miss_schedule(false) moved counter {id} at threads={threads}"
                );
            }
            assert_eq!(nm.phases, bm.phases, "{label}: no-op moved phase cycles");
        }
    }
}

/// Bursts emit ring events with recomputed *virtual* timestamps (the
/// cycle each trap would have been serviced at, had the engine
/// stepped). The observable event streams must therefore match the
/// stepwise run exactly — kind, cycle, thread and address — and the
/// `with_miss_schedule(false)` run must match both.
#[test]
fn miss_schedule_preserves_ring_event_timestamps() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);
    for (label, cfg) in modes() {
        let stepwise = cfg.clone().with_miss_batch(false);
        let noop = cfg.clone().with_miss_schedule(false);
        let (br, bmx) = run_trial_observed(&cfg, base, trial, ObsConfig::with_ring(4096));
        let (sr, smx) = run_trial_observed(&stepwise, base, trial, ObsConfig::with_ring(4096));
        let (nr, nmx) = run_trial_observed(&noop, base, trial, ObsConfig::with_ring(4096));
        assert_eq!(br, sr, "{label}: observed results diverged");
        assert_eq!(
            bmx.events_recorded, smx.events_recorded,
            "{label}: event counts diverged"
        );
        assert_eq!(bmx.events, smx.events, "{label}: ring events diverged");
        assert_eq!(nr, br, "{label}: no-op setter changed the result");
        assert_eq!(
            nmx.events, bmx.events,
            "{label}: no-op setter moved ring events"
        );
    }
}

/// Set-state service engages where it is supposed to — the miss-rich
/// gate-shaped config serves bursts through it, one per flush — and
/// `with_miss_schedule(false)` does not turn it off (only
/// `with_miss_batch(false)` does). The retired replay counters stay 0.
#[test]
fn miss_schedule_engages_exactly_where_expected() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);

    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let (_, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
    let served = m.counters.get(CounterId::SchedRecords);
    assert!(
        served > 0,
        "miss-rich config never served a set-state burst"
    );
    assert_eq!(
        served,
        m.counters.get(CounterId::MissBatchFlushes),
        "a flush that was not one served burst"
    );
    assert_eq!(m.counters.get(CounterId::SchedReplays), 0, "retired");
    assert_eq!(m.counters.get(CounterId::SchedSigMisses), 0, "retired");

    let noop = cfg.clone().with_miss_schedule(false);
    let (_, m) = run_trial_observed(&noop, base, trial, ObsConfig::default());
    assert_eq!(
        m.counters.get(CounterId::SchedRecords),
        served,
        "with_miss_schedule(false) changed how many bursts were served"
    );
    assert_eq!(m.counters.get(CounterId::SchedReplays), 0, "retired");
    assert_eq!(m.counters.get(CounterId::SchedSigMisses), 0, "retired");

    let off = cfg.with_miss_batch(false);
    let (_, m) = run_trial_observed(&off, base, trial, ObsConfig::default());
    assert_eq!(m.counters.get(CounterId::SchedRecords), 0, "disabled");
    assert_eq!(m.counters.get(CounterId::SchedReplays), 0, "retired");
    assert_eq!(m.counters.get(CounterId::SchedSigMisses), 0, "retired");
}
