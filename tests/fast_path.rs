//! Differential suite for the resident-run fast path.
//!
//! The engine's hot loop may retire whole trap-free instruction runs in
//! one batch instead of stepping chunk by chunk. That optimisation is
//! only legal because it is *bit-identical* to stepwise execution —
//! same `TrialResult`, same interrupt delivery positions, same
//! observability counters (minus the fast-path tallies themselves).
//! This suite pins that equivalence for every simulator mode and for
//! both serial and parallel sweeps, and exercises the kill switch,
//! `SystemConfig::with_fast_path(false)`.

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

/// The acceptance bar: for every simulator mode, a sweep with the fast
/// path enabled commits `TrialResult`s bit-identical to the forced slow
/// path, at 1 and 4 worker threads. (Metrics are compared modulo the
/// fast-path tallies, which legitimately differ.)
#[test]
fn fast_path_is_bit_identical_to_slow_path() {
    for (label, cfg) in modes() {
        let slow_cfgs = vec![cfg.clone().with_fast_path(false)];
        let fast_cfgs = vec![cfg];
        let slow = run_sweep(&slow_cfgs, 4, SeedSeq::new(1994), 1);
        for threads in [1usize, 4] {
            let fast = run_sweep(&fast_cfgs, 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&slow),
                flatten(&fast),
                "{label}: fast path diverged from slow path at threads={threads}"
            );
            // Everything the simulation itself counts must match too;
            // only the fast-path bookkeeping may differ.
            let (sm, fm) = (&slow[0].metrics(), &fast[0].metrics());
            for (id, sv) in sm.counters.iter() {
                // The miss-burst flush tally rides the fast path
                // (bursts only form where the batched clean-run scan
                // runs), so it differs with the fast path off too —
                // as do the miss-schedule tallies and the victim memo,
                // which the schedule path replaces wholesale.
                if matches!(
                    id,
                    CounterId::FastRuns
                        | CounterId::FastWords
                        | CounterId::MissBatchFlushes
                        | CounterId::VictimMemoHits
                        | CounterId::SchedReplays
                        | CounterId::SchedRecords
                        | CounterId::SchedSigMisses
                ) {
                    continue;
                }
                assert_eq!(
                    sv,
                    fm.counters.get(id),
                    "{label}: counter {id} diverged at threads={threads}"
                );
            }
            assert_eq!(sm.phases, fm.phases, "{label}: phase cycles diverged");
        }
    }
}

/// The fast path actually engages where it is supposed to — cache-style
/// configs retire most instructions through it — and never engages on
/// the excluded modes or when disabled.
#[test]
fn fast_path_engages_exactly_where_expected() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("fast", 0).derive("trial", 0);

    for (label, cfg) in modes() {
        let (r, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
        let runs = m.counters.get(CounterId::FastRuns);
        let words = m.counters.get(CounterId::FastWords);
        match label {
            // TLB mode has no per-chunk access dispatch and the kernel
            // trace buffer pays per reference; neither may batch.
            "tlb" | "buffer" => {
                assert_eq!(runs, 0, "{label}: fast path must stay off");
                assert_eq!(words, 0, "{label}");
            }
            _ => {
                assert!(runs > 0, "{label}: fast path never engaged");
                assert!(words >= runs, "{label}: runs retire at least one word");
                assert!(
                    words * 2 > r.instructions,
                    "{label}: expected the majority of {} instructions on the \
                     fast path, got {words}",
                    r.instructions
                );
            }
        }
        // The config kill switch forces every word onto the slow path.
        let off = cfg.with_fast_path(false);
        let (_, m) = run_trial_observed(&off, base, trial, ObsConfig::default());
        assert_eq!(m.counters.get(CounterId::FastRuns), 0, "{label}: disabled");
        assert_eq!(m.counters.get(CounterId::FastWords), 0, "{label}: disabled");
    }
}
