//! Differential suite for batched miss handling.
//!
//! When a chunk's clean-span scan shows a trap-dense stretch, the
//! engine serves the whole trapped run through `Tapeworm::service_burst`
//! (the handler's own table steps, one deferred clock advance) instead
//! of bouncing trap-by-trap between simulator and kernel. That is one
//! path for every cache geometry: the single cache and the split I-side
//! with any indexing, replacement, associativity or set sampling. Like
//! the resident-run fast path, the batch is only legal because it is
//! *bit-identical* to stepwise servicing — same `TrialResult`, same
//! ring-event timestamps, same counters (minus the batch bookkeeping
//! itself). This suite pins that equivalence for every simulator mode
//! and each kind of cache geometry, serial and parallel sweeps, and
//! the kill switch, `SystemConfig::with_miss_batch(false)`.

use tapeworm::core::{CacheConfig, Indexing, Replacement, TlbSimConfig};
use tapeworm::obs::CounterId;
use tapeworm::sim::{
    run_sweep, run_trial_observed, ComponentSet, ObsConfig, SimModel, SystemConfig, TrialResult,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

const SCALE: u64 = 20_000;

fn dm(kb: u64) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry")
}

fn two_way(kb: u64) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 2).expect("valid geometry")
}

/// One configuration per simulator mode, same shapes as the golden
/// determinism matrix, then one per kind of cache geometry: set spans
/// below a page, random replacement, virtual indexing and set sampling,
/// on the single cache and the split I-side, and two more geometries
/// served as merged runs (set span ≥ page): the `hit-heavy` benchmark
/// cache and a set-associative FIFO whose set span is exactly a page.
/// The miss-rich `user_only` cache configs mirror the throughput gate,
/// where batching matters most.
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
            "cache-sampled",
            SystemConfig::cache(Workload::MpegPlay, dm(16))
                .with_sampling(8)
                .with_scale(SCALE),
        ),
        (
            "split-2way",
            SystemConfig::split(Workload::JpegPlay, two_way(4), two_way(4)).with_scale(SCALE),
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

/// The modes whose misses can take the burst path: the single cache
/// and the split I-side (the two-level hierarchy's L2-dependent cost
/// stays stepwise).
fn bursting(cfg: &SystemConfig) -> bool {
    matches!(cfg.model, SimModel::Cache(_) | SimModel::SplitCache { .. })
}

fn flatten(cells: &[tapeworm::sim::TrialSummary]) -> Vec<&TrialResult> {
    cells.iter().flat_map(|c| c.results()).collect()
}

/// Counters that legitimately differ between batched and stepwise
/// servicing: the batch bookkeeping itself (flushes, and the burst
/// tally that equals them), and the fast-path tallies (the burst hands
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

/// The acceptance bar: for every simulator mode, a sweep with miss
/// batching enabled commits `TrialResult`s bit-identical to stepwise
/// servicing, at 1, 4 and 8 worker threads. (Metrics are compared
/// modulo the batch bookkeeping, which legitimately differs.)
#[test]
fn miss_batch_is_bit_identical_to_stepwise() {
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

/// The batch engages where it is supposed to — every cache and split
/// mode serves bursts, each flush being one burst served through
/// `service_burst` — and never engages when disabled via the config
/// knob. The retired slots (replay, signature misses, victim memo)
/// read 0.
#[test]
fn miss_batch_engages_exactly_where_expected() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("batch", 0).derive("trial", 0);

    for (label, cfg) in modes() {
        let (_, m) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
        let c = |id| m.counters.get(id);
        if bursting(&cfg) {
            assert!(
                c(CounterId::SchedRecords) > 0,
                "{label}: never served a burst"
            );
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
    }

    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let off = cfg.with_miss_batch(false);
    let (_, m) = run_trial_observed(&off, base, trial, ObsConfig::default());
    assert_eq!(
        m.counters.get(CounterId::MissBatchFlushes),
        0,
        "disabled batch still flushed"
    );
}
