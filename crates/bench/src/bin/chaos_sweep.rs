//! Chaos gate: drive the fault-tolerant sweep engine through injected
//! panics, hangs, a simulated mid-run kill and checkpoint write
//! failures, and prove the merged output never moves.
//!
//! The scenario is pinned — the `tests/determinism.rs` sweep grid
//! (espresso 1K + mpeg_play 4K, user-only, 1/8 sampling, scale
//! 1/20000), 4 trials, seed 1994 — deliberately independent of
//! `TW_SCALE`/`TW_SEED` so the digest printed here is a constant:
//! `ci.sh` greps it against the golden value in
//! `tests/determinism.rs::CHAOS_GOLDEN_DIGEST`. Only `TW_THREADS`
//! varies, and thread-count invariance means it must not matter.
//!
//! Four runs, one digest:
//!
//! 1. **clean** — the fault-free baseline;
//! 2. **faulted** — a seeded [`FaultPlan`] plus targeted panics on two
//!    trials; every fault must be retried to success;
//! 3. **kill + resume** — stop after 3 commits, then resume from the
//!    checkpoint;
//! 4. **write-failed** — the first checkpoint write fails; the sweep
//!    must shrug and complete.
//!
//! Exit status is non-zero on any divergence, so `ci.sh` can gate on
//! it directly. Scheduler-level fault counters are exported to
//! `results/METRICS_chaos.json`.

use std::path::Path;
use std::process::ExitCode;

use tapeworm_bench::threads;
use tapeworm_obs::{MetricsReport, TrialMetrics};
use tapeworm_sim::{
    fnv1a, run_sweep_resilient, CheckpointConfig, ComponentSet, FaultPlan, SweepOptions,
    SweepOutcome, SystemConfig, TrialResult, TrialSummary,
};
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

const TRIALS: usize = 4;
const SEED: u64 = 1994;
const FAULT_SEED: u64 = 7;

fn configs() -> Vec<SystemConfig> {
    [(Workload::Espresso, 1u64), (Workload::MpegPlay, 4)]
        .into_iter()
        .map(|(w, kb)| {
            let cache = tapeworm_core::CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
            SystemConfig::cache(w, cache)
                .with_components(ComponentSet::user_only())
                .with_scale(20_000)
                .with_sampling(8)
        })
        .collect()
}

/// Same digest as `tests/determinism.rs::chaos_digest`: flattened
/// results plus per-cell merged metrics, Debug-formatted.
fn digest(cells: &[TrialSummary]) -> u64 {
    let results: Vec<&TrialResult> = cells.iter().flat_map(|c| c.results()).collect();
    let metrics: Vec<_> = cells.iter().map(|c| c.metrics()).collect();
    fnv1a(format!("{results:?}|{metrics:?}").as_bytes())
}

/// Injected panics are expected and contained; keep them off stderr so
/// the gate output stays readable. Real panics still report.
fn install_quiet_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("injected fault") {
            default_hook(info);
        }
    }));
}

fn check(ok: bool, what: &str, failures: &mut u32) {
    if ok {
        println!("ok   {what}");
    } else {
        println!("FAIL {what}");
        *failures += 1;
    }
}

fn main() -> ExitCode {
    install_quiet_panic_hook();
    let configs = configs();
    let base = SeedSeq::new(SEED);
    let threads = threads();
    let mut failures = 0u32;
    println!(
        "chaos_sweep: {TRIALS} trials x {} configs, {threads} threads",
        configs.len()
    );

    // 1. Fault-free baseline.
    let clean = run_sweep_resilient(
        &configs,
        TRIALS,
        base,
        &SweepOptions::default().with_threads(threads),
    );
    let golden = digest(clean.cells());
    check(
        clean.fault_stats().is_clean(),
        "clean: no faults recorded",
        &mut failures,
    );
    println!("digest: {golden:#018x}");

    // 2. Seeded chaos plus targeted panics on two trials: everything
    // retries to success and the digest holds.
    let faults = FaultPlan::from_seed(SeedSeq::new(FAULT_SEED), configs.len() * TRIALS, 25)
        .with_panic(1, 0)
        .with_panic(6, 0);
    println!(
        "fault plan (seed {FAULT_SEED}): {} panics, {} hangs",
        faults.panic_count(),
        faults.exhaust_count()
    );
    let faulted = run_sweep_resilient(
        &configs,
        TRIALS,
        base,
        &SweepOptions::default()
            .with_threads(threads)
            .with_faults(faults.clone()),
    );
    let stats = faulted.fault_stats();
    println!(
        "recovered: {} retries, {} panics contained, {} workers respawned, {} backoff units",
        stats.retries, stats.panics, stats.workers_respawned, stats.backoff_units
    );
    check(
        faulted.failed().is_empty(),
        "faulted: all retries succeeded",
        &mut failures,
    );
    check(
        stats.panics >= 2,
        "faulted: both targeted panics fired",
        &mut failures,
    );
    check(
        digest(faulted.cells()) == golden,
        "faulted: digest identical to clean run",
        &mut failures,
    );

    // 3. Deterministic kill after 3 commits, then resume.
    let ck_path = Path::new("results/CHECKPOINT_chaos.json");
    let killed = run_sweep_resilient(
        &configs,
        TRIALS,
        base,
        &SweepOptions::default()
            .with_threads(threads)
            .with_checkpoint(
                CheckpointConfig::new(ck_path)
                    .with_interval(1)
                    .with_stop_after(3),
            ),
    );
    check(
        killed.stopped_after() == Some(3),
        "killed: stopped after 3 commits",
        &mut failures,
    );
    let resumed = run_sweep_resilient(
        &configs,
        TRIALS,
        base,
        &SweepOptions::default()
            .with_threads(threads)
            .with_checkpoint(CheckpointConfig::new(ck_path).resuming()),
    );
    check(
        resumed.resumed_trials() == 3,
        "resumed: replayed 3 committed trials",
        &mut failures,
    );
    check(
        digest(resumed.cells()) == golden,
        "resumed: digest identical to clean run",
        &mut failures,
    );
    check(
        !ck_path.exists(),
        "resumed: checkpoint removed on completion",
        &mut failures,
    );

    // 4. The first checkpoint write fails; the sweep completes anyway.
    let write_failed = run_sweep_resilient(
        &configs,
        TRIALS,
        base,
        &SweepOptions::default()
            .with_threads(threads)
            .with_faults(FaultPlan::new().with_checkpoint_write_failures(1))
            .with_checkpoint(CheckpointConfig::new(ck_path).with_interval(1)),
    );
    check(
        write_failed.checkpoint_write_failures() == 1,
        "write-failed: failure counted",
        &mut failures,
    );
    check(
        digest(write_failed.cells()) == golden,
        "write-failed: digest identical to clean run",
        &mut failures,
    );

    // Export the faulted run's metrics plus the scheduler's fault
    // counters. Committed per-trial metrics stay fault-free by design;
    // the scheduler entry carries the recovery accounting.
    let mut report = MetricsReport::new("chaos_sweep", "chaos");
    for (i, cell) in faulted.cells().iter().enumerate() {
        report.push(
            &format!("config-{i}"),
            TRIALS as u64,
            cell.metrics().clone(),
        );
    }
    report.push("scheduler", TRIALS as u64, scheduler_metrics(&faulted));
    report
        .write(Path::new("results/METRICS_chaos.json"))
        .expect("results/METRICS_chaos.json must be writable");
    println!("wrote results/METRICS_chaos.json");

    if failures == 0 {
        println!("chaos_sweep: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("chaos_sweep: {failures} check(s) FAILED");
        ExitCode::FAILURE
    }
}

fn scheduler_metrics(outcome: &SweepOutcome) -> TrialMetrics {
    let mut m = TrialMetrics::new();
    m.counters = outcome.fault_counters();
    m
}
