//! The planner's honesty contract, proven differentially against the
//! full engine:
//!
//! (a) `plan = full` is digest-identical to the existing engine for
//!     every thread count — the planner in full mode *is* the engine.
//! (b) Every trap-simulated cell of a pruned sweep is bit-identical to
//!     the same cell of a full sweep (same seeds, same trial order,
//!     same committed record encoding).
//! (c) Every interpolated cell's miss-count error is within its own
//!     declared bound on the paper's Table 8/9-shaped grids.
//! (d) Every early-stopped cell's confidence interval covers the mean
//!     the cell would have reported had all trials run.
//!
//! Plus the kill switch: `TW_PLAN=0` restores exact engine behavior no
//! matter what the caller asked for.

use std::sync::{Mutex, MutexGuard};

use tapeworm::core::{CacheConfig, Indexing};
use tapeworm::sim::{
    encode_outcome, fold_outcomes, run_sweep_planned, run_sweep_resilient_observed, ComponentSet,
    PlanMode, PlannedCell, PlannerConfig, SweepOptions, SystemConfig, TrialOutcome, TrialSummary,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

/// Serializes every test that runs the planner: the kill-switch test
/// sets `TW_PLAN` process-wide, and a planned sweep running beside it
/// would read the forced mode instead of the one it asked for.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`ENV_LOCK`], recovering it if a test panicked while holding it
/// (the guarded data is `()`, so a poisoned lock carries no bad state).
fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const BASE_SEED: u64 = 1994;

fn dm4(kb: u64, indexing: Indexing) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 1)
        .expect("valid geometry")
        .with_indexing(indexing)
}

/// The Table 9 shape: mpeg_play user task over physically-indexed
/// direct-mapped caches 4K–128K — the grid where page-allocation luck
/// is the variance source and the Kessler model earns its keep.
fn tab9_grid() -> Vec<SystemConfig> {
    [4u64, 8, 16, 32, 64, 128]
        .iter()
        .map(|&kb| {
            SystemConfig::cache(Workload::MpegPlay, dm4(kb, Indexing::Physical))
                .with_components(ComponentSet::user_only())
                .with_scale(20_000)
        })
        .collect()
}

/// The Table 8 shape: espresso user task, virtually-indexed caches
/// 1K–32K with the given set-sampling denominator. Virtual indexing
/// makes the model confident (no placement luck), so interior cells
/// interpolate; sampling = 1 makes every trial identical.
fn tab8_grid(sampling: u64) -> Vec<SystemConfig> {
    [1u64, 2, 4, 8, 16, 32]
        .iter()
        .map(|&kb| {
            SystemConfig::cache(Workload::Espresso, dm4(kb, Indexing::Virtual))
                .with_components(ComponentSet::user_only())
                .with_scale(20_000)
                .with_sampling(sampling)
        })
        .collect()
}

/// Ground truth: the full engine's outcomes and folded summaries.
fn full_sweep(configs: &[SystemConfig], trials: usize) -> (Vec<TrialOutcome>, Vec<TrialSummary>) {
    let mut outcomes = Vec::with_capacity(configs.len() * trials);
    run_sweep_resilient_observed(
        configs,
        trials,
        SeedSeq::new(BASE_SEED),
        &SweepOptions::default(),
        |_, o| outcomes.push(o.clone()),
    );
    let (cells, failed) = fold_outcomes(trials, outcomes.clone());
    assert!(failed.is_empty(), "ground-truth sweep must be clean");
    (outcomes, cells)
}

/// (a) Full mode delegates to the engine: bit-identical outcomes and
/// summaries for TW_THREADS-equivalent worker counts 1, 4 and 8.
#[test]
fn full_mode_is_bit_identical_to_the_engine_for_all_thread_counts() {
    let _guard = env_lock();
    let configs = tab9_grid();
    let trials = 4;
    let (engine, engine_cells) = full_sweep(&configs, trials);
    for threads in [1usize, 4, 8] {
        let planned = run_sweep_planned(
            &configs,
            trials,
            SeedSeq::new(BASE_SEED),
            &SweepOptions::default().with_threads(threads),
            &PlannerConfig::full(),
        );
        assert_eq!(planned.mode(), PlanMode::Full);
        assert_eq!(planned.simulated_outcomes().len(), engine.len());
        for (index, outcome) in planned.simulated_outcomes() {
            assert_eq!(
                encode_outcome(*index, outcome),
                encode_outcome(*index, &engine[*index]),
                "threads={threads} index={index}"
            );
        }
        assert_eq!(planned.cells().len(), engine_cells.len());
        for (cell, engine_cell) in planned.cells().iter().zip(&engine_cells) {
            let PlannedCell::Simulated {
                summary,
                trials_run,
                early_stop,
            } = cell
            else {
                panic!("full mode must not interpolate");
            };
            assert_eq!(*trials_run, trials);
            assert!(early_stop.is_none());
            assert_eq!(summary.misses().mean(), engine_cell.misses().mean());
            assert_eq!(summary.slowdowns().mean(), engine_cell.slowdowns().mean());
        }
        assert_eq!(planned.cells_simulated(), configs.len() as u64);
        assert_eq!(planned.cells_interpolated(), 0);
        assert_eq!(planned.trials_saved(), 0);
    }
}

/// (b) Pruned simulated cells are bit-identical to the full sweep's
/// cells at the same global indices — same seeds, same trial order,
/// same encoding. CI bound 0 isolates pure pruning (no early stops).
#[test]
fn pruned_simulated_cells_are_bit_identical_to_the_full_sweep() {
    let _guard = env_lock();
    let configs = tab9_grid();
    let trials = 4;
    let (engine, _) = full_sweep(&configs, trials);
    let planned = run_sweep_planned(
        &configs,
        trials,
        SeedSeq::new(BASE_SEED),
        &SweepOptions::default(),
        &PlannerConfig::pruned().with_ci_bound(0.0),
    );
    assert_eq!(planned.mode(), PlanMode::Pruned);
    assert!(planned.cells_interpolated() > 0, "grid must actually prune");
    assert!(planned.trials_saved() > 0);
    assert_eq!(planned.ci_early_stops(), 0, "ci_bound = 0 disables stops");
    assert!(
        !planned.simulated_outcomes().is_empty(),
        "endpoints always simulate"
    );
    for (index, outcome) in planned.simulated_outcomes() {
        assert_eq!(
            encode_outcome(*index, outcome),
            encode_outcome(*index, &engine[*index]),
            "simulated cell at index {index} must be ground truth"
        );
    }
    // Bookkeeping adds up: every cell is either simulated or
    // interpolated, and saved trials = the interpolated cells' trials.
    assert_eq!(
        planned.cells_simulated() + planned.cells_interpolated(),
        configs.len() as u64
    );
    assert_eq!(
        planned.trials_saved(),
        planned.cells_interpolated() * trials as u64
    );
}

/// (c) Every interpolated cell's miss estimate is within its declared
/// bound of the full sweep's measured mean, on both table shapes.
#[test]
fn interpolated_cells_stay_within_their_declared_bound() {
    let _guard = env_lock();
    for (label, configs, trials) in [
        ("tab9-physical", tab9_grid(), 4usize),
        ("tab8-virtual-sampled", tab8_grid(8), 4),
        ("tab8-virtual-unsampled", tab8_grid(1), 4),
    ] {
        let (_, truth) = full_sweep(&configs, trials);
        let planned = run_sweep_planned(
            &configs,
            trials,
            SeedSeq::new(BASE_SEED),
            &SweepOptions::default(),
            &PlannerConfig::pruned().with_ci_bound(0.0),
        );
        let mut interpolated = 0;
        for (c, cell) in planned.cells().iter().enumerate() {
            let PlannedCell::Interpolated(e) = cell else {
                continue;
            };
            interpolated += 1;
            let actual = truth[c].misses().mean();
            let error = (e.misses - actual).abs();
            assert!(
                error <= e.miss_bound,
                "{label} config {c}: estimate {} vs measured {actual} — \
                 error {error} exceeds declared bound {}",
                e.misses,
                e.miss_bound
            );
            assert!(e.miss_bound.is_finite() && e.miss_bound > 0.0);
            assert!(e.left < c && c < e.right, "{label} config {c}");
        }
        assert!(interpolated > 0, "{label}: nothing interpolated");
    }
}

/// (d) Every early-stopped cell's reported CI covers the mean the cell
/// would have reported with all trials. The unsampled virtual grid has
/// zero trial variance, so its simulated cells *must* stop at
/// `min_trials` with an exact (zero-width) interval; the sampled grid
/// exercises real spread.
#[test]
fn early_stopped_cells_cover_the_full_trial_mean() {
    let _guard = env_lock();
    let trials = 8;
    let mut early_stops_seen = 0;
    for (label, configs, bound, must_stop) in [
        ("unsampled", tab8_grid(1), 0.10, true),
        ("sampled", tab8_grid(8), 0.35, false),
    ] {
        let (_, truth) = full_sweep(&configs, trials);
        let planned = run_sweep_planned(
            &configs,
            trials,
            SeedSeq::new(BASE_SEED),
            &SweepOptions::default(),
            &PlannerConfig::pruned().with_ci_bound(bound),
        );
        if must_stop {
            assert!(
                planned.ci_early_stops() > 0,
                "{label}: zero-variance cells must stop at min_trials"
            );
        }
        for (c, cell) in planned.cells().iter().enumerate() {
            let PlannedCell::Simulated {
                trials_run,
                early_stop: Some(ci),
                ..
            } = cell
            else {
                continue;
            };
            early_stops_seen += 1;
            assert!(*trials_run < trials, "{label} config {c}");
            let full_mean = truth[c].misses().mean();
            assert!(
                ci.contains(full_mean),
                "{label} config {c}: stopped CI [{}, {}] after {trials_run} trials \
                 does not cover the {trials}-trial mean {full_mean}",
                ci.low(),
                ci.high()
            );
        }
        // Early-stopped cells still save trials over the full sweep.
        if planned.ci_early_stops() > 0 {
            assert!(planned.trials_saved() >= planned.cells_interpolated() * trials as u64);
        }
    }
    assert!(early_stops_seen > 0);
}

/// The kill switch: `TW_PLAN=0` forces full-engine behavior over a
/// pruned request, `TW_PLAN=pruned` forces the planner over a full
/// request, and unset leaves the caller's choice alone.
#[test]
fn tw_plan_kill_switch_overrides_the_requested_mode() {
    let _guard = env_lock();
    let configs = tab9_grid();
    let trials = 3;
    let (engine, _) = full_sweep(&configs, trials);

    std::env::set_var("TW_PLAN", "0");
    let forced_full = run_sweep_planned(
        &configs,
        trials,
        SeedSeq::new(BASE_SEED),
        &SweepOptions::default(),
        &PlannerConfig::pruned(),
    );
    std::env::set_var("TW_PLAN", "pruned");
    let forced_pruned = run_sweep_planned(
        &configs,
        trials,
        SeedSeq::new(BASE_SEED),
        &SweepOptions::default(),
        &PlannerConfig::full(),
    );
    std::env::remove_var("TW_PLAN");

    assert_eq!(forced_full.mode(), PlanMode::Full);
    assert_eq!(forced_full.simulated_outcomes().len(), engine.len());
    for (index, outcome) in forced_full.simulated_outcomes() {
        assert_eq!(
            encode_outcome(*index, outcome),
            encode_outcome(*index, &engine[*index]),
            "TW_PLAN=0 must restore exact engine behavior"
        );
    }
    assert_eq!(forced_pruned.mode(), PlanMode::Pruned);
    assert!(forced_pruned.cells_interpolated() > 0);
}
