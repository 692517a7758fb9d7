//! Parallel configuration sweeps with deterministic, fault-tolerant
//! output.
//!
//! The paper's evaluation is a grid: Figures 2–4 sweep dozens of cache
//! configurations, Tables 7–9 repeat each configuration 4–16 times to
//! measure run-to-run spread. Every `(config, trial)` cell is an
//! independent pure function of `(config, base_seed, trial_index)`, so
//! [`run_sweep_resilient`] fans the whole grid over a
//! [`TrialScheduler`] worker pool and folds results back per
//! configuration, in trial order, through the scheduler's deterministic
//! committer. Output is bit-identical for every thread count.
//!
//! On top of the deterministic committer this module layers the sweep
//! engine's fault tolerance (see DESIGN.md §10):
//!
//! * **retry** — worker panics and typed trial errors are contained by
//!   the scheduler and re-attempted under a [`RetryPolicy`]; trials
//!   that exhaust the budget surface as [`FailedTrial`]s instead of
//!   aborting the sweep;
//! * **checkpoint/resume** — the committed prefix is periodically
//!   persisted via [`CheckpointConfig`] and a restarted sweep replays
//!   it bit-identically, computing only the remaining cells;
//! * **fault injection** — a [`FaultPlan`] deterministically sabotages
//!   chosen `(trial, attempt)` cells so all of the above is testable.
//!
//! Because a retried attempt recomputes a pure function of the trial
//! index, a faulted sweep whose retries succeed commits *exactly* the
//! cells a fault-free run would — the chaos gate in `ci.sh` pins this.
//!
//! Seed discipline (the lib-level determinism contract): the workload's
//! own reference stream derives from `base` and is shared by all cells;
//! the effects the paper identifies as run-to-run variance derive from
//! `base.derive("sweep-config", c).derive("trial", t)`, so trial `t` of
//! configuration `c` is reproducible in isolation.

use std::fs;

use tapeworm_obs::{write_atomic, CounterId, Counters, TrialMetrics};
use tapeworm_stats::trials::{FaultStats, RetryPolicy, TrialFailure, TrialScheduler};
use tapeworm_stats::{OnlineStats, SeedSeq, Summary};

use crate::checkpoint::{self, CheckpointConfig, StoredOutcome, TrialOutcome};
use crate::config::SystemConfig;
use crate::fault::FaultPlan;
use crate::quanta::RunningTrials;
use crate::result::TrialResult;
use crate::system::{try_run_trial_observed, ObsConfig};

/// Per-configuration outcome of a sweep: the raw trial results in trial
/// order plus ready-made summaries of the two headline metrics.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    results: Vec<TrialResult>,
    misses: Summary,
    slowdowns: Summary,
    metrics: TrialMetrics,
}

impl TrialSummary {
    /// Raw per-trial results, indexed by trial number. Trials that
    /// exhausted their retry budget are absent (see
    /// [`SweepOutcome::failed`]).
    pub fn results(&self) -> &[TrialResult] {
        &self.results
    }

    /// Summary of [`TrialResult::total_misses`] over the trials.
    pub fn misses(&self) -> &Summary {
        &self.misses
    }

    /// Summary of [`TrialResult::slowdown`] over the trials.
    pub fn slowdowns(&self) -> &Summary {
        &self.slowdowns
    }

    /// Observability metrics merged over the trials in commit (trial)
    /// order — deterministic for every thread count.
    pub fn metrics(&self) -> &TrialMetrics {
        &self.metrics
    }

    /// Summary of an arbitrary per-trial metric.
    ///
    /// # Panics
    ///
    /// Panics only if every trial of the cell failed (no results).
    pub fn summary_of<F>(&self, metric: F) -> Summary
    where
        F: FnMut(&TrialResult) -> f64,
    {
        Summary::from_values(self.results.iter().map(metric).collect::<Vec<_>>())
            .expect("summary_of needs at least one surviving trial")
    }
}

/// One trial that exhausted its retry budget. The sweep completed
/// anyway; its cell simply has no result for this trial.
#[derive(Debug, Clone)]
pub struct FailedTrial {
    /// Configuration index (into the sweep's `configs` slice).
    pub config: usize,
    /// Trial index within the configuration.
    pub trial: usize,
    /// The terminal failure, including attempt and backoff accounting.
    pub failure: TrialFailure,
}

/// Everything that shapes a resilient sweep besides the grid itself.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` selects the host's available parallelism and
    /// `1` is the exact serial loop. Never affects committed values.
    pub threads: usize,
    /// Retry budget and deterministic backoff for faulted trials.
    pub retry: RetryPolicy,
    /// Injected faults (empty by default — production sweeps).
    pub faults: FaultPlan,
    /// Per-trial observability configuration.
    pub obs: ObsConfig,
    /// Periodic checkpointing and resume; `None` disables both.
    pub checkpoint: Option<CheckpointConfig>,
}

impl SweepOptions {
    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-trial observability configuration.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Enables checkpointing (and, if configured, resume).
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }
}

/// The full outcome of a resilient sweep: per-configuration cells plus
/// fault, retry, and checkpoint accounting.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    cells: Vec<TrialSummary>,
    failed: Vec<FailedTrial>,
    stats: FaultStats,
    resumed_trials: usize,
    checkpoint_mismatch: bool,
    checkpoint_write_failures: u64,
    stopped_after: Option<usize>,
}

impl SweepOutcome {
    /// Per-configuration summaries, in input order. When the sweep was
    /// stopped early ([`CheckpointConfig::stop_after`]) only fully
    /// committed configurations appear.
    pub fn cells(&self) -> &[TrialSummary] {
        &self.cells
    }

    /// Consumes the outcome, returning the cells.
    pub fn into_cells(self) -> Vec<TrialSummary> {
        self.cells
    }

    /// Trials that exhausted their retry budget, in commit order.
    pub fn failed(&self) -> &[FailedTrial] {
        &self.failed
    }

    /// Scheduler-level fault accounting (retries, contained panics,
    /// respawned workers, virtual backoff). Identical for every thread
    /// count.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Trials replayed from the checkpoint instead of recomputed.
    pub fn resumed_trials(&self) -> usize {
        self.resumed_trials
    }

    /// Whether a checkpoint file existed but belonged to a different
    /// sweep (or was corrupt) and was therefore ignored.
    pub fn checkpoint_mismatch(&self) -> bool {
        self.checkpoint_mismatch
    }

    /// Checkpoint writes that failed (injected or real I/O errors); the
    /// sweep keeps the previous complete prefix and carries on.
    pub fn checkpoint_write_failures(&self) -> u64 {
        self.checkpoint_write_failures
    }

    /// `Some(commits)` when the sweep deliberately stopped early via
    /// [`CheckpointConfig::stop_after`]; `None` for a complete run.
    pub fn stopped_after(&self) -> Option<usize> {
        self.stopped_after
    }

    /// The scheduler's fault accounting as observability counters,
    /// ready to merge into a [`MetricsReport`](tapeworm_obs::MetricsReport).
    /// Kept separate from per-trial metrics so that committed trial
    /// values stay bit-identical between faulted and fault-free runs.
    pub fn fault_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.add(CounterId::TrialRetries, self.stats.retries);
        c.add(CounterId::TrialPanics, self.stats.panics);
        c.add(CounterId::TrialsFailed, self.stats.failed_trials);
        c.add(CounterId::WorkersRespawned, self.stats.workers_respawned);
        c
    }
}

/// An all-failed cell has no values; report an explicitly empty summary
/// rather than aborting the sweep.
fn summary_or_empty(stats: &OnlineStats) -> Summary {
    stats
        .summary()
        .unwrap_or_else(|| Summary::from_parts(0, 0.0, 0.0, 0.0, 0.0))
}

/// Folds committed `(index, outcome)` cells — replayed or live — into
/// per-configuration summaries, maintaining the checkpoint record lines
/// and periodic writes along the way.
struct Fold<'a> {
    trials: usize,
    total: usize,
    sweep_id: u64,
    checkpoint: Option<&'a CheckpointConfig>,
    out: Vec<TrialSummary>,
    results: Vec<TrialResult>,
    misses: OnlineStats,
    slowdowns: OnlineStats,
    metrics: TrialMetrics,
    failed: Vec<FailedTrial>,
    record_lines: Vec<String>,
    commits: usize,
    write_failure_budget: u32,
    write_failures: u64,
}

impl<'a> Fold<'a> {
    fn new(
        trials: usize,
        total: usize,
        sweep_id: u64,
        checkpoint: Option<&'a CheckpointConfig>,
        write_failure_budget: u32,
    ) -> Self {
        Fold {
            trials,
            total,
            sweep_id,
            checkpoint,
            out: Vec::new(),
            results: Vec::with_capacity(trials),
            misses: OnlineStats::new(),
            slowdowns: OnlineStats::new(),
            metrics: TrialMetrics::new(),
            failed: Vec::new(),
            record_lines: Vec::new(),
            commits: 0,
            write_failure_budget,
            write_failures: 0,
        }
    }

    fn commit(&mut self, index: usize, outcome: StoredOutcome) {
        if self.checkpoint.is_some() {
            self.record_lines
                .push(checkpoint::encode_record(index, &outcome));
        }
        match outcome {
            Ok((result, trial_metrics)) => {
                // Commits arrive strictly in index order, i.e.
                // config-major: all trials of config c before any trial
                // of config c + 1. Merging metrics here (not at
                // completion) keeps them deterministic for every thread
                // count.
                self.misses.push(result.total_misses());
                self.slowdowns.push(result.slowdown());
                self.results.push(result);
                self.metrics.merge(&trial_metrics);
            }
            Err(failure) => self.failed.push(FailedTrial {
                config: index / self.trials,
                trial: index % self.trials,
                failure,
            }),
        }
        if index % self.trials == self.trials - 1 {
            self.out.push(TrialSummary {
                results: std::mem::take(&mut self.results),
                misses: summary_or_empty(&self.misses),
                slowdowns: summary_or_empty(&self.slowdowns),
                metrics: std::mem::take(&mut self.metrics),
            });
            self.misses = OnlineStats::new();
            self.slowdowns = OnlineStats::new();
            self.results.reserve(self.trials);
        }
        self.commits += 1;
        if let Some(ck) = self.checkpoint {
            if self.commits % ck.interval == 0 && self.commits < self.total {
                self.write_checkpoint();
            }
        }
    }

    /// Rewrites the checkpoint file with the full committed prefix. A
    /// failed write — injected or real — is counted and tolerated: the
    /// previous complete prefix stays on disk.
    fn write_checkpoint(&mut self) {
        let Some(ck) = self.checkpoint else { return };
        if self.write_failure_budget > 0 {
            self.write_failure_budget -= 1;
            self.write_failures += 1;
            return;
        }
        let doc = checkpoint::render(self.sweep_id, self.total, &self.record_lines);
        if write_atomic(&ck.path, doc.as_bytes()).is_err() {
            self.write_failures += 1;
        }
    }
}

/// Runs attempt `attempt` of cell `index` exactly as the resilient
/// engine does: `options.faults` first (an injected panic or typed
/// watchdog failure), then the trial on a freshly built engine. The
/// planner's pruned pass runs its simulated cells through this too.
pub(crate) fn run_cell_attempt(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    index: usize,
    attempt: u32,
    options: &SweepOptions,
) -> Result<(TrialResult, TrialMetrics), String> {
    if options.faults.should_panic(index, attempt) {
        panic!("injected fault: panic on trial {index} attempt {attempt}");
    }
    if options.faults.should_exhaust(index, attempt) {
        return Err(format!(
            "injected fault: trial {index} attempt {attempt} \
             instruction budget exhausted by the watchdog"
        ));
    }
    let c = index / trials;
    let t = (index % trials) as u64;
    let trial = base.derive("sweep-config", c as u64).derive("trial", t);
    try_run_trial_observed(&configs[c], base, trial, options.obs).map_err(|e| e.to_string())
}

/// Runs one `(config, trial)` cell of the `configs × trials` grid in
/// isolation — the pure function the sweep engine fans out, with the
/// identical seed derivation, so the result is bit-identical to what
/// [`run_sweep_resilient`] would commit at `index`. This is the entry
/// point out-of-process worker backends execute per wire request.
///
/// # Errors
///
/// Returns the trial's typed error as a string (the scheduler's retry
/// currency).
///
/// # Panics
///
/// Panics if `trials == 0` or `index >= configs.len() * trials`.
pub fn run_sweep_cell(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    index: usize,
    obs: ObsConfig,
) -> Result<(TrialResult, TrialMetrics), String> {
    assert!(trials > 0, "a sweep needs at least one trial per config");
    assert!(index < configs.len() * trials, "cell index out of range");
    let options = SweepOptions::default().with_obs(obs);
    run_cell_attempt(configs, trials, base, index, 0, &options)
}

/// Folds per-trial outcomes (index order `0..n`) into per-configuration
/// summaries plus the failed list, through exactly the commit path
/// [`run_sweep_resilient`]'s committer uses — so cells assembled from
/// replayed, cached, or remotely-computed outcomes are bit-identical to
/// a live sweep's.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn fold_outcomes(
    trials: usize,
    outcomes: Vec<TrialOutcome>,
) -> (Vec<TrialSummary>, Vec<FailedTrial>) {
    assert!(trials > 0, "a sweep needs at least one trial per config");
    let total = outcomes.len();
    let mut fold = Fold::new(trials, total, 0, None, 0);
    for (index, outcome) in outcomes.into_iter().enumerate() {
        fold.commit(index, outcome);
    }
    (fold.out, fold.failed)
}

/// Runs `trials` trials of every configuration under `options` and
/// returns a [`SweepOutcome`] — never panicking on trial failure.
///
/// Fault tolerance: each `(config, trial)` cell is attempted up to
/// `options.retry.max_attempts` times; panics and typed errors are
/// contained by the scheduler (the panicked trial's engine is dropped
/// and the retry builds a fresh one) and the sweep completes with
/// [`SweepOutcome::failed`] listing any trial that exhausted the
/// budget. Retried attempts recompute a pure function of the trial
/// index, so committed values are bit-identical to a fault-free run's
/// for every thread count.
///
/// Checkpointing: with `options.checkpoint` set, the committed prefix
/// is rewritten atomically every `interval` commits; with `resume` the
/// file is loaded first (identity-checked against the configurations,
/// trial count and base seed — a mismatch is reported and ignored) and
/// its trials are replayed instead of recomputed. The file is removed
/// when the sweep completes.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn run_sweep_resilient(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    options: &SweepOptions,
) -> SweepOutcome {
    run_sweep_resilient_observed(configs, trials, base, options, |_, _| {})
}

/// [`run_sweep_resilient`] with a per-commit observer: `observe(index,
/// outcome)` fires for **every** committed cell — replayed from a
/// checkpoint or freshly computed — strictly in index order, before the
/// cell is folded into its summary. The server layer tees the stream
/// into its JSONL run sink and fingerprint cache; the observer never
/// influences committed values.
pub fn run_sweep_resilient_observed(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    options: &SweepOptions,
    mut observe: impl FnMut(usize, &TrialOutcome),
) -> SweepOutcome {
    assert!(trials > 0, "a sweep needs at least one trial per config");
    let total = configs.len() * trials;
    let sweep_id = checkpoint::sweep_fingerprint(configs, trials, base);

    // Load the committed prefix to replay, if resuming.
    let mut replay: Vec<StoredOutcome> = Vec::new();
    let mut checkpoint_mismatch = false;
    if let Some(ck) = &options.checkpoint {
        if ck.resume {
            match checkpoint::load(&ck.path) {
                checkpoint::LoadResult::Missing => {}
                checkpoint::LoadResult::Corrupt => checkpoint_mismatch = true,
                checkpoint::LoadResult::Doc(doc) => {
                    if doc.sweep_id == sweep_id && doc.total == total {
                        replay = doc.records;
                    } else {
                        checkpoint_mismatch = true;
                    }
                }
            }
        }
    }

    let limit = options
        .checkpoint
        .as_ref()
        .and_then(|ck| ck.stop_after)
        .map_or(total, |stop| stop.min(total));
    replay.truncate(limit);
    let offset = replay.len();

    let mut fold = Fold::new(
        trials,
        total,
        sweep_id,
        options.checkpoint.as_ref(),
        options.faults.checkpoint_write_failures(),
    );
    for (index, outcome) in replay.into_iter().enumerate() {
        observe(index, &outcome);
        fold.commit(index, outcome);
    }

    let scheduler = TrialScheduler::new(options.threads);
    // Each worker beyond the first runs trials for the whole sweep:
    // count them from the start, so the first trial does not take a
    // helper thread's core that a sibling worker is about to need.
    let _siblings = RunningTrials::enter(scheduler.threads().min(limit - offset).saturating_sub(1));
    let stats = scheduler.run_committed_resilient(
        limit - offset,
        options.retry,
        |k, attempt| run_cell_attempt(configs, trials, base, k + offset, attempt, options),
        |k, outcome| {
            let index = k + offset;
            let outcome = outcome.map_err(|mut failure| {
                failure.index = index; // scheduler indices are local
                failure
            });
            observe(index, &outcome);
            fold.commit(index, outcome);
        },
    );

    if limit < total {
        // Deterministic "kill": persist the final prefix regardless of
        // interval so a resume sees everything that committed.
        fold.write_checkpoint();
    } else if let Some(ck) = &options.checkpoint {
        // Complete: the checkpoint has served its purpose.
        let _ = fs::remove_file(&ck.path);
    }

    SweepOutcome {
        cells: fold.out,
        failed: fold.failed,
        stats,
        resumed_trials: offset,
        checkpoint_mismatch,
        checkpoint_write_failures: fold.write_failures,
        stopped_after: (limit < total).then_some(limit),
    }
}

/// Runs `trials` trials of every configuration across `threads` worker
/// threads and returns one [`TrialSummary`] per configuration, in input
/// order.
///
/// `threads == 0` selects the host's available parallelism; `1` is the
/// exact serial loop. The result is bit-identical for every thread
/// count: cells are committed in `(config, trial)` order regardless of
/// which worker finishes first.
///
/// This is the strict wrapper around [`run_sweep_resilient`]: no
/// retries, no checkpointing, and any trial failure panics with the
/// trial's error.
///
/// # Panics
///
/// Panics if `trials == 0` or a trial fails.
pub fn run_sweep(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    threads: usize,
) -> Vec<TrialSummary> {
    let options = SweepOptions::default()
        .with_threads(threads)
        .with_retry(RetryPolicy::none());
    let outcome = run_sweep_resilient(configs, trials, base, &options);
    if let Some(first) = outcome.failed().first() {
        panic!(
            "trial {} of config {} failed: {}",
            first.trial, first.config, first.failure
        );
    }
    outcome.into_cells()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tapeworm_core::CacheConfig;
    use tapeworm_workload::Workload;

    fn configs() -> Vec<SystemConfig> {
        [1u64, 4]
            .into_iter()
            .map(|kb| {
                let cache = CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
                SystemConfig::cache(Workload::Espresso, cache)
                    .with_scale(20_000)
                    .with_sampling(8)
            })
            .collect()
    }

    fn temp_checkpoint(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tapeworm-sweep-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("CHECKPOINT.json")
    }

    fn assert_cells_equal(a: &[TrialSummary], b: &[TrialSummary], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: cell count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.results(), y.results(), "{what}: results");
            assert_eq!(x.metrics(), y.metrics(), "{what}: metrics");
            assert_eq!(
                format!("{:?}{:?}", x.misses(), x.slowdowns()),
                format!("{:?}{:?}", y.misses(), y.slowdowns()),
                "{what}: summaries"
            );
        }
    }

    #[test]
    fn sweep_shape_matches_inputs() {
        let out = run_sweep(&configs(), 3, SeedSeq::new(7), 1);
        assert_eq!(out.len(), 2);
        for cell in &out {
            assert_eq!(cell.results().len(), 3);
            assert_eq!(cell.misses().count(), 3);
            assert_eq!(cell.slowdowns().count(), 3);
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let serial = run_sweep(&configs(), 3, SeedSeq::new(7), 1);
        for threads in [2, 4] {
            let par = run_sweep(&configs(), 3, SeedSeq::new(7), threads);
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.results(), b.results(), "threads={threads}");
            }
        }
    }

    #[test]
    fn sweep_metrics_are_merged_and_thread_count_invariant() {
        let serial = run_sweep(&configs(), 3, SeedSeq::new(7), 1);
        assert!(serial[0].metrics().counters.total() > 0);
        for threads in [2, 4] {
            let par = run_sweep(&configs(), 3, SeedSeq::new(7), threads);
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.metrics(), b.metrics(), "threads={threads}");
            }
        }
    }

    #[test]
    fn summaries_reflect_raw_results() {
        let out = run_sweep(&configs(), 4, SeedSeq::new(3), 2);
        for cell in &out {
            let expect = cell.summary_of(|r| r.total_misses());
            assert_eq!(cell.misses().mean(), expect.mean());
            assert_eq!(cell.misses().min(), expect.min());
            assert_eq!(cell.misses().max(), expect.max());
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = run_sweep(&configs(), 0, SeedSeq::new(1), 1);
    }

    #[test]
    fn cells_folds_and_observer_match_the_engine() {
        let configs = configs();
        let engine = run_sweep_resilient(&configs, 3, SeedSeq::new(7), &SweepOptions::default());
        let mut outcomes = Vec::new();
        let observed = run_sweep_resilient_observed(
            &configs,
            3,
            SeedSeq::new(7),
            &SweepOptions::default(),
            |index, o| outcomes.push((index, o.clone())),
        );
        assert_eq!(outcomes.len(), 6, "observer sees every commit");
        assert!(outcomes.iter().enumerate().all(|(i, (k, _))| i == *k));
        for (k, o) in &outcomes {
            let (r, m) = o.as_ref().expect("clean run");
            let solo =
                run_sweep_cell(&configs, 3, SeedSeq::new(7), *k, ObsConfig::default()).unwrap();
            assert_eq!((r, m), (&solo.0, &solo.1), "isolated cell {k} diverged");
        }
        let (cells, failed) = fold_outcomes(3, outcomes.into_iter().map(|(_, o)| o).collect());
        assert!(failed.is_empty());
        assert_cells_equal(engine.cells(), &cells, "folded vs engine");
        assert_cells_equal(observed.cells(), &cells, "observed vs folded");
    }

    #[test]
    fn injected_faults_recover_bit_identically() {
        let clean = run_sweep_resilient(&configs(), 3, SeedSeq::new(7), &SweepOptions::default());
        assert!(clean.fault_stats().is_clean());
        assert!(clean.failed().is_empty());
        let faults = FaultPlan::new()
            .with_panic(1, 0)
            .with_budget_exhaustion(4, 0);
        for threads in [1, 4] {
            let faulted = run_sweep_resilient(
                &configs(),
                3,
                SeedSeq::new(7),
                &SweepOptions::default()
                    .with_threads(threads)
                    .with_faults(faults.clone()),
            );
            assert!(faulted.failed().is_empty(), "retries must succeed");
            assert_eq!(faulted.fault_stats().panics, 1, "threads={threads}");
            assert_eq!(faulted.fault_stats().typed_failures, 1);
            assert_eq!(faulted.fault_stats().retries, 2);
            assert_eq!(faulted.fault_stats().workers_respawned, 1);
            assert_cells_equal(clean.cells(), faulted.cells(), "faulted vs clean");
            let counters = faulted.fault_counters();
            assert_eq!(counters.get(CounterId::TrialPanics), 1);
            assert_eq!(counters.get(CounterId::TrialRetries), 2);
        }
    }

    #[test]
    fn exhausted_retries_degrade_gracefully() {
        // Trial 1 (config 0) panics on every attempt of the default
        // 3-attempt budget: the sweep must still complete, with the
        // trial reported failed and absent from its cell.
        let faults = FaultPlan::new()
            .with_panic(1, 0)
            .with_panic(1, 1)
            .with_panic(1, 2);
        let outcome = run_sweep_resilient(
            &configs(),
            3,
            SeedSeq::new(7),
            &SweepOptions::default().with_faults(faults),
        );
        assert_eq!(outcome.failed().len(), 1);
        let failed = &outcome.failed()[0];
        assert_eq!((failed.config, failed.trial), (0, 1));
        assert_eq!(failed.failure.attempts, 3);
        assert_eq!(outcome.fault_stats().failed_trials, 1);
        assert_eq!(outcome.cells().len(), 2);
        assert_eq!(outcome.cells()[0].results().len(), 2, "one trial missing");
        assert_eq!(outcome.cells()[0].misses().count(), 2);
        assert_eq!(outcome.cells()[1].results().len(), 3, "config 1 untouched");
    }

    #[test]
    fn all_failed_cell_yields_an_empty_summary() {
        // Single-attempt policy, config 0's only trial panics: its cell
        // must report an explicitly empty summary, not abort.
        let outcome = run_sweep_resilient(
            &configs(),
            1,
            SeedSeq::new(7),
            &SweepOptions::default()
                .with_retry(RetryPolicy::none())
                .with_faults(FaultPlan::new().with_panic(0, 0)),
        );
        assert_eq!(outcome.cells().len(), 2);
        assert!(outcome.cells()[0].results().is_empty());
        assert_eq!(outcome.cells()[0].misses().count(), 0);
        assert_eq!(outcome.failed().len(), 1);
        assert_eq!(outcome.cells()[1].results().len(), 1);
    }

    #[test]
    fn stop_and_resume_is_bit_identical() {
        let clean = run_sweep_resilient(&configs(), 3, SeedSeq::new(7), &SweepOptions::default());
        let path = temp_checkpoint("resume");
        for threads in [1, 4] {
            // "Kill" the sweep after 4 of 6 commits...
            let first = run_sweep_resilient(
                &configs(),
                3,
                SeedSeq::new(7),
                &SweepOptions::default()
                    .with_threads(threads)
                    .with_checkpoint(
                        CheckpointConfig::new(&path)
                            .with_interval(2)
                            .with_stop_after(4),
                    ),
            );
            assert_eq!(first.stopped_after(), Some(4));
            assert!(path.exists(), "prefix persisted at the stop");
            // ...and restart with resume: replay 4, compute 2.
            let second = run_sweep_resilient(
                &configs(),
                3,
                SeedSeq::new(7),
                &SweepOptions::default()
                    .with_threads(threads)
                    .with_checkpoint(CheckpointConfig::new(&path).resuming()),
            );
            assert_eq!(second.resumed_trials(), 4, "threads={threads}");
            assert!(!second.checkpoint_mismatch());
            assert_cells_equal(clean.cells(), second.cells(), "resumed vs clean");
            assert!(!path.exists(), "checkpoint removed on completion");
        }
    }

    #[test]
    fn foreign_checkpoint_is_reported_and_ignored() {
        let path = temp_checkpoint("foreign");
        // Persist a prefix for seed 7...
        let _ = run_sweep_resilient(
            &configs(),
            3,
            SeedSeq::new(7),
            &SweepOptions::default().with_checkpoint(
                CheckpointConfig::new(&path)
                    .with_interval(1)
                    .with_stop_after(2),
            ),
        );
        assert!(path.exists());
        // ...then resume a *different* sweep (seed 8) against it.
        let outcome = run_sweep_resilient(
            &configs(),
            3,
            SeedSeq::new(8),
            &SweepOptions::default().with_checkpoint(CheckpointConfig::new(&path).resuming()),
        );
        assert!(outcome.checkpoint_mismatch(), "identity check must fire");
        assert_eq!(outcome.resumed_trials(), 0, "nothing replayed");
        let clean = run_sweep_resilient(&configs(), 3, SeedSeq::new(8), &SweepOptions::default());
        assert_cells_equal(clean.cells(), outcome.cells(), "fresh run despite file");
    }

    #[test]
    fn checkpoint_write_failures_are_tolerated() {
        let path = temp_checkpoint("write-fail");
        let clean = run_sweep_resilient(&configs(), 3, SeedSeq::new(7), &SweepOptions::default());
        let outcome = run_sweep_resilient(
            &configs(),
            3,
            SeedSeq::new(7),
            &SweepOptions::default()
                .with_faults(FaultPlan::new().with_checkpoint_write_failures(2))
                .with_checkpoint(CheckpointConfig::new(&path).with_interval(1)),
        );
        assert_eq!(outcome.checkpoint_write_failures(), 2);
        assert!(outcome.failed().is_empty());
        assert_cells_equal(clean.cells(), outcome.cells(), "despite write failures");
        assert!(!path.exists(), "still removed on completion");
    }
}
