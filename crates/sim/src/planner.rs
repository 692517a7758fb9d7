//! The model-guided sweep planner: Kessler-pruned configurations plus
//! CI-driven adaptive trial sampling.
//!
//! A production sweep grid asks for ground truth everywhere, but the
//! Kessler page-conflict model (`crate::kessler`) already predicts
//! large parts of the grid well. The planner spends the trap-driven
//! budget where the model is *uncertain* and backfills the rest:
//!
//! 1. **Analytic first pass** — every cell is scored with the conflict
//!    model. Cells are grouped into maximal runs that differ only in
//!    the swept geometry (cache bytes or TLB entries, strictly
//!    monotone); group endpoints and model-uncertain cells (conflict
//!    probability in the transition band, or cache size within 2× of
//!    the workload footprint, where the paper says variance peaks) are
//!    *simulated*; the rest are *interpolated* between their nearest
//!    simulated neighbors and tagged estimated with an explicit error
//!    bound. Estimates are never cached and never digest-folded as
//!    ground truth.
//! 2. **Adaptive trial sampling** — inside each simulated cell, trials
//!    run one at a time with the engine's exact SplitMix64-seeded
//!    trial order and cell function (`run_cell_attempt` under the
//!    scheduler's `attempt_trial` loop, bit-identical to what a full
//!    sweep commits at the same index). From the third trial on, the
//!    running Student-t 95% confidence interval of the miss count is
//!    computed after each trial ([`tapeworm_stats::ci`]); when its
//!    relative half-width closes below [`PlannerConfig::ci_bound`] the
//!    cell stops early and reports the interval it stopped at. Because
//!    the per-trial instruction stream is trial-invariant, the
//!    miss-count interval and the miss-*ratio* interval have identical
//!    relative widths.
//!
//! Honesty guarantees, pinned by `tests/planner.rs`:
//! * [`PlanMode::Full`] delegates to [`run_sweep_resilient_observed`]
//!   unchanged — digest-identical to the engine for every thread count.
//! * Every simulated `(config, trial)` outcome of a pruned sweep is
//!   bit-identical to the full sweep's outcome at the same index.
//! * Every interpolated cell carries a declared miss-count error bound
//!   (monotone-envelope `|Δ|` between its simulated neighbors plus
//!   their trial-noise spread) that its true error must stay within.
//! * Early-stopped cells report CIs that cover the full-trial mean.
//!
//! [`run_sweep_planned`] runs the mode it is given. The process-level
//! kill switch (`TW_PLAN=0` on `tapeworm-server`) is resolved by the
//! CLI into the service's options, never read here.
//!
//! Determinism: pruned planning is single-threaded by design — each
//! cell's stopping decision folds over its own committed trial prefix,
//! so the outcome is a pure function of `(configs, trials, base,
//! planner)`; the thread-count knob only affects [`PlanMode::Full`]
//! (which is thread-count invariant anyway).

use tapeworm_core::Indexing;
use tapeworm_obs::{CounterId, Counters};
use tapeworm_stats::ci::{mean_ci, MeanCi};
use tapeworm_stats::trials::{attempt_trial_with_state, FaultStats};
use tapeworm_stats::{OnlineStats, SeedSeq};

use crate::checkpoint::{sweep_fingerprint, TrialOutcome};
use crate::config::{SimModel, SystemConfig};
use crate::kessler;
use crate::sweep::{
    fold_outcomes, run_cell_attempt, run_sweep_resilient_observed, FailedTrial, SweepOptions,
    TrialSummary,
};
use crate::system::TrialScratch;

/// Simulated page size the conflict model scores against (the OS page).
const PAGE_BYTES: u64 = 4096;

/// Conflict probabilities inside this open band count as
/// model-uncertain: placement luck visibly decides whether conflicts
/// happen at all, exactly where run-to-run variance lives.
const UNCERTAIN_LOW: f64 = 0.02;
const UNCERTAIN_HIGH: f64 = 0.98;

/// How a sweep is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Ground truth everywhere: the exact pre-planner engine.
    Full,
    /// Kessler-pruned configurations + CI-stopped trial sampling.
    Pruned,
}

impl PlanMode {
    /// Stable lowercase name (spec value, sink field, fingerprint).
    pub fn name(self) -> &'static str {
        match self {
            PlanMode::Full => "full",
            PlanMode::Pruned => "pruned",
        }
    }
}

/// Confidence level of the early-stop interval.
const CI_CONFIDENCE: f64 = 0.95;

/// Trials every simulated cell runs before its first CI check; after
/// that the interval is checked after every trial.
const MIN_TRIALS: usize = 3;

/// Everything that shapes the planner besides the grid itself.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Execution mode.
    pub mode: PlanMode,
    /// Early-stop threshold on the relative CI half-width of a cell's
    /// miss count; `0.0` disables early stopping (every simulated cell
    /// runs all its trials).
    pub ci_bound: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            mode: PlanMode::Full,
            ci_bound: 0.05,
        }
    }
}

impl PlannerConfig {
    /// The full-sweep (pre-planner) configuration.
    pub fn full() -> Self {
        PlannerConfig::default()
    }

    /// The pruned configuration with default bounds.
    pub fn pruned() -> Self {
        PlannerConfig {
            mode: PlanMode::Pruned,
            ..PlannerConfig::default()
        }
    }

    /// Sets the relative CI half-width stopping bound.
    pub fn with_ci_bound(mut self, bound: f64) -> Self {
        self.ci_bound = bound;
        self
    }
}

/// An interpolated (estimated) cell: never ground truth, never cached.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatedCell {
    /// Config index of the simulated neighbor on the small-axis side.
    pub left: usize,
    /// Config index of the simulated neighbor on the large-axis side.
    pub right: usize,
    /// Estimated mean total miss count (log-axis linear interpolation
    /// between the neighbors' measured means).
    pub misses: f64,
    /// Estimated mean slowdown, interpolated the same way.
    pub slowdown: f64,
    /// Declared miss-count error bound: `|Δ|` between the neighbor
    /// means (a monotone miss curve cannot escape that envelope) plus
    /// the neighbors' trial-noise spread (2·(sₗ+sᵣ) and their 95% CI
    /// half-widths, absorbing early-stopped neighbors) plus a 1%
    /// relative floor. `tests/planner.rs` proves the true error stays
    /// within this on the Table 8/9 grids.
    pub miss_bound: f64,
    /// The Kessler conflict probability that justified skipping the
    /// cell (model provenance).
    pub conflict_probability: f64,
}

/// One cell of a planned sweep.
// A sweep holds one cell per configuration, so boxing the larger
// variant would save little and add an indirection to every read.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PlannedCell {
    /// Trap-simulated ground truth.
    Simulated {
        /// The cell's summary over the trials that actually ran,
        /// folded through the engine's own committer.
        summary: TrialSummary,
        /// Trials committed (equals the sweep's `trials` unless the
        /// cell stopped early).
        trials_run: usize,
        /// The stopping interval, when the cell stopped early.
        early_stop: Option<MeanCi>,
    },
    /// Model-guided estimate between simulated neighbors.
    Interpolated(EstimatedCell),
}

impl PlannedCell {
    /// Whether this cell is an estimate rather than ground truth.
    pub fn is_estimated(&self) -> bool {
        matches!(self, PlannedCell::Interpolated(_))
    }

    /// Mean total miss count: measured for simulated cells, estimated
    /// for interpolated ones.
    pub fn misses_mean(&self) -> f64 {
        match self {
            PlannedCell::Simulated { summary, .. } => summary.misses().mean(),
            PlannedCell::Interpolated(e) => e.misses,
        }
    }
}

/// The outcome of a planned sweep: per-cell provenance, the simulated
/// outcomes (ground truth only), and the planner's accounting.
#[derive(Debug, Clone)]
pub struct PlannedOutcome {
    mode: PlanMode,
    trials: usize,
    cells: Vec<PlannedCell>,
    outcomes: Vec<(usize, TrialOutcome)>,
    failed: Vec<FailedTrial>,
    stats: FaultStats,
    counters: Counters,
}

impl PlannedOutcome {
    /// The execution mode the sweep ran in.
    pub fn mode(&self) -> PlanMode {
        self.mode
    }

    /// Trials per configuration the sweep was asked for.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Per-configuration cells, in input order.
    pub fn cells(&self) -> &[PlannedCell] {
        &self.cells
    }

    /// The trap-simulated `(global_index, outcome)` pairs, in index
    /// order. Exactly the ground truth — estimates never appear here,
    /// so digests and caches built from this list can never fold an
    /// estimate in.
    pub fn simulated_outcomes(&self) -> &[(usize, TrialOutcome)] {
        &self.outcomes
    }

    /// Trials that exhausted their retry budget.
    pub fn failed(&self) -> &[FailedTrial] {
        &self.failed
    }

    /// Scheduler-equivalent fault and work accounting.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The planner's sweep-level counters (`cells_simulated`,
    /// `cells_interpolated`, `trials_saved`, `ci_early_stops`), kept
    /// separate from per-trial metrics so committed trial values stay
    /// bit-identical to a full sweep's.
    pub fn planner_counters(&self) -> &Counters {
        &self.counters
    }

    /// Cells run through the trap-driven simulator.
    pub fn cells_simulated(&self) -> u64 {
        self.counters.get(CounterId::CellsSimulated)
    }

    /// Cells backfilled from the model.
    pub fn cells_interpolated(&self) -> u64 {
        self.counters.get(CounterId::CellsInterpolated)
    }

    /// Trap-simulated trials avoided versus a full sweep.
    pub fn trials_saved(&self) -> u64 {
        self.counters.get(CounterId::TrialsSaved)
    }

    /// Simulated cells that stopped early on a tight CI.
    pub fn ci_early_stops(&self) -> u64 {
        self.counters.get(CounterId::CiEarlyStops)
    }
}

/// The planner-aware sweep identity: the engine fingerprint extended
/// with the effective plan mode and CI bound, so a pruned result can
/// never alias a `full` request in any store keyed on it. Full mode
/// normalizes the bound to `0` (it never influences a full sweep), so
/// full-mode keys are stable across bound changes.
pub fn planned_sweep_fingerprint(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    planner: &PlannerConfig,
) -> u64 {
    let bound = match planner.mode {
        PlanMode::Full => 0.0,
        PlanMode::Pruned => planner.ci_bound,
    };
    crate::codec::fnv1a(
        format!(
            "{:016x}|plan={}|ci_bound={}",
            sweep_fingerprint(configs, trials, base),
            planner.mode.name(),
            bound,
        )
        .as_bytes(),
    )
}

/// How the analytic pass decided to treat one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decision {
    Simulate,
    Interpolate {
        left: usize,
        right: usize,
        probability: f64,
    },
}

/// The swept geometry value, for models the planner knows how to
/// interpolate along.
fn axis_value(cfg: &SystemConfig) -> Option<u64> {
    match &cfg.model {
        SimModel::Cache(c) => Some(c.size_bytes()),
        SimModel::Tlb(t) if t.associativity == t.entries => Some(u64::from(t.entries)),
        _ => None,
    }
}

/// Whether two configs differ only in the swept geometry (same
/// workload, same model family and fixed parameters, same everything
/// else).
fn same_family(a: &SystemConfig, b: &SystemConfig) -> bool {
    let model_family = match (&a.model, &b.model) {
        (SimModel::Cache(ca), SimModel::Cache(cb)) => {
            ca.line_bytes() == cb.line_bytes()
                && ca.associativity() == cb.associativity()
                && ca.indexing() == cb.indexing()
                && ca.replacement() == cb.replacement()
        }
        (SimModel::Tlb(ta), SimModel::Tlb(tb)) => {
            ta.associativity == ta.entries
                && tb.associativity == tb.entries
                && ta.page_size == tb.page_size
                && ta.miss_cycles == tb.miss_cycles
                && ta.kernel_miss_cycles == tb.kernel_miss_cycles
        }
        _ => return false,
    };
    if !model_family {
        return false;
    }
    // Everything except the model must match exactly.
    let mut x = a.clone();
    x.model = b.model;
    x == *b
}

/// The workload's footprint in pages — the conflict model's `n`.
fn footprint_pages(cfg: &SystemConfig) -> u64 {
    cfg.workload
        .spec()
        .user_stream
        .footprint_bytes
        .div_ceil(PAGE_BYTES)
        .max(1)
}

/// Kessler conflict probability for a cell. Only physically-indexed
/// caches see page-allocation conflicts; virtually-indexed caches and
/// (virtually-tagged) TLBs score 0 — the model is confident placement
/// cannot move their numbers.
fn conflict_probability_of(cfg: &SystemConfig) -> f64 {
    match &cfg.model {
        SimModel::Cache(c) if c.indexing() == Indexing::Physical => kessler::collision_probability(
            footprint_pages(cfg),
            (c.size_bytes() / PAGE_BYTES).max(1),
        ),
        _ => 0.0,
    }
}

/// Whether the cell sits in the paper's variance-peak region: cache
/// page slots within a factor of two of the workload footprint.
fn near_conflict_peak(cfg: &SystemConfig) -> bool {
    match &cfg.model {
        SimModel::Cache(c) if c.indexing() == Indexing::Physical => {
            let n = footprint_pages(cfg);
            let s = (c.size_bytes() / PAGE_BYTES).max(1);
            2 * s >= n && s <= 2 * n
        }
        _ => false,
    }
}

/// The analytic first pass: partitions the grid into simulate vs
/// interpolate cells. Conservative by construction — anything the
/// planner cannot reason about (unknown model family, non-monotone or
/// mixed axis, groups too small to bracket) is simulated.
fn plan_cells(configs: &[SystemConfig]) -> Vec<Decision> {
    let mut decisions = vec![Decision::Simulate; configs.len()];
    let mut start = 0;
    while start < configs.len() {
        // Grow the maximal same-family, strictly-monotone group.
        let mut end = start;
        if axis_value(&configs[start]).is_some() {
            let mut direction = 0i8;
            while end + 1 < configs.len() {
                let (a, b) = (&configs[end], &configs[end + 1]);
                let (Some(x), Some(y)) = (axis_value(a), axis_value(b)) else {
                    break;
                };
                if !same_family(a, b) || x == y {
                    break;
                }
                let step: i8 = if y > x { 1 } else { -1 };
                if direction == 0 {
                    direction = step;
                } else if direction != step {
                    break;
                }
                end += 1;
            }
        }
        if end - start + 1 >= 3 {
            plan_group(configs, start, end, &mut decisions);
        }
        start = end + 1;
    }
    decisions
}

/// Decides one monotone group: endpoints and model-uncertain interior
/// cells simulate; the rest interpolate between their nearest
/// simulated neighbors (which the endpoints guarantee exist).
fn plan_group(configs: &[SystemConfig], lo: usize, hi: usize, decisions: &mut [Decision]) {
    let simulate: Vec<bool> = (lo..=hi)
        .map(|i| {
            if i == lo || i == hi {
                return true;
            }
            let p = conflict_probability_of(&configs[i]);
            (UNCERTAIN_LOW..UNCERTAIN_HIGH).contains(&p) || near_conflict_peak(&configs[i])
        })
        .collect();
    for (k, i) in (lo..=hi).enumerate() {
        if simulate[k] {
            decisions[i] = Decision::Simulate;
            continue;
        }
        let left = (0..k).rev().find(|&j| simulate[j]).expect("lo endpoint");
        let right = (k + 1..simulate.len())
            .find(|&j| simulate[j])
            .expect("hi endpoint");
        decisions[i] = Decision::Interpolate {
            left: lo + left,
            right: lo + right,
            probability: conflict_probability_of(&configs[i]),
        };
    }
}

/// Runs a sweep under the planner. [`PlanMode::Full`] is exactly [`run_sweep_resilient_observed`] — bit-identical outcomes
/// for every thread count. [`PlanMode::Pruned`] simulates the planned
/// subset with adaptive trial sampling and interpolates the rest.
///
/// In pruned mode `options.threads` and `options.checkpoint` are not
/// consulted (planning is single-threaded and uncheckpointed by
/// design). Every simulated trial runs the full sweep's cell function
/// (`options.faults`, then the trial under `options.obs`) through the
/// scheduler's attempt loop under `options.retry`, so a panicking trial
/// is contained and retried exactly as in full mode.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn run_sweep_planned(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    options: &SweepOptions,
    planner: &PlannerConfig,
) -> PlannedOutcome {
    assert!(trials > 0, "a sweep needs at least one trial per config");
    match planner.mode {
        PlanMode::Full => run_full(configs, trials, base, options),
        PlanMode::Pruned => run_pruned(configs, trials, base, options, planner),
    }
}

fn run_full(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    options: &SweepOptions,
) -> PlannedOutcome {
    let mut outcomes = Vec::with_capacity(configs.len() * trials);
    let outcome = run_sweep_resilient_observed(configs, trials, base, options, |index, o| {
        outcomes.push((index, o.clone()));
    });
    let mut counters = Counters::new();
    counters.add(CounterId::CellsSimulated, outcome.cells().len() as u64);
    let cells = outcome
        .cells()
        .iter()
        .map(|summary| PlannedCell::Simulated {
            summary: summary.clone(),
            trials_run: trials,
            early_stop: None,
        })
        .collect();
    PlannedOutcome {
        mode: PlanMode::Full,
        trials,
        cells,
        outcomes,
        failed: outcome.failed().to_vec(),
        stats: *outcome.fault_stats(),
        counters,
    }
}

fn run_pruned(
    configs: &[SystemConfig],
    trials: usize,
    base: SeedSeq,
    options: &SweepOptions,
    planner: &PlannerConfig,
) -> PlannedOutcome {
    let decisions = plan_cells(configs);
    let mut outcomes: Vec<(usize, TrialOutcome)> = Vec::new();
    let mut failed: Vec<FailedTrial> = Vec::new();
    let mut stats = FaultStats::default();
    let mut counters = Counters::new();
    let mut scratch = None;
    // Pass 1: simulate the planned cells, adaptively.
    let mut simulated: Vec<Option<PlannedCell>> = vec![None; configs.len()];
    for (c, decision) in decisions.iter().enumerate() {
        if *decision != Decision::Simulate {
            continue;
        }
        let mut cell_outcomes: Vec<TrialOutcome> = Vec::new();
        let mut miss_acc = OnlineStats::new();
        let mut early_stop: Option<MeanCi> = None;
        let mut t = 0;
        while t < trials {
            let index = c * trials + t;
            let (outcome, delta) = attempt_trial_with_state(
                options.retry,
                index,
                &mut scratch,
                TrialScratch::new,
                |scratch, i, attempt| {
                    run_cell_attempt(configs, trials, base, i, attempt, options, scratch)
                },
            );
            stats.merge(&delta);
            if let Ok((result, _)) = &outcome {
                miss_acc.push(result.total_misses());
            }
            outcomes.push((index, outcome.clone()));
            cell_outcomes.push(outcome);
            t += 1;
            if planner.ci_bound > 0.0 && t < trials && t >= MIN_TRIALS {
                if let Some(ci) = mean_ci(&miss_acc, CI_CONFIDENCE) {
                    if ci.relative_half_width() <= planner.ci_bound {
                        early_stop = Some(ci);
                        break;
                    }
                }
            }
        }
        counters.add(CounterId::TrialsSaved, (trials - t) as u64);
        if early_stop.is_some() {
            counters.inc(CounterId::CiEarlyStops);
        }
        counters.inc(CounterId::CellsSimulated);
        // Fold through the engine's own committer so the summary shape
        // is identical to a full sweep's (over the trials that ran).
        let (cells, cell_failed) = fold_outcomes(t, cell_outcomes);
        for f in cell_failed {
            failed.push(FailedTrial { config: c, ..f });
        }
        simulated[c] = Some(PlannedCell::Simulated {
            summary: cells.into_iter().next().expect("one cell per fold"),
            trials_run: t,
            early_stop,
        });
    }
    // Pass 2: backfill the interpolated cells from their neighbors.
    let cells: Vec<PlannedCell> = decisions
        .iter()
        .enumerate()
        .map(|(c, decision)| match decision {
            Decision::Simulate => simulated[c].clone().expect("simulated in pass 1"),
            Decision::Interpolate {
                left,
                right,
                probability,
            } => {
                counters.inc(CounterId::CellsInterpolated);
                counters.add(CounterId::TrialsSaved, trials as u64);
                PlannedCell::Interpolated(interpolate(
                    configs,
                    c,
                    *left,
                    *right,
                    *probability,
                    &simulated,
                ))
            }
        })
        .collect();
    PlannedOutcome {
        mode: PlanMode::Pruned,
        trials,
        cells,
        outcomes,
        failed,
        stats,
        counters,
    }
}

/// Builds one estimated cell by log-axis linear interpolation between
/// its simulated neighbors, with the declared error bound.
fn interpolate(
    configs: &[SystemConfig],
    c: usize,
    left: usize,
    right: usize,
    probability: f64,
    simulated: &[Option<PlannedCell>],
) -> EstimatedCell {
    let summary_of = |i: usize| match &simulated[i] {
        Some(PlannedCell::Simulated { summary, .. }) => summary,
        _ => unreachable!("interpolation neighbors are simulated"),
    };
    let (sl, sr) = (summary_of(left), summary_of(right));
    let axis = |i: usize| axis_value(&configs[i]).expect("grouped cells have an axis") as f64;
    let (xl, xr, x) = (axis(left).log2(), axis(right).log2(), axis(c).log2());
    let w = if (xr - xl).abs() > f64::EPSILON {
        (x - xl) / (xr - xl)
    } else {
        0.5
    };
    let lerp = |a: f64, b: f64| a + w * (b - a);
    let (ml, mr) = (sl.misses().mean(), sr.misses().mean());
    EstimatedCell {
        left,
        right,
        misses: lerp(ml, mr),
        slowdown: lerp(sl.slowdowns().mean(), sr.slowdowns().mean()),
        miss_bound: (ml - mr).abs()
            + 2.0 * (sl.misses().stddev() + sr.misses().stddev())
            + sl.misses().ci95_half_width()
            + sr.misses().ci95_half_width()
            + 0.01 * (ml.abs() + mr.abs())
            + 1.0,
        conflict_probability: probability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeworm_core::CacheConfig;
    use tapeworm_workload::Workload;

    fn cache_grid(workload: Workload, kbs: &[u64], indexing: Indexing) -> Vec<SystemConfig> {
        kbs.iter()
            .map(|&kb| {
                let cache = CacheConfig::new(kb * 1024, 16, 1)
                    .expect("valid geometry")
                    .with_indexing(indexing);
                SystemConfig::cache(workload, cache)
                    .with_scale(20_000)
                    .with_sampling(8)
            })
            .collect()
    }

    #[test]
    fn endpoints_always_simulate_and_interior_interpolates() {
        let configs = cache_grid(
            Workload::MpegPlay,
            &[4, 8, 16, 32, 64, 128],
            Indexing::Virtual,
        );
        // Virtual indexing: model-confident everywhere, so exactly the
        // endpoints simulate.
        let decisions = plan_cells(&configs);
        assert_eq!(decisions[0], Decision::Simulate);
        assert_eq!(decisions[5], Decision::Simulate);
        for (i, d) in decisions.iter().enumerate().take(5).skip(1) {
            match d {
                Decision::Interpolate { left, right, .. } => {
                    assert_eq!((*left, *right), (0, 5), "cell {i}");
                }
                other => panic!("interior cell {i} should interpolate, got {other:?}"),
            }
        }
    }

    #[test]
    fn physical_caches_simulate_the_variance_peak_region() {
        // mpeg_play's footprint is small; the near-peak band must keep
        // some interior cells simulated under physical indexing.
        let configs = cache_grid(
            Workload::MpegPlay,
            &[4, 8, 16, 32, 64, 128],
            Indexing::Physical,
        );
        let decisions = plan_cells(&configs);
        let simulated = decisions
            .iter()
            .filter(|d| matches!(d, Decision::Simulate))
            .count();
        assert!(
            simulated > 2,
            "peak band adds interior cells: {decisions:?}"
        );
        assert!(
            simulated < configs.len(),
            "something must still interpolate: {decisions:?}"
        );
        // Every interpolated cell is bracketed by simulated neighbors.
        for (i, d) in decisions.iter().enumerate() {
            if let Decision::Interpolate { left, right, .. } = d {
                assert!(left < &i && &i < right);
                assert_eq!(decisions[*left], Decision::Simulate);
                assert_eq!(decisions[*right], Decision::Simulate);
            }
        }
    }

    #[test]
    fn groups_break_on_family_changes_and_short_runs_simulate() {
        // Two workloads × 2 sizes: every group is too short to bracket
        // an interior, so everything simulates.
        let mut configs = cache_grid(Workload::Espresso, &[1, 4], Indexing::Physical);
        configs.extend(cache_grid(Workload::MpegPlay, &[1, 4], Indexing::Physical));
        assert!(plan_cells(&configs)
            .iter()
            .all(|d| matches!(d, Decision::Simulate)));
        // A non-monotone axis also refuses to interpolate.
        let zigzag = cache_grid(Workload::Espresso, &[1, 8, 2, 16, 4], Indexing::Physical);
        assert!(plan_cells(&zigzag)
            .iter()
            .all(|d| matches!(d, Decision::Simulate)));
    }

    #[test]
    fn fingerprint_separates_modes_and_bounds() {
        let configs = cache_grid(Workload::Espresso, &[1, 4], Indexing::Physical);
        let base = SeedSeq::new(7);
        let full = planned_sweep_fingerprint(&configs, 3, base, &PlannerConfig::full());
        let pruned = planned_sweep_fingerprint(&configs, 3, base, &PlannerConfig::pruned());
        assert_ne!(full, pruned, "a pruned key can never alias a full key");
        let loose = planned_sweep_fingerprint(
            &configs,
            3,
            base,
            &PlannerConfig::pruned().with_ci_bound(0.5),
        );
        assert_ne!(pruned, loose, "the CI bound is part of the pruned key");
        // Full mode normalizes the bound away.
        let full_b =
            planned_sweep_fingerprint(&configs, 3, base, &PlannerConfig::full().with_ci_bound(0.5));
        assert_eq!(full, full_b);
    }

    #[test]
    fn planner_defaults_are_the_kill_switch_shape() {
        let p = PlannerConfig::default();
        assert_eq!(p.mode, PlanMode::Full);
        assert_eq!(PlanMode::Full.name(), "full");
        assert_eq!(PlanMode::Pruned.name(), "pruned");
        assert!(p.ci_bound > 0.0 && CI_CONFIDENCE == 0.95 && MIN_TRIALS >= 2);
    }
}
