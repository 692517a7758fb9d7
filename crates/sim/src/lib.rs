//! Full-system experiment layer for the Tapeworm II reproduction.
//!
//! This crate assembles the substrates — simulated machine
//! (`tapeworm-machine`), microkernel OS (`tapeworm-os`), synthetic
//! workloads (`tapeworm-workload`) — around the Tapeworm simulator
//! (`tapeworm-core`) and runs complete measurement trials, exactly the
//! shape of the paper's experiments:
//!
//! * [`SystemConfig`] selects a workload, a simulated cache or TLB, the
//!   measured component set (user / servers / kernel / all — the
//!   Table 6 axes), set sampling, frame-allocation policy, cost model
//!   and the dilation/interrupt parameters.
//! * [`run_trial`] executes one trial and returns a [`TrialResult`]
//!   with per-component miss counts, instruction/cycle accounting and
//!   the paper's *Slowdown* metric (overhead ÷ uninstrumented run
//!   time).
//! * [`compare`] runs the Pixie + Cache2000 trace-driven pipeline over
//!   the same deterministic user stream for the Figure 2 speed
//!   comparison and the Table 6 "From Traces" validation column.
//! * [`run_sweep`] fans a whole `(config, trial)` grid over a worker
//!   pool with a deterministic, trial-index-ordered committer, returning
//!   one [`TrialSummary`] per configuration — bit-identical output for
//!   every thread count.
//! * [`run_sweep_resilient`] is the fault-tolerant engine underneath:
//!   per-trial retry with deterministic backoff ([`RetryPolicy`]),
//!   graceful degradation ([`SweepOutcome::failed`]), versioned
//!   checkpoint/resume ([`CheckpointConfig`]) and deterministic fault
//!   injection ([`FaultPlan`]) for the chaos harness.
//! * [`run_sweep_planned`] is the model-guided sweep planner on top:
//!   the Kessler conflict model ([`kessler`]) prunes the grid to the
//!   cells where the model is uncertain, adaptive Student-t sampling
//!   stops cells early once their miss-count CI closes, and the rest
//!   are interpolated with a declared error bound and explicit
//!   estimated provenance ([`PlannedCell`]).
//!
//! Determinism contract: workload reference streams derive from the
//! experiment's *base* seed and are identical across trials; only the
//! effects the paper identifies as run-to-run variance — physical page
//! allocation and the set-sample choice — derive from the *trial*
//! seed. Virtual indexing without sampling is therefore exactly
//! reproducible (Table 10), while physical indexing (Table 9) and
//! sampling (Table 8) vary.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod checkpoint;
pub mod codec;
pub mod compare;
mod config;
mod fault;
pub mod kessler;
mod planner;
mod quanta;
mod result;
mod sweep;
mod system;

pub use checkpoint::{
    decode_outcome, encode_outcome, encode_outcome_digest_v1, load_outcomes, save_outcomes,
    sweep_fingerprint, CheckpointConfig, TrialOutcome, CHECKPOINT_SCHEMA, DIGEST_COUNTERS_V1,
};
pub use codec::fnv1a;
pub use config::{AllocPolicy, ComponentSet, CostKind, SimModel, SystemConfig};
pub use fault::FaultPlan;
pub use planner::{
    planned_sweep_fingerprint, run_sweep_planned, EstimatedCell, PlanMode, PlannedCell,
    PlannedOutcome, PlannerConfig,
};
pub use quanta::schedule_helper_trials;
pub use result::TrialResult;
pub use sweep::{
    fold_outcomes, run_sweep, run_sweep_cell, run_sweep_resilient, run_sweep_resilient_observed,
    FailedTrial, SweepOptions, SweepOutcome, TrialSummary,
};
pub use system::{
    run_trial, run_trial_observed, run_trial_windowed, try_run_trial, try_run_trial_observed,
    try_run_trial_observed_reusing, try_run_trial_windowed, ObsConfig, TrialError, TrialScratch,
    WindowSample,
};
pub use tapeworm_obs::TrialMetrics;
pub use tapeworm_stats::trials::{FailureKind, FaultStats, RetryPolicy, TrialFailure};
