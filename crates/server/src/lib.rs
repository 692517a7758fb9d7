//! Sweep-as-a-service for the Tapeworm II reproduction.
//!
//! The bench binaries run sweeps as one-shot library calls; this crate
//! turns the same deterministic engine into a small service with a
//! persistent work queue, so long experiment campaigns can be
//! submitted declaratively, survive crashes, and never recompute a
//! sweep the service has already committed:
//!
//! * [`SweepSpec`] / [`SweepPlan`] — the declarative TOML-subset spec
//!   format and its resolution into the exact `configs × trials` grid
//!   a direct [`run_sweep_resilient`] caller would build.
//! * [`JobQueue`] — a directory-backed FIFO with crash-safe atomic
//!   state transitions and per-job `tapeworm-checkpoint-v1`
//!   checkpointing; a killed worker's job resumes from its committed
//!   prefix.
//! * [`WorkerBackend`] — pluggable execution: [`InProcessBackend`]
//!   (the engine's worker pool) and [`SubprocessBackend`] (a worker
//!   process driven over a length-prefixed JSON stdio protocol; each
//!   cell runs through the scheduler's own attempt loop, with a dead
//!   worker process as the contained-panic kind).
//! * [`SweepService`] — the job lifecycle: fingerprint-cache lookup,
//!   backend dispatch, the engine-committer fold, the JSONL run sink,
//!   and the deterministic service digest that is bit-identical across
//!   backends, thread counts, and cached-vs-fresh serving.
//!
//! [`run_sweep_resilient`]: tapeworm_sim::run_sweep_resilient

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backend;
pub mod queue;
pub mod sink;
pub mod spec;
pub mod wire;

mod service;

pub use backend::{
    serve_worker, BackendError, BackendOptions, BackendRun, InProcessBackend, SubprocessBackend,
    WorkerBackend, ENV_EXIT_INDEX, ENV_FAIL_INDEX,
};
pub use queue::{JobId, JobQueue, JobState};
pub use service::{JobReport, ServiceError, ServiceOptions, SweepService};
pub use sink::{
    digest_indexed_outcomes, digest_outcomes, read_digest, render_planned, SinkHeader, RUN_SCHEMA,
};
pub use spec::{ModelAxis, SpecError, SweepPlan, SweepSpec, SPEC_VERSION};
pub use tapeworm_sim::{
    FaultStats, ObsConfig, PlanMode, PlannerConfig, RetryPolicy, TrialOutcome, TrialSummary,
};
