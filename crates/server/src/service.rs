//! The sweep service: ties queue, backends, fingerprint cache and run
//! sink into the job lifecycle.
//!
//! `submit → running → done/failed`: a submitted spec is validated up
//! front, claimed FIFO, and served either from the fingerprint cache
//! (an identical spec already ran to full success — zero trials enter
//! any scheduler) or by a [`WorkerBackend`]. Either way the outcome
//! vector funnels through [`fold_outcomes`] — the engine's own
//! committer — and the canonical-record digest, so for a fixed spec the
//! `result.jsonl` digest is bit-identical across backends, thread
//! counts, crash/resume histories, and cached-vs-fresh serving.
//!
//! The cache stores complete, fully-successful runs only (a run with
//! failed trials is never cached — a retry should recompute, not
//! replay the failure), as `tapeworm-checkpoint-v1` documents keyed by
//! the service fingerprint.

use std::fmt;
use std::io;
use std::path::PathBuf;

use tapeworm_obs::escape;
use tapeworm_sim::{
    fold_outcomes, load_outcomes, run_sweep_planned, save_outcomes, FaultStats, ObsConfig,
    PlanMode, PlannedCell, PlannerConfig, RetryPolicy, SweepOptions, TrialOutcome, TrialSummary,
};

use crate::backend::{BackendError, BackendOptions, BackendRun, WorkerBackend};
use crate::queue::{JobId, JobQueue, JobState};
use crate::sink::{self, SinkHeader};
use crate::spec::{SpecError, SweepPlan};

/// Service-wide knobs (per-job options derive from these).
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads for in-process backends; `0` = host parallelism.
    pub threads: usize,
    /// Retry budget for faulted trials.
    pub retry: RetryPolicy,
    /// Per-trial observability configuration.
    pub obs: ObsConfig,
    /// Whether the fingerprint cache is consulted and populated.
    pub cache: bool,
    /// Commits between checkpoint rewrites while a job runs.
    pub checkpoint_interval: usize,
    /// Forces every job's execution mode over its spec's `plan` (the
    /// CLI's `TW_PLAN` kill switch); `None` runs what the spec asks.
    pub plan_override: Option<PlanMode>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            threads: 0,
            retry: RetryPolicy::default(),
            obs: ObsConfig::default(),
            cache: true,
            checkpoint_interval: 16,
            plan_override: None,
        }
    }
}

/// What the service did for one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// Spec name.
    pub spec: String,
    /// Backend name, or `"cache"` for a fingerprint-cache hit.
    pub backend: String,
    /// Service-level fingerprint of the resolved plan.
    pub fingerprint: u64,
    /// The deterministic result digest.
    pub digest: u64,
    /// Whether the job was served from the fingerprint cache.
    pub from_cache: bool,
    /// Trials replayed from a checkpoint.
    pub resumed_trials: usize,
    /// Scheduler-equivalent fault accounting (all-zero for a cache
    /// hit, including `trials_computed`).
    pub stats: FaultStats,
    /// Trials that exhausted their retry budget.
    pub failed_trials: usize,
    /// Per-configuration summaries, through the engine's committer.
    /// For a pruned job these cover the trap-simulated configurations
    /// only, in config order; the sink's `cell` records carry the full
    /// per-config provenance.
    pub cells: Vec<TrialSummary>,
    /// Where `result.jsonl` was written.
    pub sink_path: PathBuf,
    /// Effective execution plan (`"full"` or `"pruned"`, after
    /// [`ServiceOptions::plan_override`]).
    pub plan: &'static str,
    /// Cells the planner ran through the simulator.
    pub cells_simulated: u64,
    /// Cells the planner backfilled from the model (always 0 for
    /// `full`).
    pub cells_interpolated: u64,
    /// Trap-simulated trials avoided versus a full sweep.
    pub trials_saved: u64,
    /// Simulated cells stopped early on a tight CI.
    pub ci_early_stops: u64,
}

/// A failure that aborted a job (its state becomes `failed`).
#[derive(Debug)]
pub enum ServiceError {
    /// Filesystem trouble in the queue or sink.
    Io(io::Error),
    /// The spec failed to parse, validate, or expand.
    Spec(SpecError),
    /// The backend aborted the run.
    Backend(BackendError),
    /// No such job.
    UnknownJob(JobId),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "queue I/O error: {e}"),
            ServiceError::Spec(e) => write!(f, "{e}"),
            ServiceError::Backend(e) => write!(f, "{e}"),
            ServiceError::UnknownJob(id) => write!(f, "no such job: {id}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// A queue bound to service options — the object the CLI drives.
#[derive(Debug, Clone)]
pub struct SweepService {
    queue: JobQueue,
    options: ServiceOptions,
}

impl SweepService {
    /// Opens (creating if needed) the service state under `root`.
    ///
    /// # Errors
    ///
    /// Propagates queue-creation failures.
    pub fn open(root: impl Into<PathBuf>, options: ServiceOptions) -> io::Result<Self> {
        Ok(SweepService {
            queue: JobQueue::open(root)?,
            options,
        })
    }

    /// The underlying queue.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// Where a plan's cache entry lives.
    fn cache_path(&self, fingerprint: u64) -> PathBuf {
        self.queue
            .root()
            .join("cache")
            .join(format!("sweep-{fingerprint:016x}.json"))
    }

    /// Validates and enqueues a spec, returning its job ID. Rejected
    /// specs never enter the queue.
    ///
    /// # Errors
    ///
    /// Returns the spec's first validation failure, or queue I/O
    /// trouble.
    pub fn submit(&self, spec_text: &str) -> Result<JobId, ServiceError> {
        SweepPlan::resolve(spec_text).map_err(ServiceError::Spec)?;
        Ok(self.queue.submit(spec_text)?)
    }

    /// Runs one job to completion through `backend` (or the cache),
    /// writing `result.jsonl`, `report.json`, and the terminal state.
    ///
    /// # Errors
    ///
    /// Any error marks the job `failed` (with the message recorded in
    /// `report.json`) and is returned.
    pub fn run_job(
        &self,
        id: JobId,
        backend: &dyn WorkerBackend,
    ) -> Result<JobReport, ServiceError> {
        match self.run_job_inner(id, backend) {
            Ok(report) => Ok(report),
            Err(e) => {
                if self.queue.state(id).ok().flatten().is_some() {
                    let _ = self.queue.set_state(id, JobState::Failed);
                    let _ = tapeworm_obs::write_atomic(
                        &self.queue.report_path(id),
                        format!(
                            "{{\"job\": \"{id:06}\", \"error\": \"{}\"}}\n",
                            escape(&e.to_string())
                        )
                        .as_bytes(),
                    );
                }
                Err(e)
            }
        }
    }

    fn run_job_inner(
        &self,
        id: JobId,
        backend: &dyn WorkerBackend,
    ) -> Result<JobReport, ServiceError> {
        if self.queue.state(id)?.is_none() {
            return Err(ServiceError::UnknownJob(id));
        }
        let spec_text = self.queue.spec_text(id)?;
        let plan = SweepPlan::resolve(&spec_text).map_err(ServiceError::Spec)?;
        self.queue.set_state(id, JobState::Running)?;

        // The effective mode (spec `plan` after `plan_override`) decides
        // both the execution path and the cache key, so a pruned result
        // can never be served for a full request or vice versa — and
        // pruned runs skip the fingerprint cache entirely.
        let mut planner = plan.planner_config();
        if let Some(mode) = self.options.plan_override {
            planner.mode = mode;
        }
        if planner.mode == PlanMode::Pruned {
            return self.run_job_pruned(id, &plan, &planner);
        }

        let fingerprint = plan.fingerprint_as(PlanMode::Full);
        let cached: Option<Vec<TrialOutcome>> = if self.options.cache {
            load_outcomes(&self.cache_path(fingerprint), fingerprint, plan.total())
        } else {
            None
        };
        let from_cache = cached.is_some();
        let run = match cached {
            Some(outcomes) => BackendRun {
                outcomes,
                stats: FaultStats::default(),
                resumed: 0,
            },
            None => {
                let opts = BackendOptions {
                    threads: self.options.threads,
                    retry: self.options.retry,
                    obs: self.options.obs,
                    checkpoint: Some(self.queue.checkpoint_path(id)),
                    checkpoint_interval: self.options.checkpoint_interval,
                };
                backend.run(&plan, &opts).map_err(ServiceError::Backend)?
            }
        };

        let (cells, failed) = fold_outcomes(plan.trials(), run.outcomes.clone());
        let backend_name = if from_cache { "cache" } else { backend.name() };
        let header = SinkHeader {
            job: &format!("{id:06}"),
            spec: &plan.spec().name,
            fingerprint,
            backend: backend_name,
            from_cache,
            threads: self.options.threads,
            configs: plan.configs().len(),
            trials: plan.trials(),
            plan: "full",
        };
        let sink_path = self.queue.sink_path(id);
        let digest = sink::write(&sink_path, &header, &run.outcomes, &cells, failed.len())?;

        // Cache only complete fully-successful runs, so a cache hit can
        // never replay a transient failure.
        if self.options.cache && !from_cache && failed.is_empty() {
            save_outcomes(
                &self.cache_path(fingerprint),
                fingerprint,
                plan.total(),
                &run.outcomes,
            )?;
        }

        let cells_simulated = cells.len() as u64;
        let report = JobReport {
            job: id,
            spec: plan.spec().name.clone(),
            backend: backend_name.to_string(),
            fingerprint,
            digest,
            from_cache,
            resumed_trials: run.resumed,
            stats: run.stats,
            failed_trials: failed.len(),
            cells,
            sink_path,
            plan: "full",
            cells_simulated,
            cells_interpolated: 0,
            trials_saved: 0,
            ci_early_stops: 0,
        };
        tapeworm_obs::write_atomic(&self.queue.report_path(id), report.to_json().as_bytes())?;
        self.queue.set_state(id, JobState::Done)?;
        Ok(report)
    }

    /// The pruned (planner-driven) job path. Runs in-process regardless
    /// of the configured backend — the planner's serial adaptive loop
    /// *is* the scheduler — and never consults or populates the
    /// fingerprint cache: estimates are not ground truth and must never
    /// be replayable as such.
    fn run_job_pruned(
        &self,
        id: JobId,
        plan: &SweepPlan,
        planner: &PlannerConfig,
    ) -> Result<JobReport, ServiceError> {
        let fingerprint = plan.fingerprint_as(PlanMode::Pruned);
        let options = SweepOptions::default()
            .with_threads(1)
            .with_retry(self.options.retry)
            .with_obs(self.options.obs);
        let outcome = run_sweep_planned(
            plan.configs(),
            plan.trials(),
            plan.base(),
            &options,
            planner,
        );
        let header = SinkHeader {
            job: &format!("{id:06}"),
            spec: &plan.spec().name,
            fingerprint,
            backend: "planner",
            from_cache: false,
            threads: 1,
            configs: plan.configs().len(),
            trials: plan.trials(),
            plan: "pruned",
        };
        let sink_path = self.queue.sink_path(id);
        let digest = sink::write_planned(&sink_path, &header, &outcome)?;
        let cells: Vec<TrialSummary> = outcome
            .cells()
            .iter()
            .filter_map(|cell| match cell {
                PlannedCell::Simulated { summary, .. } => Some(summary.clone()),
                PlannedCell::Interpolated(_) => None,
            })
            .collect();
        let report = JobReport {
            job: id,
            spec: plan.spec().name.clone(),
            backend: "planner".to_string(),
            fingerprint,
            digest,
            from_cache: false,
            resumed_trials: 0,
            stats: *outcome.fault_stats(),
            failed_trials: outcome.failed().len(),
            cells,
            sink_path,
            plan: "pruned",
            cells_simulated: outcome.cells_simulated(),
            cells_interpolated: outcome.cells_interpolated(),
            trials_saved: outcome.trials_saved(),
            ci_early_stops: outcome.ci_early_stops(),
        };
        tapeworm_obs::write_atomic(&self.queue.report_path(id), report.to_json().as_bytes())?;
        self.queue.set_state(id, JobState::Done)?;
        Ok(report)
    }

    /// Drains the queue FIFO through `backend`, returning per-job
    /// reports in claim order.
    ///
    /// # Errors
    ///
    /// Stops at the first aborting job (which is marked `failed`).
    pub fn run_pending(&self, backend: &dyn WorkerBackend) -> Result<Vec<JobReport>, ServiceError> {
        let mut reports = Vec::new();
        while let Some(id) = self.queue.claim_next()? {
            reports.push(self.run_job(id, backend)?);
        }
        Ok(reports)
    }
}

impl JobReport {
    /// Renders the `report.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"job\": \"{:06}\", \"spec\": \"{}\", \"backend\": \"{}\", \
             \"fingerprint\": \"0x{:016x}\", \"digest\": \"0x{:016x}\", \
             \"from_cache\": {}, \"resumed_trials\": {}, \"trials_computed\": {}, \
             \"retries\": {}, \"panics\": {}, \"failed_trials\": {}, \
             \"plan\": \"{}\", \"cells_simulated\": {}, \"cells_interpolated\": {}, \
             \"trials_saved\": {}, \"ci_early_stops\": {}}}\n",
            self.job,
            self.spec,
            self.backend,
            self.fingerprint,
            self.digest,
            self.from_cache,
            self.resumed_trials,
            self.stats.trials_computed,
            self.stats.retries,
            self.stats.panics,
            self.failed_trials,
            self.plan,
            self.cells_simulated,
            self.cells_interpolated,
            self.trials_saved,
            self.ci_early_stops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InProcessBackend;
    use std::fs;

    const SPEC: &str = "name = \"svc-demo\"\ntrials = 2\nscale = 20000\n\
                        workloads = [\"xlisp\"]\ncache_kb = [1]\n";

    fn temp_service(tag: &str, options: ServiceOptions) -> SweepService {
        let root = std::env::temp_dir().join(format!("tapeworm-service-test-{tag}"));
        let _ = fs::remove_dir_all(&root);
        SweepService::open(&root, options).unwrap()
    }

    #[test]
    fn lifecycle_submit_run_done_with_artifacts() {
        let svc = temp_service("lifecycle", ServiceOptions::default());
        let id = svc.submit(SPEC).unwrap();
        assert_eq!(svc.queue().state(id).unwrap(), Some(JobState::Submitted));
        let reports = svc.run_pending(&InProcessBackend).unwrap();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(svc.queue().state(id).unwrap(), Some(JobState::Done));
        assert!(!report.from_cache);
        assert_eq!(report.stats.trials_computed, 2);
        assert_eq!(report.failed_trials, 0);
        let sink = fs::read_to_string(&report.sink_path).unwrap();
        assert_eq!(crate::sink::read_digest(&sink), Some(report.digest));
        let report_json = fs::read_to_string(svc.queue().report_path(id)).unwrap();
        assert!(report_json.contains(&format!("0x{:016x}", report.digest)));
        // The engine checkpoint must not survive completion.
        assert!(!svc.queue().checkpoint_path(id).exists());
        fs::remove_dir_all(svc.queue().root()).unwrap();
    }

    #[test]
    fn bad_specs_are_rejected_at_submit_and_failed_at_run() {
        let svc = temp_service("badspec", ServiceOptions::default());
        assert!(matches!(
            svc.submit("trials = 1"),
            Err(ServiceError::Spec(_))
        ));
        // Two configs × u64::MAX trials: the cell count overflows.
        let huge = SPEC
            .replace("trials = 2", &format!("trials = {}", u64::MAX))
            .replace("cache_kb = [1]", "cache_kb = [1, 2]");
        assert!(matches!(svc.submit(&huge), Err(ServiceError::Spec(_))));
        assert_eq!(svc.queue().jobs().unwrap(), vec![]);
        // A spec corrupted after submission fails at run time.
        let id = svc.submit(SPEC).unwrap();
        fs::write(svc.queue().spec_path(id), "garbage").unwrap();
        assert!(svc.run_job(id, &InProcessBackend).is_err());
        assert_eq!(svc.queue().state(id).unwrap(), Some(JobState::Failed));
        let report = fs::read_to_string(svc.queue().report_path(id)).unwrap();
        assert!(report.contains("error"));
        assert!(matches!(
            svc.run_job(999, &InProcessBackend),
            Err(ServiceError::UnknownJob(999))
        ));
        fs::remove_dir_all(svc.queue().root()).unwrap();
    }

    #[test]
    fn second_identical_job_is_served_from_cache_bit_identically() {
        let svc = temp_service("cachehit", ServiceOptions::default());
        let a = svc.submit(SPEC).unwrap();
        let b = svc.submit(SPEC).unwrap();
        let reports = svc.run_pending(&InProcessBackend).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(!reports[0].from_cache);
        assert!(reports[1].from_cache);
        assert_eq!(reports[1].backend, "cache");
        assert_eq!(reports[1].stats, FaultStats::default());
        assert_eq!(reports[0].digest, reports[1].digest);
        assert_eq!(
            fs::read_to_string(svc.queue().sink_path(a))
                .unwrap()
                .lines()
                .count(),
            fs::read_to_string(svc.queue().sink_path(b))
                .unwrap()
                .lines()
                .count()
        );
        fs::remove_dir_all(svc.queue().root()).unwrap();
    }

    #[test]
    fn cache_can_be_disabled() {
        let svc = temp_service(
            "nocache",
            ServiceOptions {
                cache: false,
                ..ServiceOptions::default()
            },
        );
        svc.submit(SPEC).unwrap();
        svc.submit(SPEC).unwrap();
        let reports = svc.run_pending(&InProcessBackend).unwrap();
        assert!(reports.iter().all(|r| !r.from_cache));
        assert_eq!(reports[0].digest, reports[1].digest);
        assert!(!svc.queue().root().join("cache").exists());
        fs::remove_dir_all(svc.queue().root()).unwrap();
    }
}
