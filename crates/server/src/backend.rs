//! Pluggable worker backends: how a claimed job's trials get computed.
//!
//! A backend turns a [`SweepPlan`] into the full index-ordered
//! [`TrialOutcome`] vector. Determinism is the contract: every backend
//! must produce outcomes bit-identical to what
//! [`run_sweep_resilient`](tapeworm_sim::run_sweep_resilient) would
//! commit, because the service folds and fingerprints them through the
//! same committer and codec.
//!
//! * [`InProcessBackend`] — the sweep engine itself: the
//!   `TrialScheduler` worker pool with retry, panic containment, and
//!   checkpoint/resume, teed through the engine's commit observer.
//! * [`SubprocessBackend`] — a worker subprocess (`tapeworm-server
//!   worker`) driven over the length-prefixed JSON protocol in
//!   [`wire`](crate::wire). The server resolves the identical plan on
//!   both sides (handshake-verified by fingerprint) and requests one
//!   cell at a time through the scheduler's own attempt loop,
//!   [`attempt_trial`]: typed errors retry with the engine's
//!   deterministic capped backoff, worker death (EOF, I/O error,
//!   crash) is the contained-panic kind and respawns the worker, so the
//!   [`FaultStats`] equal the in-process engine's. The committed prefix
//!   checkpoints through `tapeworm-checkpoint-v1` at the same cadence.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use tapeworm_sim::{
    decode_outcome, encode_outcome, load_outcomes, run_sweep_cell, run_sweep_resilient_observed,
    save_outcomes, CheckpointConfig, FailureKind, FaultStats, ObsConfig, RetryPolicy, SweepOptions,
    TrialMetrics, TrialOutcome, TrialResult,
};
use tapeworm_stats::trials::attempt_trial;

use crate::spec::SweepPlan;
use crate::wire::{field, field_usize, hex_decode, hex_encode, read_frame, write_frame};

/// Environment variable: the worker returns a typed error for this
/// cell index on attempt 0 (deterministic fault injection for tests).
pub const ENV_FAIL_INDEX: &str = "TW_WORKER_FAIL_INDEX";

/// Environment variable: the worker exits mid-protocol at this cell
/// index on attempt 0 (deterministic crash injection for tests).
pub const ENV_EXIT_INDEX: &str = "TW_WORKER_EXIT_INDEX";

/// Everything that shapes a backend run besides the plan itself.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Worker threads for backends with internal parallelism; `0`
    /// selects the host's available parallelism. Never affects
    /// committed values.
    pub threads: usize,
    /// Retry budget and deterministic backoff for faulted trials.
    pub retry: RetryPolicy,
    /// Per-trial observability configuration.
    pub obs: ObsConfig,
    /// Checkpoint file for crash-safe progress; `None` disables both
    /// checkpointing and resume.
    pub checkpoint: Option<PathBuf>,
    /// Commits between checkpoint rewrites.
    pub checkpoint_interval: usize,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            threads: 0,
            retry: RetryPolicy::default(),
            obs: ObsConfig::default(),
            checkpoint: None,
            checkpoint_interval: 16,
        }
    }
}

/// A completed backend run: the full outcome vector plus accounting.
#[derive(Debug)]
pub struct BackendRun {
    /// One outcome per cell, index order `0..plan.total()`.
    pub outcomes: Vec<TrialOutcome>,
    /// Scheduler-equivalent fault accounting for the run.
    pub stats: FaultStats,
    /// Cells replayed from the checkpoint instead of recomputed.
    pub resumed: usize,
}

/// A backend failure that aborted the job (distinct from individual
/// trial failures, which degrade gracefully inside the outcome vector).
#[derive(Debug)]
pub enum BackendError {
    /// The worker process could not be spawned.
    Spawn(io::Error),
    /// The worker resolved a different plan than the server (version
    /// skew) or rejected the spec.
    Handshake(String),
    /// The conversation derailed unrecoverably (corrupt frame, wrong
    /// index, respawn failure).
    Protocol(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Spawn(e) => write!(f, "failed to spawn worker: {e}"),
            BackendError::Handshake(msg) => write!(f, "worker handshake failed: {msg}"),
            BackendError::Protocol(msg) => write!(f, "worker protocol error: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A strategy for computing a plan's trials.
pub trait WorkerBackend {
    /// Short name for reports and sink headers.
    fn name(&self) -> &'static str;

    /// Computes every cell of `plan`, in index order.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] only for failures that abort the
    /// whole job; per-trial failures live inside [`BackendRun`].
    fn run(&self, plan: &SweepPlan, opts: &BackendOptions) -> Result<BackendRun, BackendError>;
}

/// The sweep engine running in the server's own process.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessBackend;

impl WorkerBackend for InProcessBackend {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn run(&self, plan: &SweepPlan, opts: &BackendOptions) -> Result<BackendRun, BackendError> {
        let mut options = SweepOptions::default()
            .with_threads(opts.threads)
            .with_retry(opts.retry)
            .with_obs(opts.obs);
        if let Some(path) = &opts.checkpoint {
            options = options.with_checkpoint(
                CheckpointConfig::new(path)
                    .with_interval(opts.checkpoint_interval)
                    .resuming(),
            );
        }
        let mut outcomes = Vec::with_capacity(plan.total());
        let outcome = run_sweep_resilient_observed(
            plan.configs(),
            plan.trials(),
            plan.base(),
            &options,
            |_, o| outcomes.push(o.clone()),
        );
        Ok(BackendRun {
            outcomes,
            stats: *outcome.fault_stats(),
            resumed: outcome.resumed_trials(),
        })
    }
}

/// A live worker subprocess with its stdio pipes.
struct Worker {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: std::process::ChildStdout,
}

impl Worker {
    fn request(&mut self, payload: &str) -> io::Result<String> {
        write_frame(&mut self.stdin, payload)?;
        read_frame(&mut self.stdout)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker closed mid-conversation",
            )
        })
    }

    fn shutdown(mut self) {
        let _ = write_frame(&mut self.stdin, "{\"op\": \"shutdown\"}");
        let _ = read_frame(&mut self.stdout);
        let _ = self.child.wait();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A worker subprocess speaking the wire protocol over stdio.
#[derive(Debug, Clone)]
pub struct SubprocessBackend {
    program: PathBuf,
    args: Vec<String>,
    env: Vec<(String, String)>,
}

impl SubprocessBackend {
    /// A backend running `program args...` as the worker.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        SubprocessBackend {
            program: program.into(),
            args,
            env: Vec::new(),
        }
    }

    /// The default worker: this very binary re-invoked as
    /// `tapeworm-server worker`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to resolve the current executable.
    pub fn current_exe() -> io::Result<Self> {
        Ok(SubprocessBackend::new(
            std::env::current_exe()?,
            vec!["worker".to_string()],
        ))
    }

    /// Adds an environment variable for spawned workers (used by tests
    /// to arm the worker's deterministic fault injection).
    #[must_use]
    pub fn with_env(mut self, key: &str, value: &str) -> Self {
        self.env.push((key.to_string(), value.to_string()));
        self
    }

    fn spawn(&self, plan: &SweepPlan, opts: &BackendOptions) -> Result<Worker, BackendError> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        for (k, v) in &self.env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().map_err(BackendError::Spawn)?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut worker = Worker {
            child,
            stdin,
            stdout,
        };
        // Handshake: the worker resolves the same spec and must agree
        // on the plan's identity before any cell is computed.
        let hello = format!(
            "{{\"op\": \"plan\", \"spec\": \"{}\", \"ring\": {}}}",
            hex_encode(plan.source()),
            opts.obs.ring_capacity
        );
        let reply = worker
            .request(&hello)
            .map_err(|e| BackendError::Handshake(e.to_string()))?;
        if field(&reply, "ok") != Some("plan") {
            let msg = field(&reply, "err")
                .and_then(hex_decode)
                .unwrap_or_else(|| reply.clone());
            return Err(BackendError::Handshake(msg));
        }
        let fingerprint =
            field(&reply, "fingerprint").and_then(|h| u64::from_str_radix(h, 16).ok());
        if fingerprint != Some(plan.fingerprint())
            || field_usize(&reply, "total") != Some(plan.total())
        {
            return Err(BackendError::Handshake(format!(
                "worker resolved a different plan: {reply}"
            )));
        }
        Ok(worker)
    }

    /// One cell request. `Ok(Ok(..))` is a committed outcome,
    /// `Ok(Err(msg))` a typed (retryable) failure, `Err(..)` transport
    /// loss (the worker is dead).
    fn request_cell(
        worker: &mut Worker,
        index: usize,
        attempt: u32,
    ) -> io::Result<Result<(TrialResult, TrialMetrics), String>> {
        let reply = worker.request(&format!(
            "{{\"op\": \"run\", \"index\": {index}, \"attempt\": {attempt}}}"
        ))?;
        if let Some(err_hex) = field(&reply, "err") {
            let msg = hex_decode(err_hex).unwrap_or_else(|| "undecodable error".to_string());
            return Ok(Err(msg));
        }
        let decoded = field(&reply, "line")
            .and_then(hex_decode)
            .and_then(|line| decode_outcome(&line));
        match decoded {
            Some((i, Ok(cell))) if i == index => Ok(Ok(cell)),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed cell reply: {reply}"),
            )),
        }
    }
}

impl WorkerBackend for SubprocessBackend {
    fn name(&self) -> &'static str {
        "subprocess"
    }

    fn run(&self, plan: &SweepPlan, opts: &BackendOptions) -> Result<BackendRun, BackendError> {
        let total = plan.total();
        let mut stats = FaultStats::default();

        // Resume the committed prefix, exactly like the engine: the
        // checkpoint is keyed by the engine-level sweep identity, so
        // prefixes written by either backend are interchangeable.
        let mut outcomes: Vec<TrialOutcome> = opts
            .checkpoint
            .as_deref()
            .and_then(|path| load_outcomes(path, plan.sweep_id(), total))
            .unwrap_or_default();
        outcomes.truncate(total);
        let resumed = outcomes.len();

        let mut worker = Ok(self.spawn(plan, opts)?);
        for index in resumed..total {
            // A dead worker is the panic kind and is respawned at once.
            // A failed respawn fails the trial's remaining attempts and
            // then aborts the job with the spawn error.
            let (outcome, delta) = attempt_trial(opts.retry, index, |attempt| {
                let Ok(live) = worker.as_mut() else {
                    return Err(FailureKind::Panic("no worker process".to_string()));
                };
                match Self::request_cell(live, index, attempt) {
                    Ok(reply) => reply.map_err(FailureKind::Error),
                    Err(death) => {
                        worker = self.spawn(plan, opts);
                        Err(FailureKind::Panic(format!("worker died: {death}")))
                    }
                }
            });
            if let Err(e) = worker {
                return Err(e);
            }
            stats.merge(&delta);
            outcomes.push(outcome);
            if let Some(path) = &opts.checkpoint {
                let committed = outcomes.len();
                if committed < total && (committed - resumed) % opts.checkpoint_interval.max(1) == 0
                {
                    // Best-effort, like the engine: a failed write keeps
                    // the previous complete prefix.
                    let _ = save_outcomes(path, plan.sweep_id(), total, &outcomes);
                }
            }
        }
        worker?.shutdown();
        if let Some(path) = &opts.checkpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(BackendRun {
            outcomes,
            stats,
            resumed,
        })
    }
}

/// The worker side of the wire protocol: serves `plan`/`run`/`shutdown`
/// requests over stdio until EOF. This is what `tapeworm-server worker`
/// runs.
///
/// Deterministic fault injection (for the service test suite only):
/// [`ENV_FAIL_INDEX`] makes the worker return a typed error for that
/// cell on attempt 0; [`ENV_EXIT_INDEX`] makes it exit mid-protocol
/// instead, simulating a crash. Both trigger on attempt 0 only, so the
/// retry completes the cell — the same transient faults the engine's
/// `FaultPlan` injects in process.
///
/// # Errors
///
/// Propagates stdio failures.
pub fn serve_worker() -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_worker_io(&mut stdin.lock(), &mut stdout.lock())
}

fn env_index(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

fn serve_worker_io(r: &mut impl Read, w: &mut impl Write) -> io::Result<()> {
    let mut plan: Option<(SweepPlan, ObsConfig)> = None;
    let fail_index = env_index(ENV_FAIL_INDEX);
    let exit_index = env_index(ENV_EXIT_INDEX);

    let err_reply = |msg: &str| format!("{{\"err\": \"{}\"}}", hex_encode(msg));

    while let Some(msg) = read_frame(r)? {
        let reply = match field(&msg, "op") {
            Some("plan") => {
                let spec = field(&msg, "spec").and_then(hex_decode);
                let ring = field_usize(&msg, "ring").unwrap_or(0);
                match spec.as_deref().map(SweepPlan::resolve) {
                    Some(Ok(resolved)) => {
                        let reply = format!(
                            "{{\"ok\": \"plan\", \"fingerprint\": \"{:016x}\", \"total\": {}}}",
                            resolved.fingerprint(),
                            resolved.total()
                        );
                        plan = Some((
                            resolved,
                            ObsConfig {
                                ring_capacity: ring,
                            },
                        ));
                        reply
                    }
                    Some(Err(e)) => err_reply(&e.to_string()),
                    None => err_reply("plan request carries no decodable spec"),
                }
            }
            Some("run") => match (
                &plan,
                field_usize(&msg, "index"),
                field_usize(&msg, "attempt"),
            ) {
                (Some((plan, obs)), Some(index), Some(attempt)) if index < plan.total() => {
                    if attempt == 0 && exit_index == Some(index) {
                        // Injected crash: die without a reply, exactly
                        // like a panic tearing down the process.
                        std::process::exit(17);
                    }
                    if attempt == 0 && fail_index == Some(index) {
                        err_reply("injected worker fault")
                    } else {
                        match run_sweep_cell(
                            plan.configs(),
                            plan.trials(),
                            plan.base(),
                            index,
                            *obs,
                        ) {
                            Ok(cell) => format!(
                                "{{\"ok\": \"run\", \"index\": {index}, \"line\": \"{}\"}}",
                                hex_encode(&encode_outcome(index, &Ok(cell)))
                            ),
                            Err(msg) => err_reply(&msg),
                        }
                    }
                }
                (None, _, _) => err_reply("no plan loaded"),
                _ => err_reply("malformed run request"),
            },
            Some("shutdown") => {
                write_frame(w, "{\"ok\": \"shutdown\"}")?;
                break;
            }
            _ => err_reply("unknown op"),
        };
        write_frame(w, &reply)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "name = \"wire-demo\"\ntrials = 2\nscale = 20000\n\
                        workloads = [\"espresso\"]\ncache_kb = [1]\n";

    /// Drives the worker loop in-memory: no subprocess needed to pin
    /// the protocol and the cell bit-exactness.
    #[test]
    fn worker_loop_serves_cells_bit_identical_to_the_engine() {
        let plan = SweepPlan::resolve(SPEC).unwrap();
        let mut requests = Vec::new();
        write_frame(
            &mut requests,
            &format!(
                "{{\"op\": \"plan\", \"spec\": \"{}\", \"ring\": 0}}",
                hex_encode(SPEC)
            ),
        )
        .unwrap();
        for index in 0..plan.total() {
            write_frame(
                &mut requests,
                &format!("{{\"op\": \"run\", \"index\": {index}, \"attempt\": 0}}"),
            )
            .unwrap();
        }
        write_frame(&mut requests, "{\"op\": \"shutdown\"}").unwrap();

        let mut replies = Vec::new();
        serve_worker_io(&mut requests.as_slice(), &mut replies).unwrap();

        let mut r = replies.as_slice();
        let hello = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            field(&hello, "fingerprint"),
            Some(format!("{:016x}", plan.fingerprint()).as_str())
        );
        for index in 0..plan.total() {
            let reply = read_frame(&mut r).unwrap().unwrap();
            let line = hex_decode(field(&reply, "line").unwrap()).unwrap();
            let (i, outcome) = decode_outcome(&line).unwrap();
            assert_eq!(i, index);
            let direct = run_sweep_cell(
                plan.configs(),
                plan.trials(),
                plan.base(),
                index,
                ObsConfig::default(),
            )
            .unwrap();
            assert_eq!(outcome, Ok(direct), "cell {index} drifted");
        }
        let bye = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(field(&bye, "ok"), Some("shutdown"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn worker_rejects_bad_requests_without_dying() {
        let mut requests = Vec::new();
        write_frame(
            &mut requests,
            "{\"op\": \"run\", \"index\": 0, \"attempt\": 0}",
        )
        .unwrap();
        write_frame(&mut requests, "{\"op\": \"plan\", \"spec\": \"zz\"}").unwrap();
        write_frame(&mut requests, "{\"op\": \"dance\"}").unwrap();
        let mut replies = Vec::new();
        serve_worker_io(&mut requests.as_slice(), &mut replies).unwrap();
        let mut r = replies.as_slice();
        for want in ["no plan loaded", "no decodable spec", "unknown op"] {
            let reply = read_frame(&mut r).unwrap().unwrap();
            let msg = hex_decode(field(&reply, "err").unwrap()).unwrap();
            assert!(msg.contains(want), "`{want}` not in `{msg}`");
        }
    }

    #[test]
    fn in_process_backend_matches_direct_engine() {
        let plan = SweepPlan::resolve(SPEC).unwrap();
        let run = InProcessBackend
            .run(&plan, &BackendOptions::default())
            .unwrap();
        assert_eq!(run.outcomes.len(), plan.total());
        assert_eq!(run.stats.trials_computed, plan.total() as u64);
        assert!(run.stats.is_clean());
        for (index, outcome) in run.outcomes.iter().enumerate() {
            let direct = run_sweep_cell(
                plan.configs(),
                plan.trials(),
                plan.base(),
                index,
                ObsConfig::default(),
            )
            .unwrap();
            assert_eq!(outcome, &Ok(direct));
        }
    }
}
