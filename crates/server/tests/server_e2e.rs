//! End-to-end service tests over the real worker binary.
//!
//! The contract under test: for a fixed spec, the service digest is
//! bit-identical across backends (in-process vs subprocess worker),
//! thread counts, injected worker faults/crashes, and checkpoint
//! resume — pinned against the direct engine and the golden value that
//! ci.sh gates on.

use std::fs;
use std::path::{Path, PathBuf};

use tapeworm_server::{
    digest_outcomes, BackendOptions, FaultStats, InProcessBackend, ServiceOptions,
    SubprocessBackend, SweepPlan, SweepService, WorkerBackend, ENV_EXIT_INDEX, ENV_FAIL_INDEX,
};
use tapeworm_sim::{
    run_sweep_resilient, run_sweep_resilient_observed, save_outcomes, CheckpointConfig, FaultPlan,
    SweepOptions,
};

/// The pinned digest of `specs/ci_smoke.toml`. Also pinned in the root
/// `tests/server_e2e.rs` and in ci.sh; move all three together, and
/// only for an intentional engine-output change.
const CI_SMOKE_GOLDEN_DIGEST: u64 = 0x2791_1846_7b9c_2732;

fn ci_smoke_spec() -> String {
    fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/ci_smoke.toml"
    ))
    .expect("specs/ci_smoke.toml")
}

fn worker_backend() -> SubprocessBackend {
    SubprocessBackend::new(
        env!("CARGO_BIN_EXE_tapeworm-server"),
        vec!["worker".to_string()],
    )
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("tapeworm-e2e-{tag}"));
    let _ = fs::remove_dir_all(&root);
    root
}

/// The direct engine under `faults`: its whole fault accounting and
/// its outcome digest. The service must give both exactly, fault for
/// fault, since both backends run the scheduler's attempt loop.
fn engine_under(faults: FaultPlan) -> (FaultStats, u64) {
    let plan = SweepPlan::resolve(&ci_smoke_spec()).unwrap();
    let options = SweepOptions::default().with_faults(faults);
    let mut outcomes = Vec::new();
    let run = run_sweep_resilient_observed(
        plan.configs(),
        plan.trials(),
        plan.base(),
        &options,
        |_, o| outcomes.push(o.clone()),
    );
    (*run.fault_stats(), digest_outcomes(&outcomes))
}

fn run_once(tag: &str, backend: &dyn WorkerBackend, threads: usize) -> tapeworm_server::JobReport {
    let svc = SweepService::open(
        temp_root(tag),
        ServiceOptions {
            threads,
            cache: false,
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    svc.submit(&ci_smoke_spec()).unwrap();
    let mut reports = svc.run_pending(backend).unwrap();
    let report = reports.pop().unwrap();
    fs::remove_dir_all(svc.queue().root()).unwrap();
    report
}

/// The tab7-scale spec, submitted and polled to completion through
/// both backends: every digest equals the direct
/// `run_sweep_resilient` digest, invariant under TW_THREADS ∈ {1,4,8},
/// and equal to the golden pin.
#[test]
fn digest_is_golden_across_backends_and_thread_counts() {
    let plan = SweepPlan::resolve(&ci_smoke_spec()).unwrap();
    // Direct engine reference, outside the service entirely.
    let (stats, digest) = engine_under(FaultPlan::new());
    assert_eq!(
        digest, CI_SMOKE_GOLDEN_DIGEST,
        "direct engine digest moved — intentional output change?"
    );
    assert!(stats.is_clean());

    for threads in [1usize, 4, 8] {
        let report = run_once(&format!("inproc-{threads}"), &InProcessBackend, threads);
        assert_eq!(
            report.digest, CI_SMOKE_GOLDEN_DIGEST,
            "in-process digest drifted at {threads} threads"
        );
        assert_eq!(report.stats.trials_computed, plan.total() as u64);
        assert!(report.stats.is_clean());
    }

    let report = run_once("subproc", &worker_backend(), 1);
    assert_eq!(report.backend, "subprocess");
    assert_eq!(report.digest, CI_SMOKE_GOLDEN_DIGEST);
    assert_eq!(report.stats.trials_computed, plan.total() as u64);
    assert!(report.stats.is_clean());
    assert_eq!(report.failed_trials, 0);
}

/// A worker that returns a typed error for one cell: the service
/// retries with the engine's deterministic backoff accounting and the
/// digest does not move.
#[test]
fn injected_worker_fault_retries_without_moving_the_digest() {
    let backend = worker_backend().with_env(ENV_FAIL_INDEX, "5");
    let report = run_once("typed-fault", &backend, 1);
    assert_eq!(report.digest, CI_SMOKE_GOLDEN_DIGEST);
    assert_eq!(report.failed_trials, 0);
    assert!(!report.stats.is_clean());
    assert_eq!(report.stats.typed_failures, 1);
    assert_eq!(report.stats.retries, 1);
    assert!(report.stats.backoff_units > 0);
    assert_eq!(report.stats.panics, 0);
    let engine = engine_under(FaultPlan::new().with_budget_exhaustion(5, 0));
    assert_eq!((report.stats, report.digest), engine);
}

/// A worker that dies mid-protocol: the service counts a contained
/// panic, respawns the worker, and completes bit-identically.
#[test]
fn injected_worker_crash_respawns_without_moving_the_digest() {
    let backend = worker_backend().with_env(ENV_EXIT_INDEX, "7");
    let report = run_once("crash", &backend, 1);
    assert_eq!(report.digest, CI_SMOKE_GOLDEN_DIGEST);
    assert_eq!(report.failed_trials, 0);
    assert_eq!(report.stats.panics, 1);
    assert_eq!(report.stats.workers_respawned, 1);
    assert_eq!(report.stats.retries, 1);
    let engine = engine_under(FaultPlan::new().with_panic(7, 0));
    assert_eq!((report.stats, report.digest), engine);
}

/// Resumes `checkpoint` through `backend` and checks the resume
/// contract: the `k` committed cells are replayed, only the remainder
/// is computed, the digest is the golden one, and completion removes
/// the checkpoint.
fn assert_resumes(backend: &dyn WorkerBackend, plan: &SweepPlan, checkpoint: &Path, k: usize) {
    let resumed = backend
        .run(
            plan,
            &BackendOptions {
                checkpoint: Some(checkpoint.to_path_buf()),
                ..BackendOptions::default()
            },
        )
        .unwrap();
    let name = backend.name();
    assert_eq!(resumed.resumed, k, "{name}: prefix {k} not replayed");
    assert_eq!(
        resumed.stats.trials_computed,
        (plan.total() - k) as u64,
        "{name}: prefix {k} recomputed"
    );
    assert_eq!(
        digest_outcomes(&resumed.outcomes),
        CI_SMOKE_GOLDEN_DIGEST,
        "{name}: resuming prefix {k} changed committed bits"
    );
    assert!(!checkpoint.exists(), "{name}: prefix {k} checkpoint kept");
}

/// A committed prefix left by a dead worker is resumed, not
/// recomputed, wherever the kill landed: for every prefix length
/// `0..=total`, both backends replay it and compute only the
/// remainder, with the golden digest.
#[test]
fn every_committed_prefix_resumes_on_both_backends() {
    let spec = ci_smoke_spec();
    let plan = SweepPlan::resolve(&spec).unwrap();
    let total = plan.total();
    assert_eq!(total, 16, "ci_smoke is a 16-cell grid");

    // Fabricate each prefix exactly as a crashed run would have
    // committed it.
    let reference = worker_backend()
        .run(&plan, &BackendOptions::default())
        .unwrap();
    let checkpoint = temp_root("resume").join("checkpoint.json");
    let backends: [&dyn WorkerBackend; 2] = [&worker_backend(), &InProcessBackend];
    for k in 0..=total {
        for backend in backends {
            save_outcomes(
                &checkpoint,
                plan.sweep_id(),
                total,
                &reference.outcomes[..k],
            )
            .unwrap();
            assert_resumes(backend, &plan, &checkpoint, k);
        }
    }
    fs::remove_dir_all(checkpoint.parent().unwrap()).unwrap();
}

/// A prefix the sweep engine itself wrote when killed (deterministic
/// `stop_after`) resumes through the subprocess backend: prefixes
/// written by either backend are interchangeable.
#[test]
fn an_engine_written_prefix_resumes_on_the_subprocess_backend() {
    let spec = ci_smoke_spec();
    let plan = SweepPlan::resolve(&spec).unwrap();
    let k = 7;
    let checkpoint = temp_root("engine-prefix").join("checkpoint.json");
    let killed = run_sweep_resilient(
        plan.configs(),
        plan.trials(),
        plan.base(),
        &SweepOptions::default()
            .with_checkpoint(CheckpointConfig::new(&checkpoint).with_stop_after(k)),
    );
    assert_eq!(killed.stopped_after(), Some(k));
    assert!(checkpoint.exists(), "the killed engine left its prefix");
    assert_resumes(&worker_backend(), &plan, &checkpoint, k);
    fs::remove_dir_all(checkpoint.parent().unwrap()).unwrap();
}
