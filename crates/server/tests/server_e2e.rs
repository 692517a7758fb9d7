//! End-to-end service tests over the real worker binary.
//!
//! The contract under test: for a fixed spec, the service digest is
//! bit-identical across backends (in-process vs subprocess worker),
//! thread counts, injected worker faults/crashes, and checkpoint
//! resume — pinned against the direct engine and the golden value that
//! ci.sh gates on.

use std::fs;
use std::path::PathBuf;

use tapeworm_server::{
    digest_outcomes, BackendOptions, FaultStats, InProcessBackend, ServiceOptions,
    SubprocessBackend, SweepPlan, SweepService, WorkerBackend, ENV_EXIT_INDEX, ENV_FAIL_INDEX,
};
use tapeworm_sim::{run_sweep_resilient_observed, save_outcomes, FaultPlan, SweepOptions};

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

/// A committed prefix left by a dead worker is resumed, not
/// recomputed: the subprocess backend replays it and only computes the
/// remainder, with the same digest.
#[test]
fn subprocess_backend_resumes_a_committed_prefix() {
    let spec = ci_smoke_spec();
    let plan = SweepPlan::resolve(&spec).unwrap();
    let total = plan.total();

    // Fabricate the first 6 cells exactly as a crashed run would have
    // committed them.
    let reference = worker_backend()
        .run(&plan, &BackendOptions::default())
        .unwrap();
    let checkpoint = temp_root("resume").join("checkpoint.json");
    save_outcomes(
        &checkpoint,
        plan.sweep_id(),
        total,
        &reference.outcomes[..6],
    )
    .unwrap();

    let resumed = worker_backend()
        .run(
            &plan,
            &BackendOptions {
                checkpoint: Some(checkpoint.clone()),
                ..BackendOptions::default()
            },
        )
        .unwrap();
    assert_eq!(resumed.resumed, 6);
    assert_eq!(resumed.stats.trials_computed, (total - 6) as u64);
    assert_eq!(
        digest_outcomes(&resumed.outcomes),
        CI_SMOKE_GOLDEN_DIGEST,
        "resume changed committed bits"
    );
    // Completion removes the checkpoint.
    assert!(!checkpoint.exists());
    fs::remove_dir_all(checkpoint.parent().unwrap()).unwrap();
}
