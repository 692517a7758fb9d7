//! The job queue under hostile interleavings.
//!
//! The invariant family: for any interleaving of submissions, worker
//! kills (a claimed job abandoned with an arbitrary committed prefix),
//! and resumes, the queue loses no job, completes no job twice, and
//! every job's terminal digest and fault accounting are independent of
//! the interleaving that produced them. Each case draws its schedule
//! from its own SplitMix64 stream, a pure function of the case index,
//! so a failing case replays alone. Dependency-free; runs with the
//! default `cargo test`.

use std::collections::HashMap;
use std::fs;

use tapeworm_server::{
    digest_outcomes, BackendOptions, InProcessBackend, JobReport, JobState, ServiceOptions,
    SweepPlan, SweepService, WorkerBackend,
};
use tapeworm_sim::save_outcomes;
use tapeworm_stats::SeedSeq;

const CASES: u64 = 16;
/// Spec variants a schedule draws from.
const VARIANTS: u8 = 8;

/// Tiny spec variants so grids stay fast; index selects the variant.
fn spec_text(variant: u8) -> String {
    let (workload, kb) = match variant % 4 {
        0 => ("espresso", 1),
        1 => ("eqntott", 1),
        2 => ("espresso", 2),
        _ => ("xlisp", 1),
    };
    format!(
        "name = \"prop-{variant}\"\ntrials = 2\nscale = 20000\n\
         workloads = [\"{workload}\"]\ncache_kb = [{kb}]\n"
    )
}

/// One step of the adversarial schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit spec variant `n`.
    Submit(u8),
    /// Claim the next job and abandon it mid-run with a `k`-cell
    /// committed prefix (a crashed worker).
    Kill(u8),
    /// Drain every pending job to completion.
    Resume,
}

/// Records a drain's reports, failing on a job completed twice.
fn record(completed: &mut HashMap<u64, u64>, reports: Vec<JobReport>, case: u64) {
    for report in reports {
        assert!(
            completed.insert(report.job, report.digest).is_none(),
            "case {case}: job {} completed twice",
            report.job
        );
        assert!(report.stats.is_clean(), "case {case}");
        assert_eq!(report.failed_trials, 0, "case {case}");
    }
}

/// No job lost, no job completed twice, and terminal digests and
/// fault stats are interleaving-independent.
#[test]
fn queue_survives_arbitrary_interleavings() {
    // Reference digests computed outside the queue entirely.
    let reference: HashMap<String, u64> = (0..VARIANTS)
        .map(|v| {
            let plan = SweepPlan::resolve(&spec_text(v)).unwrap();
            let run = InProcessBackend
                .run(&plan, &BackendOptions::default())
                .unwrap();
            (spec_text(v), digest_outcomes(&run.outcomes))
        })
        .collect();

    // Kills that orphaned a claimed job with a non-empty committed
    // prefix: resuming from a checkpoint must actually be exercised.
    let mut resumable_orphans = 0;
    for case in 0..CASES {
        let mut rng = SeedSeq::new(1994)
            .derive("queue_survives_arbitrary_interleavings", case)
            .rng();
        let ops: Vec<Op> = (0..rng.gen_range(1..24usize))
            .map(|_| match rng.gen_range(0..3u8) {
                0 => Op::Submit(rng.gen_range(0..VARIANTS)),
                1 => Op::Kill(rng.gen_range(0..8u8)),
                _ => Op::Resume,
            })
            .collect();

        let root =
            std::env::temp_dir().join(format!("tapeworm-prop-{}-{case}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let svc = SweepService::open(&root, ServiceOptions::default()).unwrap();

        let mut submitted = Vec::new();
        let mut completed: HashMap<u64, u64> = HashMap::new(); // job -> digest
        for &op in &ops {
            match op {
                Op::Submit(v) => {
                    submitted.push((svc.submit(&spec_text(v)).unwrap(), spec_text(v)));
                }
                Op::Kill(k) => {
                    // A worker claims the job, commits a prefix, dies.
                    if let Some(id) = svc.queue().claim_next().unwrap() {
                        let spec = svc.queue().spec_text(id).unwrap();
                        let plan = SweepPlan::resolve(&spec).unwrap();
                        let prefix = usize::from(k) % (plan.total() + 1);
                        let run = InProcessBackend
                            .run(&plan, &BackendOptions::default())
                            .unwrap();
                        save_outcomes(
                            &svc.queue().checkpoint_path(id),
                            plan.sweep_id(),
                            plan.total(),
                            &run.outcomes[..prefix],
                        )
                        .unwrap();
                        // Job stays `running`: an orphan.
                        resumable_orphans += usize::from(prefix > 0);
                    }
                }
                Op::Resume => record(
                    &mut completed,
                    svc.run_pending(&InProcessBackend).unwrap(),
                    case,
                ),
            }
        }
        // Final drain: whatever the schedule left behind must finish.
        record(
            &mut completed,
            svc.run_pending(&InProcessBackend).unwrap(),
            case,
        );

        // No job lost: every submission reached `done` with the
        // interleaving-independent digest for its spec.
        for (id, spec) in &submitted {
            assert_eq!(
                svc.queue().state(*id).unwrap(),
                Some(JobState::Done),
                "case {case}: job {id} in {ops:?}"
            );
            assert_eq!(
                completed.get(id),
                Some(&reference[spec]),
                "case {case}: job {id} in {ops:?}"
            );
        }
        assert_eq!(completed.len(), submitted.len(), "case {case}: {ops:?}");
        fs::remove_dir_all(&root).unwrap();
    }
    assert!(
        resumable_orphans > 0,
        "no schedule resumed a committed prefix"
    );
}
