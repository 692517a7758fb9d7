//! Fingerprint-cache semantics: identical specs hit, any semantic
//! perturbation misses, provenance is tagged, and failures are never
//! cached.

use std::fs;
use std::path::PathBuf;

use tapeworm_server::{
    InProcessBackend, PlanMode, RetryPolicy, ServiceOptions, SubprocessBackend, SweepPlan,
    SweepService, ENV_FAIL_INDEX,
};

const BASE_SPEC: &str = "name = \"cache-probe\"\ntrials = 2\nseed = 1994\nscale = 20000\n\
                         sampling = 1\ncomponents = \"user\"\nworkloads = [\"espresso\"]\n\
                         cache_kb = [1]\nline_bytes = 16\nassoc = 1\nalloc = \"random\"\n\
                         cost = \"optimized\"\nfast_path = true\n";

fn temp_service(tag: &str, options: ServiceOptions) -> SweepService {
    let root: PathBuf = std::env::temp_dir().join(format!("tapeworm-cache-test-{tag}"));
    let _ = fs::remove_dir_all(&root);
    SweepService::open(&root, options).unwrap()
}

/// An identical spec resubmitted is served from the cache: zero new
/// trials enter the scheduler (asserted via the scheduler's own work
/// counter), and the response carries the `from_cache` provenance tag
/// in both the report and the sink header.
#[test]
fn identical_spec_hits_with_zero_new_trials_and_provenance_tag() {
    let svc = temp_service("hit", ServiceOptions::default());
    let fresh_id = svc.submit(BASE_SPEC).unwrap();
    let hit_id = svc.submit(BASE_SPEC).unwrap();
    let reports = svc.run_pending(&InProcessBackend).unwrap();
    let (fresh, hit) = (&reports[0], &reports[1]);

    assert!(!fresh.from_cache);
    assert_eq!(fresh.stats.trials_computed, 2);
    assert!(hit.from_cache);
    assert_eq!(hit.backend, "cache");
    assert_eq!(
        hit.stats.trials_computed, 0,
        "a cache hit must never enter the scheduler"
    );
    assert_eq!(fresh.digest, hit.digest);
    assert_eq!(fresh.fingerprint, hit.fingerprint);

    let fresh_sink = fs::read_to_string(svc.queue().sink_path(fresh_id)).unwrap();
    let hit_sink = fs::read_to_string(svc.queue().sink_path(hit_id)).unwrap();
    assert!(fresh_sink
        .lines()
        .next()
        .unwrap()
        .contains("\"from_cache\": false"));
    assert!(hit_sink
        .lines()
        .next()
        .unwrap()
        .contains("\"from_cache\": true"));
    assert!(hit_sink
        .lines()
        .next()
        .unwrap()
        .contains("\"backend\": \"cache\""));
    // Identical payload apart from the header provenance: same trial
    // records, same digest footer.
    assert_eq!(
        fresh_sink.lines().skip(1).collect::<Vec<_>>(),
        hit_sink.lines().skip(1).collect::<Vec<_>>()
    );
    fs::remove_dir_all(svc.queue().root()).unwrap();
}

/// Every single-field perturbation of the spec yields a distinct
/// fingerprint, and running it misses the cache.
#[test]
fn any_single_field_perturbation_misses_the_cache() {
    let base = SweepPlan::resolve(BASE_SPEC).unwrap();
    let perturbations: &[(&str, &str, &str)] = &[
        ("trials", "trials = 2", "trials = 3"),
        ("seed", "seed = 1994", "seed = 1995"),
        ("scale", "scale = 20000", "scale = 20001"),
        ("sampling", "sampling = 1", "sampling = 2"),
        (
            "components",
            "components = \"user\"",
            "components = \"kernel\"",
        ),
        (
            "workloads",
            "workloads = [\"espresso\"]",
            "workloads = [\"eqntott\"]",
        ),
        ("cache_kb", "cache_kb = [1]", "cache_kb = [2]"),
        ("line_bytes", "line_bytes = 16", "line_bytes = 32"),
        ("assoc", "assoc = 1", "assoc = 2"),
        ("alloc", "alloc = \"random\"", "alloc = \"sequential\""),
        ("cost", "cost = \"optimized\"", "cost = \"unoptimized_c\""),
        ("fast_path", "fast_path = true", "fast_path = false"),
        ("name", "name = \"cache-probe\"", "name = \"cache-probe-2\""),
    ];

    let svc = temp_service("miss", ServiceOptions::default());
    svc.submit(BASE_SPEC).unwrap();
    svc.run_pending(&InProcessBackend).unwrap();

    let mut fingerprints = vec![base.fingerprint()];
    for (field, from, to) in perturbations {
        let perturbed_text = BASE_SPEC.replace(from, to);
        assert_ne!(perturbed_text, BASE_SPEC, "{field}: replacement missed");
        let perturbed = SweepPlan::resolve(&perturbed_text).unwrap();
        assert_ne!(
            perturbed.fingerprint(),
            base.fingerprint(),
            "{field}: perturbation did not move the fingerprint"
        );
        fingerprints.push(perturbed.fingerprint());
        if *field == "name" {
            // A rename is presentation: the engine identity (and so
            // checkpoint compatibility) is deliberately preserved.
            assert_eq!(perturbed.sweep_id(), base.sweep_id());
        } else {
            assert_ne!(perturbed.sweep_id(), base.sweep_id(), "{field}");
        }

        svc.submit(&perturbed_text).unwrap();
        let report = svc.run_pending(&InProcessBackend).unwrap().pop().unwrap();
        assert!(
            !report.from_cache,
            "{field}: perturbed spec must not hit the cache"
        );
        assert!(report.stats.trials_computed > 0, "{field}");
    }
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(
        fingerprints.len(),
        perturbations.len() + 1,
        "perturbed fingerprints must be pairwise distinct"
    );
    fs::remove_dir_all(svc.queue().root()).unwrap();
}

/// Planner modes can never alias each other in the cache: a pruned
/// result is never served for a `full` request or vice versa, and
/// pruned runs never populate the cache at all (estimates are not
/// ground truth).
#[test]
fn pruned_and_full_never_share_cache_entries() {
    let pruned_spec = format!("{BASE_SPEC}plan = \"pruned\"\n");
    let full = SweepPlan::resolve(BASE_SPEC).unwrap();
    let pruned = SweepPlan::resolve(&pruned_spec).unwrap();
    assert_ne!(
        full.fingerprint(),
        pruned.fingerprint(),
        "plan mode must be part of the cache key"
    );
    assert_ne!(
        pruned.fingerprint(),
        SweepPlan::resolve(&format!("{BASE_SPEC}plan = \"pruned\"\nci_bound = 0.25\n"))
            .unwrap()
            .fingerprint(),
        "the CI bound must be part of the pruned cache key"
    );

    let svc = temp_service("modes", ServiceOptions::default());
    let cache_dir = svc.queue().root().join("cache");

    // Full run populates the cache.
    svc.submit(BASE_SPEC).unwrap();
    let full_report = svc.run_pending(&InProcessBackend).unwrap().pop().unwrap();
    assert!(!full_report.from_cache);
    assert_eq!(full_report.plan, "full");
    let entries_after_full = fs::read_dir(&cache_dir).unwrap().count();
    assert_eq!(entries_after_full, 1);

    // The pruned variant of the same grid must not be served from that
    // entry — it runs the planner — and must not add an entry of its
    // own.
    svc.submit(&pruned_spec).unwrap();
    let pruned_report = svc.run_pending(&InProcessBackend).unwrap().pop().unwrap();
    assert!(
        !pruned_report.from_cache,
        "a full result must never satisfy a pruned request"
    );
    assert_eq!(pruned_report.backend, "planner");
    assert_eq!(pruned_report.plan, "pruned");
    assert!(pruned_report.stats.trials_computed > 0);
    assert_eq!(
        fs::read_dir(&cache_dir).unwrap().count(),
        entries_after_full,
        "a pruned run must never populate the fingerprint cache"
    );

    // A second pruned submission recomputes — no hit in either
    // direction.
    svc.submit(&pruned_spec).unwrap();
    let again = svc.run_pending(&InProcessBackend).unwrap().pop().unwrap();
    assert!(!again.from_cache, "estimates must never be replayed");
    assert_eq!(again.digest, pruned_report.digest, "but stay deterministic");

    // The full request still hits its own (ground-truth) entry.
    svc.submit(BASE_SPEC).unwrap();
    let hit = svc.run_pending(&InProcessBackend).unwrap().pop().unwrap();
    assert!(hit.from_cache);
    assert_eq!(hit.digest, full_report.digest);
    fs::remove_dir_all(svc.queue().root()).unwrap();
}

/// `plan_override` (the CLI's `TW_PLAN`) decides the *effective*
/// mode, and the cache is keyed on what actually ran: a pruned spec
/// forced to `full` by the kill switch hits the full spec's cache
/// entry.
#[test]
fn tw_plan_kill_switch_rekeys_the_cache_on_the_effective_mode() {
    let pruned_spec = format!("{BASE_SPEC}plan = \"pruned\"\n");
    let full = SweepPlan::resolve(BASE_SPEC).unwrap();
    let pruned = SweepPlan::resolve(&pruned_spec).unwrap();
    assert_eq!(
        pruned.fingerprint_as(PlanMode::Full),
        full.fingerprint(),
        "forcing full must map onto the full cache key"
    );

    let svc = temp_service("killswitch", ServiceOptions::default());
    svc.submit(BASE_SPEC).unwrap();
    let full_report = svc.run_pending(&InProcessBackend).unwrap().pop().unwrap();

    // The same queue, reopened with the kill switch thrown.
    let forced_svc = SweepService::open(
        svc.queue().root(),
        ServiceOptions {
            plan_override: Some(PlanMode::Full),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    forced_svc.submit(&pruned_spec).unwrap();
    let forced = forced_svc.run_pending(&InProcessBackend).unwrap();
    let forced = forced.last().unwrap();
    assert_eq!(forced.plan, "full", "TW_PLAN=0 must force the full path");
    assert!(
        forced.from_cache,
        "the forced-full run is keyed as full and hits the full entry"
    );
    assert_eq!(forced.digest, full_report.digest);
    fs::remove_dir_all(svc.queue().root()).unwrap();
}

/// A run with failed trials is never cached: the retry should
/// recompute, not replay the failure.
#[test]
fn failed_runs_are_not_cached() {
    let svc = temp_service(
        "nofail",
        ServiceOptions {
            retry: RetryPolicy::none(),
            ..ServiceOptions::default()
        },
    );
    // A worker that fails cell 0 on attempt 0 with no retry budget
    // produces a gracefully-degraded run with one failed trial.
    let faulty = SubprocessBackend::new(
        env!("CARGO_BIN_EXE_tapeworm-server"),
        vec!["worker".to_string()],
    )
    .with_env(ENV_FAIL_INDEX, "0");
    svc.submit(BASE_SPEC).unwrap();
    let report = svc.run_pending(&faulty).unwrap().pop().unwrap();
    assert_eq!(report.failed_trials, 1);
    assert!(!svc.queue().root().join("cache").exists());

    // The resubmitted spec recomputes (fresh, healthy worker) and only
    // then populates the cache.
    let healthy = SubprocessBackend::new(
        env!("CARGO_BIN_EXE_tapeworm-server"),
        vec!["worker".to_string()],
    );
    svc.submit(BASE_SPEC).unwrap();
    let report = svc.run_pending(&healthy).unwrap().pop().unwrap();
    assert!(!report.from_cache);
    assert_eq!(report.failed_trials, 0);
    assert!(svc.queue().root().join("cache").exists());
    fs::remove_dir_all(svc.queue().root()).unwrap();
}
