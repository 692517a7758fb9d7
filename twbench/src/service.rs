//! The `service` workload: a closed loop of small sweep jobs, each
//! submitted to a `SweepService` and served by a `SubprocessBackend`
//! with one worker process (this binary, re-invoked as `worker`), one
//! job at a time. Also the service stage every traced run measures.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tapeworm_server::wire::{hex_encode, read_frame, write_frame};
use tapeworm_server::{
    digest_outcomes, read_digest, sink, BackendError, BackendOptions, BackendRun, JobReport,
    ServiceOptions, SubprocessBackend, SweepPlan, SweepService, WorkerBackend,
};
use tapeworm_sim::{
    decode_outcome, encode_outcome, run_sweep_resilient_observed, SweepOptions, TrialOutcome,
    TrialScratch,
};
use tapeworm_stats::SeedSeq;

use crate::report::{expect_eq, peak_rss_mb, Report};
use crate::stats::{median, samples_for_tail, tail};
use crate::trace::Tracer;
use crate::trials::{cold_minus_warm_ms, HARD_STOP, TRACE_BLOCK};
use crate::{layers, Args};

/// The repository's pinned service smoke spec and its golden digest.
const CI_SMOKE: &str = include_str!("../../specs/ci_smoke.toml");
const CI_SMOKE_DIGEST: u64 = 0x2791_1846_7b9c_2732;
/// Jobs one service root serves before the client moves to a fresh
/// one, so queue scans stay the same length however fast jobs run.
const EPOCH_JOBS: u64 = 25;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Leading jobs the deterministic counters and `sim_digest` cover.
const DIGEST_JOBS: usize = 4;
/// Resubmissions timed for `cache.hit_job_ms`.
const CACHE_HITS: usize = 3;
/// Passes over a job's outcomes in the codec and frame replays.
const CODEC_REPS: usize = 50;
/// Job index the set-up's warm-up jobs use (never a timed job's).
const SETUP_JOB: u64 = 1 << 40;

/// Job `j`'s spec: ci_smoke with a per-job seed, so the fingerprint
/// cache stores every job but never answers one.
fn job_spec(seed: u64, j: u64) -> String {
    let job_seed = SeedSeq::new(seed).derive("service-job", j).value();
    let mut out = String::new();
    for line in CI_SMOKE.lines() {
        let key = line.split('=').next().map(str::trim);
        match key {
            Some("seed") => out.push_str(&format!("seed = {job_seed}")),
            Some("name") => out.push_str(&format!("name = \"job-{j}\"")),
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// A scratch directory inside the benchmark's own tree, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new(label: &str) -> Result<Self, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("run")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The subprocess backend with a span around each run; keeps the run's
/// outcomes for the replays when asked.
struct Observed<'a> {
    inner: SubprocessBackend,
    tracer: &'a Tracer,
    job: Cell<u64>,
    keep: Cell<bool>,
    last: RefCell<Vec<TrialOutcome>>,
}

impl WorkerBackend for Observed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, plan: &SweepPlan, opts: &BackendOptions) -> Result<BackendRun, BackendError> {
        let _span = self.tracer.span("backend.run", self.job.get());
        let run = self.inner.run(plan, opts)?;
        if self.keep.get() {
            *self.last.borrow_mut() = run.outcomes.clone();
        }
        Ok(run)
    }
}

fn open(root: &Path) -> Result<SweepService, String> {
    let options = ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    };
    SweepService::open(root, options).map_err(|e| e.to_string())
}

/// One client of the service.
struct Client<'a> {
    label: &'static str,
    dir: RunDir,
    service: SweepService,
    served: u64,
    backend: Observed<'a>,
    tracer: &'a Tracer,
}

impl<'a> Client<'a> {
    fn new(label: &'static str, tracer: &'a Tracer) -> Result<Self, String> {
        let dir = RunDir::new(label)?;
        let service = open(&dir.0)?;
        let inner = SubprocessBackend::current_exe().map_err(|e| e.to_string())?;
        Ok(Client {
            label,
            dir,
            service,
            served: 0,
            backend: Observed {
                inner,
                tracer,
                job: Cell::new(0),
                keep: Cell::new(false),
                last: RefCell::new(Vec::new()),
            },
            tracer,
        })
    }

    /// Moves to a fresh service root once the current one has served
    /// [`EPOCH_JOBS`] jobs.
    fn rotate_if_due(&mut self) -> Result<(), String> {
        if self.served >= EPOCH_JOBS {
            self.dir = RunDir::new(self.label)?;
            self.service = open(&self.dir.0)?;
            self.served = 0;
        }
        Ok(())
    }

    /// Submits `spec` as job `j` and serves it: submit → queue →
    /// backend → sink. Returns the report and the host wall in ms.
    fn job(&mut self, j: u64, spec: &str) -> Result<(JobReport, f64), String> {
        self.served += 1;
        self.backend.job.set(j);
        let start = Instant::now();
        let reports = {
            let _job = self.tracer.span("job", j);
            {
                let _submit = self.tracer.span("queue.submit", j);
                self.service.submit(spec).map_err(|e| e.to_string())?;
            }
            let _run = self.tracer.span("service.run", j);
            self.service
                .run_pending(&self.backend)
                .map_err(|e| e.to_string())?
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match <[JobReport; 1]>::try_from(reports) {
            Ok([report]) => Ok((report, ms)),
            Err(reports) => Err(format!("one job served {} reports", reports.len())),
        }
    }
}

/// Output checks on one served job: no failed trials, not answered by
/// the cache, and the sink on disk carries the reported digest.
fn job_checks(report: &JobReport) -> Result<(), String> {
    expect_eq("failed trials", 0, report.failed_trials)?;
    expect_eq("served from cache", false, report.from_cache)?;
    let sink = std::fs::read_to_string(&report.sink_path).map_err(|e| e.to_string())?;
    expect_eq("sink digest", Some(report.digest), read_digest(&sink))
}

/// The direct engine's digest over `spec`'s plan.
fn direct_digest(spec: &str) -> Result<u64, String> {
    let plan = SweepPlan::resolve(spec).map_err(|e| e.to_string())?;
    let mut outcomes = Vec::with_capacity(plan.total());
    run_sweep_resilient_observed(
        plan.configs(),
        plan.trials(),
        plan.base(),
        &SweepOptions::default().with_threads(1),
        |_, o| outcomes.push(o.clone()),
    );
    Ok(digest_outcomes(&outcomes))
}

/// The self-check every run makes: `specs/ci_smoke.toml` at its own
/// seed must reproduce the pinned digest through the service and
/// through the direct engine.
pub fn ci_smoke_check(report: &mut Report) -> Result<(), String> {
    let op = report.tally.attempt();
    let tracer = Tracer::new(false);
    let (served, _) = Client::new("ci-smoke", &tracer)?.job(SETUP_JOB + 1, CI_SMOKE)?;
    let direct = direct_digest(CI_SMOKE)?;
    report.tally.check(
        op,
        expect_eq("ci_smoke service digest", CI_SMOKE_DIGEST, served.digest),
    );
    report.tally.check(
        op,
        expect_eq("ci_smoke direct digest", CI_SMOKE_DIGEST, direct),
    );
    Ok(())
}

/// Simulated refs a job committed.
fn job_refs(report: &JobReport) -> u64 {
    report
        .cells
        .iter()
        .flat_map(|c| c.results())
        .map(|r| r.instructions)
        .sum()
}

fn trials_in(report: &JobReport) -> usize {
    report.cells.iter().map(|c| c.results().len()).sum()
}

/// Replays of the stages a job runs inside the service and its worker,
/// on the job's own spec and outcomes, each under its own span.
fn stage_replays(
    spec: &str,
    report: &JobReport,
    outcomes: &[TrialOutcome],
    tracer: &Tracer,
    j: u64,
) -> Result<(), String> {
    let plan = {
        let _span = tracer.span("spec.resolve", j);
        SweepPlan::resolve(spec).map_err(|e| e.to_string())?
    };
    let header = sink::SinkHeader {
        job: "replay",
        spec: &plan.spec().name,
        fingerprint: report.fingerprint,
        backend: "subprocess",
        from_cache: false,
        threads: 1,
        configs: plan.configs().len(),
        trials: plan.trials(),
        plan: report.plan,
    };
    let (_, digest) = {
        let _span = tracer.span("sink.render", j);
        sink::render(&header, outcomes, &report.cells, 0)
    };
    expect_eq("rendered sink digest", report.digest, digest)?;
    {
        let _span = tracer.span("sink.digest", j);
        std::hint::black_box(digest_outcomes(outcomes));
    }
    {
        let _span = tracer.span("checkpoint.codec", j);
        for _ in 0..CODEC_REPS {
            for (i, outcome) in outcomes.iter().enumerate() {
                let line = encode_outcome(i, outcome);
                let back = decode_outcome(&line).map(|(_, o)| o);
                std::hint::black_box(back);
            }
        }
    }
    let replies: Vec<String> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| format!("{{\"line\": \"{}\"}}", hex_encode(&encode_outcome(i, o))))
        .collect();
    let mut buf = Vec::new();
    let _span = tracer.span("wire.frame", j);
    for _ in 0..CODEC_REPS {
        for reply in &replies {
            buf.clear();
            write_frame(&mut buf, reply).map_err(|e| e.to_string())?;
            let back = read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?;
            std::hint::black_box(back);
        }
    }
    Ok(())
}

/// Per-layer service metrics from the spans of the traced jobs, plus
/// `cache.hit_job_ms` from resubmitting `cached_spec`, which the
/// client's current root has already served.
fn service_metrics(
    client: &mut Client<'_>,
    cached_spec: &str,
    cached_digest: u64,
    cells: usize,
    report: &mut Report,
) -> Result<(), String> {
    let mut hits = Vec::new();
    for _ in 0..CACHE_HITS {
        let op = report.tally.attempt();
        let (hit, ms) = client.job(SETUP_JOB - 1, cached_spec)?;
        let ok = expect_eq("cache-hit digest", cached_digest, hit.digest).and(expect_eq(
            "served from cache",
            true,
            hit.from_cache,
        ));
        report.tally.check(op, ok);
        hits.push(ms);
    }
    report.set("cache.hit_job_ms", median(&hits));

    let times = client.tracer.times();
    let ms = |name: &str| {
        times
            .get(name)
            .and_then(|t| median(&t.total_ns))
            .map(|ns| ns / 1e6)
    };
    let per_item = |name: &str| ms(name).map(|m| m * 1e6 / (CODEC_REPS * cells) as f64);
    report.set("spec.resolve_ms", ms("spec.resolve"));
    report.set("queue.submit_ms", ms("queue.submit"));
    report.set("backend.run_ms", ms("backend.run"));
    report.set(
        "backend.cell_ms",
        ms("backend.run").map(|m| m / cells as f64),
    );
    report.set("checkpoint.outcome_codec_ns", per_item("checkpoint.codec"));
    report.set("wire.frame_ns", per_item("wire.frame"));
    report.set("sink.render_ms", ms("sink.render"));
    report.set("sink.digest_ms", ms("sink.digest"));
    // Per job: its wall less what the spans inside it and the replays
    // of the service's own render and resolve account for.
    let parts: Vec<_> = ["queue.submit", "backend.run", "sink.render", "spec.resolve"]
        .iter()
        .map(|n| client.tracer.total_by_id(n))
        .collect();
    let residuals: Vec<f64> = client
        .tracer
        .total_by_id("job")
        .into_iter()
        .filter_map(|(id, job)| {
            let attributed: Option<f64> = parts.iter().map(|p| p.get(&id)).sum();
            attributed.map(|a| (job - a) / 1e6)
        })
        .collect();
    report.set("service.residual_ms", median(&residuals));
    Ok(())
}

/// The service stage of a traced trial-workload run: `jobs` traced
/// jobs of `spec_for(j)` through a fresh service, then the per-layer
/// service metrics.
pub fn stage(
    spec_for: impl Fn(u64) -> String,
    jobs: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut client = Client::new("stage", tracer)?;
    client.backend.keep.set(true);
    let mut last = None;
    for j in 0..jobs {
        let spec = spec_for(j);
        let op = report.tally.attempt();
        let (served, _) = client.job(j, &spec)?;
        report.tally.check(op, job_checks(&served));
        let outcomes = client.backend.last.take();
        let replayed = stage_replays(&spec, &served, &outcomes, tracer, j);
        report.tally.check(op, replayed);
        last = Some((spec, served));
    }
    let (spec, served) = last.ok_or("the stage ran no jobs")?;
    service_metrics(
        &mut client,
        &spec,
        served.digest,
        trials_in(&served),
        report,
    )
}

/// Writes the traced run's spans next to the benchmark.
pub fn write_spans(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("run");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.detail("spans", format!("\"{}\"", path.display()));
    // Median whole and self time per span name, in ms.
    let mut summary = String::from("{");
    for (i, (name, t)) in tracer.times().iter().enumerate() {
        let p50 = |v: &[f64]| median(v).unwrap_or(0.0) / 1e6;
        summary.push_str(&format!(
            "{}\"{name}\": {{\"n\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
            if i == 0 { "" } else { ", " },
            t.total_ns.len(),
            p50(&t.total_ns),
            p50(&t.self_ns),
        ));
    }
    summary.push('}');
    report.detail("span_medians", summary);
    Ok(())
}

/// One timed job.
struct Timed {
    ms: f64,
    traced: bool,
    refs: u64,
    trials: usize,
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Set-up: open a fresh service, resolve the first spec, and serve
    // one warm-up job, which spawns the worker and runs its handshake.
    let tracer = Tracer::new(false);
    let mut setup = Vec::new();
    for k in 0..SETUP_REPS {
        let start = Instant::now();
        let mut client = Client::new("setup", &tracer)?;
        let spec = job_spec(args.seed, SETUP_JOB + k as u64);
        SweepPlan::resolve(&spec).map_err(|e| e.to_string())?;
        client.job(SETUP_JOB, &spec)?;
        setup.push(start.elapsed().as_secs_f64());
    }

    let mut client = Client::new("service", &tracer)?;
    let mut timed = Vec::new();
    let mut kept: Vec<TrialOutcome> = Vec::new();
    let mut checked = Vec::new();
    let mut digest_jobs = 0;
    let mut peak_rss = None;
    let min_jobs = samples_for_tail(90);
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs(args.seconds);
    let mut j = 0u64;
    while (timed.len() < min_jobs || Instant::now() < deadline) && begin.elapsed() < HARD_STOP {
        let traced = args.trace && (j as usize / TRACE_BLOCK) % 2 == 1;
        tracer.set_enabled(traced);
        client
            .backend
            .keep
            .set(traced || (j as usize) < DIGEST_JOBS);
        client.rotate_if_due()?;
        let spec = job_spec(args.seed, j);
        let op = report.tally.attempt();
        match client.job(j, &spec) {
            Ok((served, ms)) => {
                report.tally.check(op, job_checks(&served));
                let outcomes = client.backend.last.take();
                if traced {
                    report
                        .tally
                        .check(op, stage_replays(&spec, &served, &outcomes, &tracer, j));
                }
                if (j as usize) < DIGEST_JOBS {
                    kept.extend(outcomes);
                    digest_jobs += 1;
                }
                timed.push(Timed {
                    ms,
                    traced,
                    refs: job_refs(&served),
                    trials: trials_in(&served),
                });
                // Only the first and the latest job face the direct
                // engine; the rest are dropped to keep memory flat.
                if checked.len() == 2 {
                    checked.pop();
                }
                checked.push((op, spec, served));
            }
            Err(e) => report.tally.check(op, Err(e)),
        }
        // The peak over set-up and the fixed prefix of jobs, as in the
        // trial workloads.
        if j + 1 == DIGEST_JOBS as u64 {
            peak_rss = peak_rss_mb();
        }
        j += 1;
    }
    tracer.set_enabled(args.trace);

    // Output checks, untimed: the first and last jobs against the
    // direct engine, and the pinned ci_smoke digest through both paths.
    let ends = [checked.first(), checked.last()];
    for (op, spec, served) in ends.into_iter().flatten() {
        report.tally.check(
            *op,
            expect_eq("direct engine digest", direct_digest(spec)?, served.digest),
        );
    }
    ci_smoke_check(report)?;

    let mut counters = tapeworm_obs::Counters::new();
    let mut instructions = 0;
    for (result, metrics) in kept.iter().flatten() {
        counters.merge(&metrics.counters);
        instructions += result.instructions;
    }
    report.counts(&counters, instructions);
    report.detail("digest_jobs", digest_jobs.to_string());
    report.detail(
        "sim_digest",
        format!("\"0x{:016x}\"", digest_outcomes(&kept)),
    );
    report.detail("jobs", timed.len().to_string());

    let job_ms = |traced: Option<bool>| -> Vec<f64> {
        timed
            .iter()
            .filter(|t| traced.map_or(true, |want| t.traced == want))
            .map(|t| t.ms)
            .collect()
    };
    if !args.trace {
        let all = job_ms(None);
        let per_trial: Vec<f64> = timed.iter().map(|t| t.ms / t.trials as f64).collect();
        let rates: Vec<f64> = timed.iter().map(|t| t.refs as f64 / (t.ms / 1e3)).collect();
        report.set("refs_per_sec", median(&rates));
        report.set("trial_ms.p50", median(&per_trial));
        report.set("trial_ms.p90", tail(&per_trial, 90));
        report.set("job_ms.p50", median(&all));
        report.set("job_ms.p90", tail(&all, 90));
        report.set("setup_s", median(&setup));
        report.set("peak_rss_mb", peak_rss);
        return Ok(());
    }

    let (off, on) = (median(&job_ms(Some(false))), median(&job_ms(Some(true))));
    if let (Some(on), Some(off)) = (on, off) {
        report.set("trace.overhead_ms", Some(on - off));
        report.set("trace.overhead_frac", Some((on - off) / off));
    }
    let (_, spec, served) = checked.last().ok_or("no job completed")?;
    let cells = trials_in(served);
    service_metrics(&mut client, spec, served.digest, cells, report)?;

    // Trial layers on the job's largest mpeg_play-shaped cell: the last
    // configuration of the plan.
    let plan = SweepPlan::resolve(spec).map_err(|e| e.to_string())?;
    let c = plan.configs().len() - 1;
    let cfg = &plan.configs()[c];
    let seed0 = plan
        .base()
        .derive("sweep-config", c as u64)
        .derive("trial", 0);
    let per_trial_p50 = off.map(|ms| ms / cells as f64);
    if let Some(layers) = layers::replay(cfg, plan.base(), seed0, &tracer, j) {
        report.set_layer_times(&layers, per_trial_p50);
    }
    report.set(
        "sim.cold_trial_ms",
        cold_minus_warm_ms(cfg, plan.base(), seed0, &mut TrialScratch::new())?,
    );
    report.set_counter_ratios(&counters, instructions);
    write_spans(args, &tracer, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_specs_differ_only_in_name_and_seed() {
        let (a, b) = (job_spec(1, 0), job_spec(1, 1));
        assert_ne!(a, b);
        assert_eq!(a, job_spec(1, 0));
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with("seed") && !l.starts_with("name"))
                .map(String::from)
                .collect()
        };
        assert_eq!(strip(&a), strip(CI_SMOKE));
        let plan = SweepPlan::resolve(&a).expect("a job spec resolves");
        assert_eq!(plan.total(), 16);
        assert_ne!(
            plan.base(),
            SweepPlan::resolve(&b).expect("resolves").base()
        );
    }
}
