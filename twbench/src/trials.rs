//! The trial workloads, `miss-heavy` and `hit-heavy`: back-to-back
//! single-threaded trials of one cache configuration, each timed from
//! the call into the engine to its result.

use std::time::{Duration, Instant};

use tapeworm_server::{digest_outcomes, SweepPlan};
use tapeworm_sim::{
    run_sweep, try_run_trial, try_run_trial_observed_reusing, ObsConfig, SystemConfig,
    TrialMetrics, TrialOutcome, TrialResult, TrialScratch,
};
use tapeworm_stats::SeedSeq;

use crate::report::{expect_eq, peak_rss_mb, Report};
use crate::stats::{median, samples_for_tail, tail};
use crate::trace::Tracer;
use crate::{layers, service, Args, Workload};

/// Instruction-scale divisor: mpeg_play runs 7.1 M instructions per
/// trial, the scale of the repository's throughput gate.
const SCALE: u64 = 200;
/// Trials per job: a trial workload's job is one ci_smoke-sized cell.
const TRIALS_PER_JOB: usize = 4;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Cold and warm trials timed for `sim.cold_trial_ms`.
const COLD_PAIRS: usize = 9;
/// Leading trials re-run through the stepwise oracle and `run_sweep`.
const CHECKED_TRIALS: usize = 2;
/// Leading trials the deterministic counters and `sim_digest` cover.
const DIGEST_TRIALS: usize = 16;
/// Traced runs alternate blocks of this many traced and untraced ops.
pub const TRACE_BLOCK: usize = 8;
/// Jobs the traced run sends through the service stage.
const STAGE_JOBS: u64 = 6;
/// A run stops adding samples after this long even if it lacks them.
pub const HARD_STOP: Duration = Duration::from_secs(120);

/// The workload's spec: mpeg_play, user component only, one
/// direct-mapped 16-byte-line cache.
fn spec_text(workload: Workload, seed: u64, trials: usize) -> String {
    let kb = match workload {
        Workload::MissHeavy => 4,
        Workload::HitHeavy => 64,
        Workload::Service => unreachable!("the service workload has its own spec"),
    };
    format!(
        "name = \"{}\"\ntrials = {trials}\nseed = {seed}\nscale = {SCALE}\n\
         components = \"user\"\nworkloads = [\"mpeg_play\"]\ncache_kb = [{kb}]\n",
        workload.name()
    )
}

/// Trial `t`'s base and trial seeds. Each trial gets its own base
/// seed, hence its own synthetic procedure layout, as well as its own
/// page allocation, so a run's medians average over hundreds of inputs
/// and runs with different seeds see equally mixed inputs. The trial
/// seed is derived as a sweep derives it, so trial `t` is the single
/// cell of `run_sweep` over its base seed.
fn trial_seeds(run: SeedSeq, t: usize) -> (SeedSeq, SeedSeq) {
    let base = run.derive("trial-base", t as u64);
    (base, base.derive("sweep-config", 0).derive("trial", 0))
}

/// The stepwise reference engine for `cfg`.
fn oracle(cfg: &SystemConfig) -> SystemConfig {
    cfg.clone()
        .with_fast_path(false)
        .with_miss_batch(false)
        .with_miss_schedule(false)
}

/// One timed trial.
struct Timed {
    start: Instant,
    end: Instant,
    traced: bool,
    refs: u64,
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec = spec_text(args.workload, args.seed, TRIALS_PER_JOB);

    // Set-up: resolve the config and run one cold trial on a fresh
    // scratch, several times; the last scratch stays warm for timing.
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Only one engine's buffers are alive at a time, as in the
        // timed phase.
        drop(prepared.take());
        let start = Instant::now();
        let plan = SweepPlan::resolve(&spec).map_err(|e| e.to_string())?;
        let cfg = plan.configs()[0].clone();
        let (base, trial) = trial_seeds(plan.base(), 0);
        let mut scratch = TrialScratch::new();
        let cold =
            try_run_trial_observed_reusing(&cfg, base, trial, ObsConfig::default(), &mut scratch)
                .map_err(|e| e.to_string())?;
        setup.push(start.elapsed().as_secs_f64());
        prepared = Some((cfg, plan.base(), scratch, cold.0));
    }
    let (cfg, run_seed, mut scratch, cold_result) = prepared.expect("at least one set-up");

    let tracer = Tracer::new(false);
    let mut timed = Vec::new();
    let mut ops = Vec::new();
    let mut kept: Vec<TrialOutcome> = Vec::new();
    let mut checked: Vec<TrialResult> = Vec::new();
    let mut peak_rss = None;
    let min_trials = samples_for_tail(90) * TRIALS_PER_JOB;
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs(args.seconds);
    while (ops.len() < min_trials || Instant::now() < deadline) && begin.elapsed() < HARD_STOP {
        let t = ops.len();
        let traced = args.trace && (t / TRACE_BLOCK) % 2 == 1;
        tracer.set_enabled(traced);
        let op = report.tally.attempt();
        ops.push(op);
        let (base, trial) = trial_seeds(run_seed, t);
        let start = Instant::now();
        let _trial = tracer.span("trial", t as u64);
        let out = {
            let _sim = tracer.span("sim.trial", t as u64);
            try_run_trial_observed_reusing(&cfg, base, trial, ObsConfig::default(), &mut scratch)
        };
        let end = Instant::now();
        match out {
            Ok((result, metrics)) => {
                if t < CHECKED_TRIALS {
                    checked.push(result);
                }
                if t < DIGEST_TRIALS {
                    kept.push(Ok((result, metrics)));
                }
                let ok = if result.instructions > 0 {
                    Ok(())
                } else {
                    Err("trial retired no instructions".to_string())
                };
                report.tally.check(op, ok);
                timed.push(Timed {
                    start,
                    end,
                    traced,
                    refs: result.instructions,
                });
            }
            Err(e) => report.tally.check(op, Err(e.to_string())),
        }
        // The peak over set-up and the fixed prefix: the same inputs in
        // every run of a seed, however many trials the host's speed
        // allows after it. The untimed checks build fresh engines and
        // come later.
        if t + 1 == DIGEST_TRIALS {
            peak_rss = peak_rss_mb();
        }
    }
    tracer.set_enabled(args.trace);

    // Output checks, untimed: the stepwise oracle, the sweep engine,
    // and the cold-scratch set-up trial must all agree with the timed
    // trials they repeat, and the service must reproduce its pin.
    for (t, result) in checked.iter().enumerate() {
        let (base, trial) = trial_seeds(run_seed, t);
        let want = try_run_trial(&oracle(&cfg), base, trial).map_err(|e| e.to_string())?;
        report
            .tally
            .check(ops[t], expect_eq("stepwise oracle result", want, *result));
        let swept = run_sweep(std::slice::from_ref(&cfg), 1, base, 1);
        let want = swept[0].results()[0];
        report
            .tally
            .check(ops[t], expect_eq("run_sweep result", want, *result));
    }
    service::ci_smoke_check(report)?;
    if let Some(first) = checked.first() {
        report.tally.check(
            ops[0],
            expect_eq("cold-scratch result", cold_result, *first),
        );
    }

    let mut counters = tapeworm_obs::Counters::new();
    let mut instructions = 0;
    for (result, metrics) in kept.iter().flatten() {
        counters.merge(&metrics.counters);
        instructions += result.instructions;
    }
    report.counts(&counters, instructions);
    report.detail("digest_trials", kept.len().to_string());
    report.detail(
        "sim_digest",
        format!("\"0x{:016x}\"", digest_outcomes(&kept)),
    );
    report.detail("trials", timed.len().to_string());
    report.detail("trial_scale", SCALE.to_string());

    let ms = |pick: &dyn Fn(&Timed) -> bool| -> Vec<f64> {
        timed
            .iter()
            .filter(|s| pick(s))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    };
    let untraced_ms = ms(&|s| !s.traced);
    let trial_p50 = median(&untraced_ms);

    if !args.trace {
        let trial_ms = ms(&|_| true);
        let jobs: Vec<f64> = timed
            .chunks_exact(TRIALS_PER_JOB)
            .map(|job| (job[TRIALS_PER_JOB - 1].end - job[0].start).as_secs_f64() * 1e3)
            .collect();
        let rates: Vec<f64> = timed
            .iter()
            .map(|s| s.refs as f64 / (s.end - s.start).as_secs_f64())
            .collect();
        report.detail("jobs", jobs.len().to_string());
        report.set("refs_per_sec", median(&rates));
        report.set("trial_ms.p50", median(&trial_ms));
        report.set("trial_ms.p90", tail(&trial_ms, 90));
        report.set("job_ms.p50", median(&jobs));
        report.set("job_ms.p90", tail(&jobs, 90));
        report.set("setup_s", median(&setup));
        report.set("peak_rss_mb", peak_rss);
        return Ok(());
    }

    // Traced run: tracing overhead, cold-start cost, layer replays,
    // the engine's own counters, and the service stage.
    let traced_p50 = median(&ms(&|s| s.traced));
    if let (Some(on), Some(off)) = (traced_p50, trial_p50) {
        report.set("trace.overhead_ms", Some(on - off));
        report.set("trace.overhead_frac", Some((on - off) / off));
    }
    let (base, trial) = trial_seeds(run_seed, 0);
    report.set(
        "sim.cold_trial_ms",
        cold_minus_warm_ms(&cfg, base, trial, &mut scratch)?,
    );
    if let Some(layers) = layers::replay(&cfg, base, trial, &tracer, 0) {
        report.set_layer_times(&layers, trial_p50);
    }
    report.set_counter_ratios(&counters, instructions);
    service::stage(
        |j| {
            spec_text(
                args.workload,
                SeedSeq::new(args.seed).derive("stage-job", j).value(),
                2,
            )
        },
        STAGE_JOBS,
        &tracer,
        report,
    )?;
    service::write_spans(args, &tracer, report)
}

/// Median cold trial (fresh scratch) minus median warm trial (reused
/// scratch) on the same seed: the cost a trial pays to allocate its
/// engine buffers.
pub fn cold_minus_warm_ms(
    cfg: &SystemConfig,
    base: SeedSeq,
    seed: SeedSeq,
    scratch: &mut TrialScratch,
) -> Result<Option<f64>, String> {
    let run = |scratch: &mut TrialScratch| -> Result<f64, String> {
        let start = Instant::now();
        let out: (TrialResult, TrialMetrics) =
            try_run_trial_observed_reusing(cfg, base, seed, ObsConfig::default(), scratch)
                .map_err(|e| e.to_string())?;
        std::hint::black_box(out);
        Ok(start.elapsed().as_secs_f64() * 1e3)
    };
    run(scratch)?;
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..COLD_PAIRS {
        cold.push(run(&mut TrialScratch::new())?);
        warm.push(run(scratch)?);
    }
    Ok(median(&cold).zip(median(&warm)).map(|(c, w)| c - w))
}
