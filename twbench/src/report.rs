//! Metric registry, failure tally and the printed result.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use tapeworm_obs::Counters;

use crate::layers::LayerTimes;
use crate::stats::ratio;
use crate::Args;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("refs_per_sec", "1/s"),
    ("trial_ms.p50", "ms"),
    ("trial_ms.p90", "ms"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_word", "ns"),
    ("workload.gen_share", "ratio"),
    ("workload.zipf_ns_per_sample", "ns"),
    ("vm.translate_ns", "ns"),
    ("vm.tcache_hit_ratio", "ratio"),
    ("vm.page_walks_per_mref", "count"),
    ("trapset.clean_span_ns", "ns"),
    ("trapset.trapped_run_ns", "ns"),
    ("trapset.traps_set_per_miss", "count"),
    ("sim.fast_words_frac", "ratio"),
    ("sim.words_per_fast_run", "count"),
    ("sim.cold_trial_ms", "ms"),
    ("sim.unattributed_ms", "ms"),
    ("tapeworm.handle_miss_ns", "ns"),
    ("tapeworm.burst_ns_per_miss", "ns"),
    ("tapeworm.misses_per_kref", "count"),
    ("tapeworm.misses_per_flush", "count"),
    ("tapeworm.victim_memo_hit_ratio", "ratio"),
    ("tapeworm.sched_replay_ratio", "ratio"),
    ("tapeworm.sched_sig_miss_ratio", "ratio"),
    ("sparse.chunks_allocated", "count"),
    ("sparse.chunk_faults", "count"),
    ("spec.resolve_ms", "ms"),
    ("queue.submit_ms", "ms"),
    ("backend.run_ms", "ms"),
    ("backend.cell_ms", "ms"),
    ("checkpoint.outcome_codec_ns", "ns"),
    ("wire.frame_ns", "ns"),
    ("sink.render_ms", "ms"),
    ("sink.digest_ms", "ms"),
    ("service.residual_ms", "ms"),
    ("cache.hit_job_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Operations attempted and the ones that failed, by index. An
/// operation fails once however many of its checks fail.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: usize,
    failed: BTreeSet<usize>,
    reasons: Vec<String>,
}

impl Tally {
    /// Counts one more operation and returns its index.
    pub fn attempt(&mut self) -> usize {
        self.attempted += 1;
        self.attempted - 1
    }

    /// Records a check on operation `op`; an `Err` fails the operation.
    pub fn check(&mut self, op: usize, result: Result<(), String>) {
        assert!(op < self.attempted, "check on an operation never attempted");
        if let Err(why) = result {
            self.failed.insert(op);
            self.reasons.push(format!("op {op}: {why}"));
        }
    }

    pub fn attempted(&self) -> usize {
        self.attempted
    }

    pub fn failed(&self) -> usize {
        self.failed.len()
    }
}

/// `Ok` when `got == want`, else a mismatch naming `what`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    want: T,
    got: T,
) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{what} mismatch: want {want:?}, got {got:?}"))
    }
}

/// A counter read by name, so a counter the engine drops disappears
/// from the report instead of breaking the benchmark.
fn counter(counters: &Counters, name: &str) -> Option<u64> {
    counters
        .iter()
        .find(|(id, _)| id.name() == name)
        .map(|(_, v)| v)
}

/// Deterministic work counters the report carries verbatim.
const WORK_COUNTERS: &[&str] = &[
    "trap_entries",
    "fast_words",
    "fast_runs",
    "traps_set",
    "traps_cleared",
    "tcache_misses",
    "page_walks",
    "miss_batch_flushes",
    "victim_memo_hits",
    "sched_replays",
    "sched_records",
    "sched_sig_misses",
    "sparse_chunks_allocated",
    "chunk_faults",
];

/// Peak resident set of this process in MB, from `VmHWM`; `None`
/// where the host has no such field.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    details: BTreeMap<&'static str, String>,
    counts: BTreeMap<String, u64>,
}

impl Report {
    pub fn new(args: &Args) -> Self {
        let mut report = Report {
            trace: args.trace,
            metrics: BTreeMap::new(),
            tally: Tally::default(),
            details: BTreeMap::new(),
            counts: BTreeMap::new(),
        };
        report.detail("workload", format!("\"{}\"", args.workload.name()));
        report.detail("seed", args.seed.to_string());
        report.detail("seconds", args.seconds.to_string());
        report.detail("trace", args.trace.to_string());
        report.detail("nproc", nproc().to_string());
        report.detail("vmhwm", peak_rss_mb().is_some().to_string());
        report
    }

    /// Sets a metric of the current run's kind; `None` leaves it
    /// absent (a ratio over zero, a percentile without enough samples).
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        assert!(
            table.iter().any(|(n, _)| *n == name),
            "{name} is not a {} metric",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.metrics.insert(name, v);
        }
    }

    /// Adds a raw JSON value to the details line.
    pub fn detail(&mut self, key: &'static str, json: String) {
        self.details.insert(key, json);
    }

    /// Records the deterministic work counters and instruction total.
    pub fn counts(&mut self, counters: &Counters, instructions: u64) {
        self.counts.insert("instructions".to_string(), instructions);
        for name in WORK_COUNTERS {
            if let Some(v) = counter(counters, name) {
                self.counts.insert((*name).to_string(), v);
            }
        }
    }

    /// Per-layer ratios over the engine's deterministic counters for
    /// `instructions` simulated refs. Each is absent when its
    /// denominator is zero or its counters no longer exist.
    pub fn set_counter_ratios(&mut self, counters: &Counters, instructions: u64) {
        let c = |name: &str| counter(counters, name).map(|v| v as f64);
        let per = |num: Option<f64>, den: Option<f64>, scale: f64| {
            num.zip(den).and_then(|(n, d)| ratio(n * scale, d))
        };
        let refs = Some(instructions as f64);
        let misses = c("trap_entries");
        let sum = |names: &[&str]| names.iter().map(|n| c(n)).sum::<Option<f64>>();
        let tc_lookups = sum(&["tcache_hits", "tcache_misses"]);
        let bursts = sum(&["sched_replays", "sched_records"]);
        self.set(
            "vm.tcache_hit_ratio",
            per(c("tcache_hits"), tc_lookups, 1.0),
        );
        self.set("vm.page_walks_per_mref", per(c("page_walks"), refs, 1e6));
        self.set(
            "trapset.traps_set_per_miss",
            per(c("traps_set"), misses, 1.0),
        );
        self.set("sim.fast_words_frac", per(c("fast_words"), refs, 1.0));
        self.set(
            "sim.words_per_fast_run",
            per(c("fast_words"), c("fast_runs"), 1.0),
        );
        self.set("tapeworm.misses_per_kref", per(misses, refs, 1e3));
        self.set(
            "tapeworm.misses_per_flush",
            per(misses, c("miss_batch_flushes"), 1.0),
        );
        self.set(
            "tapeworm.victim_memo_hit_ratio",
            per(c("victim_memo_hits"), misses, 1.0),
        );
        self.set(
            "tapeworm.sched_replay_ratio",
            per(c("sched_replays"), bursts, 1.0),
        );
        self.set(
            "tapeworm.sched_sig_miss_ratio",
            per(c("sched_sig_misses"), bursts, 1.0),
        );
        self.set("sparse.chunks_allocated", c("sparse_chunks_allocated"));
        self.set("sparse.chunk_faults", c("chunk_faults"));
    }

    /// Per-layer times from a standalone replay of one trial, against
    /// the untraced median trial of `trial_ms` milliseconds.
    pub fn set_layer_times(&mut self, layers: &LayerTimes, trial_ms: Option<f64>) {
        self.set("workload.gen_ns_per_word", Some(layers.gen_ns_per_word));
        self.set(
            "workload.gen_share",
            trial_ms.and_then(|t| ratio(layers.gen_ms, t)),
        );
        self.set("workload.zipf_ns_per_sample", Some(layers.zipf_ns));
        self.set("vm.translate_ns", Some(layers.translate_ns));
        self.set("trapset.clean_span_ns", Some(layers.clean_span_ns));
        self.set("trapset.trapped_run_ns", Some(layers.trapped_run_ns));
        self.set("tapeworm.handle_miss_ns", Some(layers.handle_miss_ns));
        self.set("tapeworm.burst_ns_per_miss", layers.burst_ns_per_miss);
        self.set(
            "sim.unattributed_ms",
            trial_ms.map(|t| t - layers.attributed_ms()),
        );
    }

    fn details_line(&self) -> String {
        let mut out = String::from("{\"details\": {");
        for (key, json) in &self.details {
            let _ = write!(out, "\"{key}\": {json}, ");
        }
        let attempted = self.tally.attempted();
        let failed_frac = if attempted == 0 {
            "null".to_string()
        } else {
            (self.tally.failed() as f64 / attempted as f64).to_string()
        };
        let _ = write!(out, "\"failed_frac\": {failed_frac}, \"failures\": [");
        for (i, why) in self.tally.reasons.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\"",
                why.replace('\\', "\\\\").replace('"', "'")
            );
        }
        out.push_str("], \"counts\": {");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {v}");
        }
        out.push_str("}}}");
        out
    }

    /// The last line: the result object the contract reads.
    fn result_line(&self) -> String {
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (name, unit) in table {
            if let Some(v) = self.metrics.get(name) {
                let sep = if metrics.is_empty() { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.failed() == 0 && self.tally.attempted() > 0,
            self.tally.attempted(),
            self.tally.failed(),
        )
    }

    pub fn print(&self) {
        println!("{}", self.details_line());
        println!("{}", self.result_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn args(trace: bool) -> Args {
        Args {
            workload: Workload::Service,
            seed: 1,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn output_check_mismatch_counts_as_failure() {
        let mut tally = Tally::default();
        let a = tally.attempt();
        let b = tally.attempt();
        tally.check(
            a,
            expect_eq("digest", 0x2791_1846_7b9c_2732_u64, 0x2791_1846_7b9c_2732),
        );
        assert_eq!(tally.failed(), 0);
        tally.check(b, expect_eq("digest", 1u64, 2));
        // A second failed check on the same operation fails it once.
        tally.check(b, Err("trial result differs from the oracle".to_string()));
        assert_eq!((tally.attempted(), tally.failed()), (2, 1));
    }

    #[test]
    fn result_line_reports_failures_and_skips_absent_metrics() {
        let mut report = Report::new(&args(false));
        let op = report.tally.attempt();
        report.set("job_ms.p50", Some(12.5));
        report.set("job_ms.p90", None);
        report.set("refs_per_sec", Some(f64::NAN));
        report
            .tally
            .check(op, Err("sink digest differs".to_string()));
        let line = report.result_line();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": \
             {\"job_ms.p50\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
        );
        assert!(report.details_line().contains("\"failed_frac\": 1,"));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn metrics_are_checked_against_the_run_kind() {
        Report::new(&args(true)).set("job_ms.p50", Some(1.0));
    }

    #[test]
    fn counters_are_read_by_name() {
        let mut c = Counters::new();
        c.add(tapeworm_obs::CounterId::SchedReplays, 7);
        assert_eq!(counter(&c, "sched_replays"), Some(7));
        assert_eq!(counter(&c, "no_such_counter"), None);
    }

    /// BENCHMARK.json lists exactly the metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("quoted")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), table(END_TO_END));
        assert_eq!(section("per_layer"), table(PER_LAYER));
    }
}
