//! The JSONL run sink and the service result digest.
//!
//! Every completed job streams to `result.jsonl`
//! (`tapeworm-server-run-v1`): a header line with the job's identity
//! and provenance (including the `from_cache` tag), one line per trial
//! carrying the bit-exact `tapeworm-checkpoint-v1` record, one
//! `tapeworm-metrics-v1` line per configuration with the merged
//! counters/phases/dilation block, and a digest footer.
//!
//! The digest is the service's determinism pin: the workspace hash
//! [`fnv1a`] (FNV-1a's loop with a non-standard multiplier, see its
//! doc) over the frozen-v1 checkpoint record lines, each
//! `encode_outcome_digest_v1(i, o)` followed by `\n`, for every cell
//! in index order. Because every backend funnels its outcomes through
//! the same codec, the digest is bit-identical across backends, thread
//! counts, checkpoint resume, and cached-vs-fresh serving — and
//! independent of presentation details like the job ID in the header
//! and of counters appended to the registry after the digest encoding
//! was frozen.

use std::io;
use std::path::Path;

use tapeworm_obs::{metrics_json_fields, write_atomic, METRICS_SCHEMA};
use tapeworm_sim::{
    encode_outcome, encode_outcome_digest_v1, fnv1a, PlannedCell, PlannedOutcome, TrialOutcome,
    TrialSummary,
};

/// Schema identifier stamped into every run-sink header.
pub const RUN_SCHEMA: &str = "tapeworm-server-run-v1";

/// Provenance fields for a sink header line.
#[derive(Debug, Clone)]
pub struct SinkHeader<'a> {
    /// Queue job ID rendered as the job directory name.
    pub job: &'a str,
    /// Spec name.
    pub spec: &'a str,
    /// Service-level fingerprint (the cache key).
    pub fingerprint: u64,
    /// Backend that produced the outcomes (`"cache"` for a hit).
    pub backend: &'a str,
    /// Whether the outcomes were served from the fingerprint cache.
    pub from_cache: bool,
    /// Worker threads requested (presentation only; never affects the
    /// digest).
    pub threads: usize,
    /// Configurations in the grid.
    pub configs: usize,
    /// Trials per configuration.
    pub trials: usize,
    /// Effective execution plan (`"full"` or `"pruned"`, after
    /// [`ServiceOptions::plan_override`](crate::ServiceOptions::plan_override)).
    pub plan: &'a str,
}

/// The deterministic service digest over an outcome vector. Hashes the
/// *frozen* v1 record encoding (`encode_outcome_digest_v1`: the first
/// fifteen counter slots, the registry size when the golden digest was
/// pinned) so counters appended to the live registry widen the
/// rendered trial records without moving any pinned digest.
pub fn digest_outcomes(outcomes: &[TrialOutcome]) -> u64 {
    let mut doc = String::new();
    for (index, outcome) in outcomes.iter().enumerate() {
        doc.push_str(&encode_outcome_digest_v1(index, outcome));
        doc.push('\n');
    }
    fnv1a(doc.as_bytes())
}

/// The deterministic digest over explicitly indexed outcomes — the
/// pruned-sweep counterpart of [`digest_outcomes`], hashing exactly the
/// trap-simulated (ground-truth) cells at their true global indices.
/// Interpolated estimates never reach this function, so they can never
/// be folded into a digest as ground truth. On a full index cover this
/// equals [`digest_outcomes`] bit for bit.
pub fn digest_indexed_outcomes(outcomes: &[(usize, TrialOutcome)]) -> u64 {
    let mut doc = String::new();
    for (index, outcome) in outcomes {
        doc.push_str(&encode_outcome_digest_v1(*index, outcome));
        doc.push('\n');
    }
    fnv1a(doc.as_bytes())
}

fn header_line(header: &SinkHeader<'_>) -> String {
    format!(
        "{{\"schema\": \"{RUN_SCHEMA}\", \"job\": \"{}\", \"spec\": \"{}\", \
         \"fingerprint\": \"0x{:016x}\", \"backend\": \"{}\", \"from_cache\": {}, \
         \"threads\": {}, \"configs\": {}, \"trials\": {}, \"plan\": \"{}\"}}\n",
        header.job,
        header.spec,
        header.fingerprint,
        header.backend,
        header.from_cache,
        header.threads,
        header.configs,
        header.trials,
        header.plan,
    )
}

fn trial_line(index: usize, trials: usize, outcome: &TrialOutcome) -> String {
    let record = encode_outcome(index, outcome);
    // Splice the config/trial coordinates ahead of the canonical
    // record fields: `{"index": ...}` → `{"record": "trial",
    // "config": c, "trial": t, "index": ...}`. Pruned sinks reuse this
    // verbatim, so a pruned trial line is bit-identical to the full
    // sink's line at the same global index.
    format!(
        "{{\"record\": \"trial\", \"config\": {}, \"trial\": {}, {}\n",
        index / trials,
        index % trials,
        &record[1..],
    )
}

/// Renders the full `tapeworm-server-run-v1` document, returning it
/// with its digest.
pub fn render(
    header: &SinkHeader<'_>,
    outcomes: &[TrialOutcome],
    cells: &[TrialSummary],
    failed: usize,
) -> (String, u64) {
    let digest = digest_outcomes(outcomes);
    let mut out = String::with_capacity(256 * (outcomes.len() + cells.len() + 2));
    out.push_str(&header_line(header));
    let trials = header.trials.max(1);
    for (index, outcome) in outcomes.iter().enumerate() {
        out.push_str(&trial_line(index, trials, outcome));
    }
    for (config, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "{{\"record\": \"metrics\", \"schema\": \"{METRICS_SCHEMA}\", \"config\": {config}, \
             \"trials\": {}, {}}}\n",
            cell.results().len(),
            metrics_json_fields(cell.metrics()),
        ));
    }
    out.push_str(&format!(
        "{{\"record\": \"digest\", \"committed\": {}, \"failed\": {failed}, \
         \"digest\": \"0x{digest:016x}\"}}\n",
        outcomes.len(),
    ));
    (out, digest)
}

/// Renders and atomically writes the sink, returning the digest.
///
/// # Errors
///
/// Propagates the atomic-write failure.
pub fn write(
    path: &Path,
    header: &SinkHeader<'_>,
    outcomes: &[TrialOutcome],
    cells: &[TrialSummary],
    failed: usize,
) -> io::Result<u64> {
    let (doc, digest) = render(header, outcomes, cells, failed);
    write_atomic(path, doc.as_bytes())?;
    Ok(digest)
}

/// Renders a pruned (planner-driven) run document. Trial lines are
/// emitted only for trap-simulated cells, bit-identical to the full
/// sink's lines at the same global indices; every configuration gets a
/// `cell` record carrying its provenance (`estimated: true` plus the
/// model fields for interpolated cells); metrics lines cover simulated
/// cells only; a `planner` record carries the sweep-level counters; and
/// the digest footer hashes exactly the simulated outcomes
/// ([`digest_indexed_outcomes`]) — an estimate can never enter the
/// digest.
pub fn render_planned(header: &SinkHeader<'_>, outcome: &PlannedOutcome) -> (String, u64) {
    let simulated = outcome.simulated_outcomes();
    let digest = digest_indexed_outcomes(simulated);
    let trials = header.trials.max(1);
    let mut out = String::with_capacity(256 * (simulated.len() + 2 * outcome.cells().len() + 3));
    out.push_str(&header_line(header));
    for (index, o) in simulated {
        out.push_str(&trial_line(*index, trials, o));
    }
    for (config, cell) in outcome.cells().iter().enumerate() {
        match cell {
            PlannedCell::Simulated {
                summary,
                trials_run,
                early_stop,
            } => {
                let ci = match early_stop {
                    Some(ci) => format!(
                        ", \"ci_half_width\": {}, \"ci_confidence\": {}",
                        ci.half_width, ci.confidence
                    ),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{{\"record\": \"cell\", \"config\": {config}, \
                     \"provenance\": \"simulated\", \"estimated\": false, \
                     \"trials_run\": {trials_run}, \"early_stop\": {}{ci}, \
                     \"misses_mean\": {}}}\n",
                    early_stop.is_some(),
                    summary.misses().mean(),
                ));
            }
            PlannedCell::Interpolated(e) => {
                out.push_str(&format!(
                    "{{\"record\": \"cell\", \"config\": {config}, \
                     \"provenance\": \"interpolated\", \"estimated\": true, \
                     \"model\": \"kessler-v1\", \"left\": {}, \"right\": {}, \
                     \"misses_mean\": {}, \"slowdown_mean\": {}, \"miss_bound\": {}, \
                     \"conflict_probability\": {}}}\n",
                    e.left, e.right, e.misses, e.slowdown, e.miss_bound, e.conflict_probability,
                ));
            }
        }
    }
    for (config, cell) in outcome.cells().iter().enumerate() {
        if let PlannedCell::Simulated { summary, .. } = cell {
            out.push_str(&format!(
                "{{\"record\": \"metrics\", \"schema\": \"{METRICS_SCHEMA}\", \
                 \"config\": {config}, \"trials\": {}, \"provenance\": \"simulated\", \
                 \"estimated\": false, {}}}\n",
                summary.results().len(),
                metrics_json_fields(summary.metrics()),
            ));
        }
    }
    out.push_str(&format!(
        "{{\"record\": \"planner\", \"plan\": \"{}\", \"cells_simulated\": {}, \
         \"cells_interpolated\": {}, \"trials_saved\": {}, \"ci_early_stops\": {}}}\n",
        outcome.mode().name(),
        outcome.cells_simulated(),
        outcome.cells_interpolated(),
        outcome.trials_saved(),
        outcome.ci_early_stops(),
    ));
    out.push_str(&format!(
        "{{\"record\": \"digest\", \"committed\": {}, \"failed\": {}, \
         \"digest\": \"0x{digest:016x}\"}}\n",
        simulated.len(),
        outcome.failed().len(),
    ));
    (out, digest)
}

/// Renders and atomically writes a pruned run sink, returning the
/// digest over the simulated outcomes.
///
/// # Errors
///
/// Propagates the atomic-write failure.
pub fn write_planned(
    path: &Path,
    header: &SinkHeader<'_>,
    outcome: &PlannedOutcome,
) -> io::Result<u64> {
    let (doc, digest) = render_planned(header, outcome);
    write_atomic(path, doc.as_bytes())?;
    Ok(digest)
}

/// Extracts the digest from a rendered sink document (the footer's
/// `digest` field), for gates that only have the file.
pub fn read_digest(doc: &str) -> Option<u64> {
    let line = doc
        .lines()
        .rev()
        .find(|l| l.contains("\"record\": \"digest\""))?;
    let hex = crate::wire::field(line, "digest")?.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendOptions, InProcessBackend, WorkerBackend};
    use crate::spec::SweepPlan;
    use tapeworm_sim::fold_outcomes;

    const SPEC: &str = "name = \"sink-demo\"\ntrials = 2\nscale = 20000\n\
                        workloads = [\"eqntott\"]\ncache_kb = [1, 2]\n";

    #[test]
    fn sink_document_carries_schema_records_and_recoverable_digest() {
        let plan = SweepPlan::resolve(SPEC).unwrap();
        let run = InProcessBackend
            .run(&plan, &BackendOptions::default())
            .unwrap();
        let (cells, failed) = fold_outcomes(plan.trials(), run.outcomes.clone());
        let header = SinkHeader {
            job: "000001",
            spec: &plan.spec().name,
            fingerprint: plan.fingerprint(),
            backend: "in-process",
            from_cache: false,
            threads: 1,
            configs: plan.configs().len(),
            trials: plan.trials(),
            plan: "full",
        };
        let (doc, digest) = render(&header, &run.outcomes, &cells, failed.len());
        assert_eq!(digest, digest_outcomes(&run.outcomes));
        assert_eq!(read_digest(&doc), Some(digest));

        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 1 + plan.total() + plan.configs().len() + 1);
        assert!(lines[0].contains(&format!("\"schema\": \"{RUN_SCHEMA}\"")));
        assert!(lines[0].contains("\"from_cache\": false"));
        assert!(lines[1].contains("\"record\": \"trial\""));
        assert!(lines[1].contains("\"config\": 0, \"trial\": 0, \"index\": 0"));
        assert!(lines[2].contains("\"config\": 0, \"trial\": 1, \"index\": 1"));
        assert!(lines[3].contains("\"config\": 1, \"trial\": 0, \"index\": 2"));
        let metrics_line = lines[1 + plan.total()];
        for key in [
            "\"schema\": \"tapeworm-metrics-v1\"",
            "\"counters\"",
            "\"phases\"",
            "\"dilation\"",
            "\"slowdown\"",
            "\"trap_events\"",
        ] {
            assert!(
                metrics_line.contains(key),
                "missing {key} in {metrics_line}"
            );
        }
    }

    #[test]
    fn digest_ignores_presentation_but_pins_every_outcome_bit() {
        let plan = SweepPlan::resolve(SPEC).unwrap();
        let run = InProcessBackend
            .run(&plan, &BackendOptions::default())
            .unwrap();
        let (cells, _) = fold_outcomes(plan.trials(), run.outcomes.clone());
        let header_a = SinkHeader {
            job: "000001",
            spec: "sink-demo",
            fingerprint: plan.fingerprint(),
            backend: "in-process",
            from_cache: false,
            threads: 1,
            configs: 2,
            trials: 2,
            plan: "full",
        };
        let header_b = SinkHeader {
            job: "999999",
            backend: "cache",
            from_cache: true,
            threads: 8,
            ..header_a.clone()
        };
        let (_, a) = render(&header_a, &run.outcomes, &cells, 0);
        let (_, b) = render(&header_b, &run.outcomes, &cells, 0);
        assert_eq!(a, b, "presentation fields must not move the digest");

        // Any outcome bit moving moves the digest.
        let mut bent = run.outcomes.clone();
        if let Some(Ok((result, _))) = bent.first().cloned() {
            let mut metrics_bent = bent[0].clone().unwrap().1;
            metrics_bent.events_recorded += 1;
            bent[0] = Ok((result, metrics_bent));
        }
        assert_ne!(digest_outcomes(&run.outcomes), digest_outcomes(&bent));
    }
}
