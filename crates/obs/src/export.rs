//! METRICS.json export and crash-safe artifact writing.
//!
//! The bench binaries publish their observability data as
//! `results/METRICS.json` so CI can gate on it. The schema
//! (`tapeworm-metrics-v1`) is flat and hand-rolled — the workspace
//! builds offline with no serde — and every field is emitted in a
//! fixed order from deterministic integer counters, so the file is
//! byte-identical across runs with the same seed and any
//! `TW_THREADS` setting.
//!
//! ```json
//! {
//!   "schema": "tapeworm-metrics-v1",
//!   "source": "perf_throughput",
//!   "mode": "smoke",
//!   "per_config": [
//!     {
//!       "config": "cache-4k",
//!       "trials": 3,
//!       "counters": { "trap_entries": 0, ... },
//!       "phases": { "user": 0, "kernel": 0, "handler": 0, "replacement": 0 },
//!       "dilation": 1.000000,
//!       "slowdown": 0.000000,
//!       "trap_events": { "recorded": 0, "dropped": 0 }
//!     }
//!   ],
//!   "totals": { "counters": ..., "phases": ..., "dilation": ..., "slowdown": ..., "trap_events": ... }
//! }
//! ```
//!
//! Artifacts are written with [`write_atomic`]: the bytes go to a
//! `.tmp` sibling first and are renamed into place, so a run that
//! dies mid-write can never leave CI with a truncated or missing
//! file.

use std::fs;
use std::io;
use std::path::Path;

use crate::{CounterId, Phase, TrialMetrics};

/// Schema identifier stamped into every METRICS.json.
pub const METRICS_SCHEMA: &str = "tapeworm-metrics-v1";

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, then rename. Creates the parent directory if needed.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    fs::write(tmp, contents)?;
    fs::rename(tmp, path)
}

/// A METRICS.json document under construction: one named
/// [`TrialMetrics`] entry per configuration, rendered with
/// [`MetricsReport::to_json`].
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    source: String,
    mode: String,
    configs: Vec<(String, u64, TrialMetrics)>,
}

impl MetricsReport {
    /// A report for `source` (the emitting binary) running in `mode`
    /// (e.g. `"smoke"` or `"full"`).
    pub fn new(source: &str, mode: &str) -> Self {
        MetricsReport {
            source: source.to_string(),
            mode: mode.to_string(),
            configs: Vec::new(),
        }
    }

    /// Appends one configuration's merged metrics.
    pub fn push(&mut self, config: &str, trials: u64, metrics: TrialMetrics) {
        self.configs.push((config.to_string(), trials, metrics));
    }

    /// Number of configurations recorded so far.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether no configurations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Grand total across every configuration.
    pub fn totals(&self) -> TrialMetrics {
        let mut total = TrialMetrics::new();
        for (_, _, m) in &self.configs {
            total.merge(m);
        }
        total
    }

    /// Renders the `tapeworm-metrics-v1` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
        out.push_str(&format!("  \"source\": \"{}\",\n", escape(&self.source)));
        out.push_str(&format!("  \"mode\": \"{}\",\n", escape(&self.mode)));
        out.push_str("  \"per_config\": [\n");
        for (i, (name, trials, metrics)) in self.configs.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"config\": \"{}\",\n", escape(name)));
            out.push_str(&format!("      \"trials\": {trials},\n"));
            push_metrics_fields(&mut out, metrics, "      ");
            out.push_str("    }");
            if i + 1 < self.configs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"totals\": {\n");
        push_metrics_fields(&mut out, &self.totals(), "    ");
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Renders and writes the document atomically.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }
}

/// Renders the counters registry as one inline JSON object.
fn counters_object(metrics: &TrialMetrics) -> String {
    let mut out = String::from("{ ");
    for (i, id) in CounterId::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", id.name(), metrics.counters.get(id)));
    }
    out.push_str(" }");
    out
}

/// Renders the phase-cycle account as one inline JSON object.
fn phases_object(metrics: &TrialMetrics) -> String {
    let mut out = String::from("{ ");
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {}",
            phase.name(),
            metrics.phases.get(phase)
        ));
    }
    out.push_str(" }");
    out
}

/// The shared `counters`/`phases`/`dilation`/`slowdown`/`trap_events`
/// block used by both per-config entries and the totals object.
fn push_metrics_fields(out: &mut String, metrics: &TrialMetrics, indent: &str) {
    out.push_str(&format!(
        "{indent}\"counters\": {},\n",
        counters_object(metrics)
    ));
    out.push_str(&format!(
        "{indent}\"phases\": {},\n",
        phases_object(metrics)
    ));
    out.push_str(&format!(
        "{indent}\"dilation\": {:.6},\n",
        metrics.phases.dilation()
    ));
    out.push_str(&format!(
        "{indent}\"slowdown\": {:.6},\n",
        metrics.phases.slowdown()
    ));
    out.push_str(&format!(
        "{indent}\"trap_events\": {{ \"recorded\": {}, \"dropped\": {} }}\n",
        metrics.events_recorded, metrics.events_dropped
    ));
}

/// Renders the `tapeworm-metrics-v1` field block — `counters`,
/// `phases`, `dilation`, `slowdown`, `trap_events` — as a single-line
/// JSON fragment without surrounding braces, for embedding in JSONL
/// records (the server run sink's per-configuration metrics lines).
/// Field order and number formatting match
/// [`MetricsReport::to_json`]'s, so schema validators treat both alike.
pub fn metrics_json_fields(metrics: &TrialMetrics) -> String {
    format!(
        "\"counters\": {}, \"phases\": {}, \"dilation\": {:.6}, \"slowdown\": {:.6}, \
         \"trap_events\": {{ \"recorded\": {}, \"dropped\": {} }}",
        counters_object(metrics),
        phases_object(metrics),
        metrics.phases.dilation(),
        metrics.phases.slowdown(),
        metrics.events_recorded,
        metrics.events_dropped
    )
}

/// Escapes `s` for embedding in a JSON string: quotes, backslashes and
/// control characters. The one escape rule of every JSON the workspace
/// writes by hand.
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("tapeworm-obs-test-atomic");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("artifact.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "temp file must not survive the rename");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_json_has_all_schema_keys() {
        let mut report = MetricsReport::new("perf_throughput", "smoke");
        let mut metrics = TrialMetrics::new();
        metrics.counters.add(CounterId::TrapEntries, 42);
        metrics.phases.add(Phase::User, 1000);
        metrics.phases.add(Phase::Handler, 500);
        metrics.events_recorded = 42;
        report.push("cache-4k", 3, metrics);

        let json = report.to_json();
        for key in [
            "\"schema\": \"tapeworm-metrics-v1\"",
            "\"source\": \"perf_throughput\"",
            "\"mode\": \"smoke\"",
            "\"per_config\"",
            "\"config\": \"cache-4k\"",
            "\"trials\": 3",
            "\"trap_entries\": 42",
            "\"user\": 1000",
            "\"handler\": 500",
            "\"dilation\": 1.500000",
            "\"slowdown\": 0.500000",
            "\"trap_events\": { \"recorded\": 42, \"dropped\": 0 }",
            "\"totals\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn totals_merge_every_config() {
        let mut report = MetricsReport::new("sweep", "full");
        for k in 1..=3u64 {
            let mut m = TrialMetrics::new();
            m.counters.add(CounterId::PageWalks, k);
            m.phases.add(Phase::Kernel, k * 10);
            report.push(&format!("cfg-{k}"), 1, m);
        }
        let totals = report.totals();
        assert_eq!(totals.counters.get(CounterId::PageWalks), 6);
        assert_eq!(totals.phases.get(Phase::Kernel), 60);
        assert_eq!(report.len(), 3);
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
