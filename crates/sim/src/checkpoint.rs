//! Versioned sweep checkpoints: serialize the committed prefix, resume
//! bit-identically.
//!
//! The deterministic committer releases `(config, trial)` cells
//! strictly in index order, so a sweep's progress is always a
//! contiguous prefix `0..k` of committed trials. The checkpoint file
//! (`results/CHECKPOINT.json` by convention, schema
//! [`CHECKPOINT_SCHEMA`]) stores exactly that prefix: one record per
//! committed trial, every float as raw IEEE-754 bits in hex `u64`
//! words, so a resumed sweep replays the prefix **bit-identically** —
//! for any `TW_THREADS` — and only computes the remaining cells.
//!
//! The file is rewritten in full every `interval` commits through the
//! observability layer's [`write_atomic`](tapeworm_obs::write_atomic)
//! (temp file + rename), so a run killed mid-write can never leave a
//! truncated checkpoint behind: on restart the previous complete
//! prefix is still there.
//!
//! A checkpoint is only trusted when its `sweep_id` — a fingerprint of
//! the configurations, trial count and base seed — matches the resuming
//! sweep. A stale or foreign file is reported and ignored, never
//! silently merged.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use tapeworm_obs::{CounterId, Phase, TrapEvent, TrapKind, TrialMetrics};
use tapeworm_stats::trials::{FailureKind, TrialFailure};
use tapeworm_stats::SeedSeq;

use crate::codec::{field, field_usize, fnv1a, hex_decode, hex_encode};
use crate::config::SystemConfig;
use crate::result::TrialResult;

/// Schema identifier stamped into every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "tapeworm-checkpoint-v1";

/// Where, how often, and whether to resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint file path. `results/CHECKPOINT.json` by convention.
    pub path: PathBuf,
    /// Commits between rewrites (min 1). The file always holds a
    /// complete committed prefix.
    pub interval: usize,
    /// Load the file at startup and skip its committed prefix.
    pub resume: bool,
    /// Stop scheduling after this many total commits — deterministic
    /// stand-in for a mid-run kill, used by the chaos harness.
    pub stop_after: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpointing to `path`, every 16 commits, no resume.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            interval: 16,
            resume: false,
            stop_after: None,
        }
    }

    /// Sets the rewrite interval (clamped to at least 1).
    pub fn with_interval(mut self, interval: usize) -> Self {
        self.interval = interval.max(1);
        self
    }

    /// Enables resuming from an existing checkpoint.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Simulates a kill after `commits` total commits.
    pub fn with_stop_after(mut self, commits: usize) -> Self {
        self.stop_after = Some(commits);
        self
    }
}

impl Default for CheckpointConfig {
    /// The conventional location: `results/CHECKPOINT.json`.
    fn default() -> Self {
        CheckpointConfig::new("results/CHECKPOINT.json")
    }
}

/// The terminal outcome of one `(config, trial)` cell: the bit-exact
/// result and metrics on success, the retry-exhausted failure
/// otherwise. This is the unit the checkpoint codec serializes, the
/// sweep committer releases, and the server's worker backends ship
/// over the wire.
pub type TrialOutcome = Result<(TrialResult, TrialMetrics), TrialFailure>;

/// One committed trial as stored in (or loaded from) a checkpoint.
pub(crate) type StoredOutcome = TrialOutcome;

/// A parsed checkpoint document.
pub(crate) struct CheckpointDoc {
    pub sweep_id: u64,
    pub total: usize,
    /// Committed prefix outcomes, in index order `0..records.len()`.
    pub records: Vec<StoredOutcome>,
}

/// What loading a checkpoint file produced.
pub(crate) enum LoadResult {
    /// No file at the path.
    Missing,
    /// A file exists but is unreadable, unparseable or inconsistent.
    Corrupt,
    /// A well-formed document (identity still unchecked).
    Doc(CheckpointDoc),
}

/// Fingerprint tying a checkpoint to one exact sweep: configurations,
/// trial count and base seed — everything that determines the committed
/// values except the worker thread count, which must NOT participate
/// (resume has to work across thread counts). The server layer extends
/// this fingerprint into its result-cache key.
pub fn sweep_fingerprint(configs: &[SystemConfig], trials: usize, base: SeedSeq) -> u64 {
    fnv1a(format!("{configs:?}|trials={trials}|seed={:x}", base.value()).as_bytes())
}

/// Counter slots in the *frozen* v1 digest encoding. The service
/// digest (`digest_outcomes`) hashes outcome records rendered with
/// exactly this many leading counter slots — the registry size at the
/// moment the golden digest was pinned — so appending counters to
/// [`CounterId::ALL`] widens the live checkpoint/wire codec without
/// moving any golden digest. Never change this value.
pub const DIGEST_COUNTERS_V1: usize = 15;

fn encode_metrics_slots(m: &TrialMetrics, out: &mut Vec<u64>, slots: usize) {
    out.push(slots as u64);
    out.extend(
        CounterId::ALL
            .iter()
            .take(slots)
            .map(|&id| m.counters.get(id)),
    );
    out.push(Phase::ALL.len() as u64);
    out.extend(Phase::ALL.iter().map(|&p| m.phases.get(p)));
    out.push(m.events_recorded);
    out.push(m.events_dropped);
    out.push(m.events.len() as u64);
    for ev in &m.events {
        let kind = match ev.kind {
            TrapKind::IFetch => 0,
            TrapKind::Data => 1,
            TrapKind::Tlb => 2,
        };
        let (has_victim, victim) = match ev.victim {
            Some(v) => (1, v),
            None => (0, 0),
        };
        out.extend([
            ev.cycle,
            u64::from(ev.tid),
            ev.vpn,
            kind,
            has_victim,
            victim,
        ]);
    }
}

fn decode_metrics<I: Iterator<Item = u64>>(words: &mut I) -> Option<TrialMetrics> {
    let mut m = TrialMetrics::new();
    if words.next()? != CounterId::ALL.len() as u64 {
        return None; // written by a different registry layout
    }
    for id in CounterId::ALL {
        m.counters.add(id, words.next()?);
    }
    if words.next()? != Phase::ALL.len() as u64 {
        return None;
    }
    for p in Phase::ALL {
        m.phases.add(p, words.next()?);
    }
    m.events_recorded = words.next()?;
    m.events_dropped = words.next()?;
    let n_events = usize::try_from(words.next()?).ok()?;
    for _ in 0..n_events {
        let cycle = words.next()?;
        let tid = u16::try_from(words.next()?).ok()?;
        let vpn = words.next()?;
        let kind = match words.next()? {
            0 => TrapKind::IFetch,
            1 => TrapKind::Data,
            2 => TrapKind::Tlb,
            _ => return None,
        };
        let has_victim = words.next()?;
        let victim_value = words.next()?;
        m.events.push(TrapEvent {
            cycle,
            tid,
            vpn,
            kind,
            victim: (has_victim == 1).then_some(victim_value),
        });
    }
    Some(m)
}

fn hex_words(words: &[u64]) -> String {
    let mut s = String::with_capacity(words.len() * 9);
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{w:x}");
    }
    s
}

fn parse_hex_words(s: &str) -> Option<Vec<u64>> {
    s.split_whitespace()
        .map(|w| u64::from_str_radix(w, 16).ok())
        .collect()
}

/// Renders one committed trial as a single record line.
pub(crate) fn encode_record(index: usize, outcome: &StoredOutcome) -> String {
    encode_record_slots(index, outcome, CounterId::ALL.len())
}

fn encode_record_slots(index: usize, outcome: &StoredOutcome, slots: usize) -> String {
    match outcome {
        Ok((result, metrics)) => {
            let mut words = Vec::new();
            result.encode_words(&mut words);
            encode_metrics_slots(metrics, &mut words, slots);
            format!("{{\"index\": {index}, \"ok\": \"{}\"}}", hex_words(&words))
        }
        Err(failure) => {
            let (tag, message) = match &failure.kind {
                FailureKind::Panic(m) => ("panic", m),
                FailureKind::Error(m) => ("error", m),
            };
            format!(
                "{{\"index\": {index}, \"failed\": {{\"attempts\": {}, \"backoff\": \"{:x}\", \
                 \"kind\": \"{tag}\", \"message\": \"{}\"}}}}",
                failure.attempts,
                failure.backoff_units,
                hex_encode(message)
            )
        }
    }
}

fn decode_record(line: &str) -> Option<(usize, StoredOutcome)> {
    let index = field_usize(line, "index")?;
    if let Some(words) = field(line, "ok") {
        let words = parse_hex_words(words)?;
        let mut it = words.into_iter();
        let result = TrialResult::decode_words(&mut it)?;
        let metrics = decode_metrics(&mut it)?;
        if it.next().is_some() {
            return None; // trailing words: layout mismatch
        }
        return Some((index, Ok((result, metrics))));
    }
    if line.contains("\"failed\"") {
        let attempts = field_usize(line, "attempts")?.try_into().ok()?;
        let backoff_units = u64::from_str_radix(field(line, "backoff")?, 16).ok()?;
        let message = hex_decode(field(line, "message")?)?;
        let kind = match field(line, "kind")? {
            "panic" => FailureKind::Panic(message),
            "error" => FailureKind::Error(message),
            _ => return None,
        };
        return Some((
            index,
            Err(TrialFailure {
                index,
                attempts,
                backoff_units,
                kind,
            }),
        ));
    }
    None
}

/// Renders the whole checkpoint document from pre-encoded record lines.
pub(crate) fn render(sweep_id: u64, total: usize, record_lines: &[String]) -> String {
    let mut out = String::with_capacity(256 + record_lines.iter().map(String::len).sum::<usize>());
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{CHECKPOINT_SCHEMA}\",");
    let _ = writeln!(out, "  \"sweep_id\": \"{sweep_id:x}\",");
    let _ = writeln!(out, "  \"total\": {total},");
    let _ = writeln!(out, "  \"committed\": {},", record_lines.len());
    out.push_str("  \"records\": [\n");
    for (i, line) in record_lines.iter().enumerate() {
        out.push_str("    ");
        out.push_str(line);
        if i + 1 < record_lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Loads and parses a checkpoint file. Identity (`sweep_id`, `total`)
/// is for the caller to verify.
pub(crate) fn load(path: &Path) -> LoadResult {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadResult::Missing,
        Err(_) => return LoadResult::Corrupt,
    };
    if !text.contains(&format!("\"schema\": \"{CHECKPOINT_SCHEMA}\"")) {
        return LoadResult::Corrupt;
    }
    let Some(sweep_id) = field(&text, "sweep_id").and_then(|s| u64::from_str_radix(s, 16).ok())
    else {
        return LoadResult::Corrupt;
    };
    let Some(total) = field(&text, "total") else {
        return LoadResult::Corrupt;
    };
    let Ok(total) = total.parse::<usize>() else {
        return LoadResult::Corrupt;
    };
    let Some(committed) = text.lines().find_map(|l| {
        l.trim_start()
            .starts_with("\"committed\"")
            .then(|| field_usize(l, "committed"))
            .flatten()
    }) else {
        return LoadResult::Corrupt;
    };

    let mut records = Vec::with_capacity(committed);
    for line in text.lines() {
        if !line.contains("\"index\"") {
            continue;
        }
        let Some((index, outcome)) = decode_record(line) else {
            return LoadResult::Corrupt;
        };
        // The committer releases strictly in index order, so a valid
        // checkpoint is always the contiguous prefix 0..k.
        if index != records.len() {
            return LoadResult::Corrupt;
        }
        records.push(outcome);
    }
    if records.len() != committed || committed > total {
        return LoadResult::Corrupt;
    }
    LoadResult::Doc(CheckpointDoc {
        sweep_id,
        total,
        records,
    })
}

/// Encodes one committed trial outcome as a single self-contained
/// `tapeworm-checkpoint-v1` record line. Floats travel as raw IEEE-754
/// bits, so `decode_outcome(encode_outcome(i, o))` is bit-exact — the
/// property the server's wire protocol and fingerprint cache rely on.
pub fn encode_outcome(index: usize, outcome: &TrialOutcome) -> String {
    encode_record(index, outcome)
}

/// Renders one outcome with the frozen [`DIGEST_COUNTERS_V1`] counter
/// prefix — the encoding the service digest hashes. Byte-identical to
/// what [`encode_outcome`] produced when the registry held exactly
/// fifteen counters, and immune to counters appended since; not meant
/// to be decoded.
pub fn encode_outcome_digest_v1(index: usize, outcome: &TrialOutcome) -> String {
    encode_record_slots(index, outcome, DIGEST_COUNTERS_V1)
}

/// Inverse of [`encode_outcome`]. Accepts any line carrying the record
/// fields (extra fields are ignored), returning `None` on a malformed
/// or layout-mismatched line.
pub fn decode_outcome(line: &str) -> Option<(usize, TrialOutcome)> {
    decode_record(line)
}

/// Persists a committed prefix (or a complete run) of `total` outcomes
/// as a `tapeworm-checkpoint-v1` document under identity `sweep_id`,
/// atomically. The server's subprocess backend checkpoints through
/// this; the fingerprint cache stores complete runs the same way.
///
/// # Errors
///
/// Propagates the underlying atomic-write failure.
pub fn save_outcomes(
    path: &Path,
    sweep_id: u64,
    total: usize,
    outcomes: &[TrialOutcome],
) -> io::Result<()> {
    let lines: Vec<String> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| encode_record(i, o))
        .collect();
    tapeworm_obs::write_atomic(path, render(sweep_id, total, &lines).as_bytes())
}

/// Loads a committed prefix previously written by [`save_outcomes`] (or
/// by the sweep engine's periodic checkpointing). Returns `None` when
/// the file is missing, corrupt, or belongs to a different identity —
/// a stale document is never silently merged.
pub fn load_outcomes(path: &Path, sweep_id: u64, total: usize) -> Option<Vec<TrialOutcome>> {
    match load(path) {
        LoadResult::Doc(doc) if doc.sweep_id == sweep_id && doc.total == total => Some(doc.records),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeworm_obs::write_atomic;

    fn sample_outcomes() -> Vec<StoredOutcome> {
        let result = TrialResult::new(
            [10.5, 0.25, -0.0, 3.0e-12],
            [10, 2, 0, u64::MAX],
            Some([1.0, 2.0, 3.0, 4.0]),
            None,
            1,
            1000,
            1700,
            24600,
            3,
            1,
            7,
            2,
        );
        let mut metrics = TrialMetrics::new();
        metrics.counters.add(CounterId::TrapEntries, 42);
        metrics.counters.add(CounterId::SchedQuanta, 7);
        metrics.phases.add(Phase::User, 1000);
        metrics.phases.add(Phase::Handler, 500);
        metrics.events_recorded = 3;
        metrics.events_dropped = 1;
        metrics.events.push(TrapEvent {
            cycle: 9,
            tid: 4,
            vpn: 0x33,
            kind: TrapKind::Data,
            victim: Some(0x4000),
        });
        metrics.events.push(TrapEvent {
            cycle: 11,
            tid: 4,
            vpn: 0x34,
            kind: TrapKind::Tlb,
            victim: None,
        });
        vec![
            Ok((result, metrics)),
            Err(TrialFailure {
                index: 1,
                attempts: 3,
                backoff_units: 750,
                kind: FailureKind::Panic("injected fault: trial 1 \"quoted\"\npayload".into()),
            }),
        ]
    }

    #[test]
    fn document_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("tapeworm-sim-test-checkpoint");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("CHECKPOINT.json");
        let outcomes = sample_outcomes();
        let lines: Vec<String> = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| encode_record(i, o))
            .collect();
        write_atomic(&path, render(0xDEAD_BEEF, 8, &lines).as_bytes()).unwrap();
        let LoadResult::Doc(doc) = load(&path) else {
            panic!("expected a document");
        };
        assert_eq!(doc.sweep_id, 0xDEAD_BEEF);
        assert_eq!(doc.total, 8);
        assert_eq!(format!("{:?}", doc.records), format!("{outcomes:?}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_corrupt_files_are_distinguished() {
        let dir = std::env::temp_dir().join("tapeworm-sim-test-checkpoint-bad");
        let _ = fs::remove_dir_all(&dir);
        assert!(matches!(
            load(&dir.join("absent.json")),
            LoadResult::Missing
        ));
        for (name, contents) in [
            ("garbage.json", "not json at all".to_string()),
            (
                "wrong-schema.json",
                "{\n  \"schema\": \"something-else\"\n}\n".to_string(),
            ),
            (
                "gap.json",
                // Record index 1 without 0: prefix contiguity violated.
                render(1, 4, &[encode_record(1, &sample_outcomes()[0])]),
            ),
        ] {
            let path = dir.join(name);
            write_atomic(&path, contents.as_bytes()).unwrap();
            assert!(matches!(load(&path), LoadResult::Corrupt), "{name}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_separates_sweeps_but_not_thread_counts() {
        use tapeworm_core::CacheConfig;
        use tapeworm_workload::Workload;
        let cfg = |kb: u64| {
            SystemConfig::cache(
                Workload::Espresso,
                CacheConfig::new(kb * 1024, 16, 1).unwrap(),
            )
        };
        let a = sweep_fingerprint(&[cfg(4)], 4, SeedSeq::new(1));
        assert_eq!(a, sweep_fingerprint(&[cfg(4)], 4, SeedSeq::new(1)));
        assert_ne!(a, sweep_fingerprint(&[cfg(8)], 4, SeedSeq::new(1)));
        assert_ne!(a, sweep_fingerprint(&[cfg(4)], 5, SeedSeq::new(1)));
        assert_ne!(a, sweep_fingerprint(&[cfg(4)], 4, SeedSeq::new(2)));
    }

    #[test]
    fn records_cut_before_their_closing_quote_are_rejected() {
        for (i, outcome) in sample_outcomes().iter().enumerate() {
            let line = encode_outcome(i, outcome);
            // The last quote closes the record's final string value.
            let cut = &line[..line.rfind('"').unwrap()];
            assert!(decode_outcome(cut).is_none(), "accepted {cut}");
        }
    }

    #[test]
    fn hex_words_round_trip() {
        let words = vec![0, 1, u64::MAX, 0xDEAD_BEEF];
        assert_eq!(parse_hex_words(&hex_words(&words)).unwrap(), words);
        assert!(parse_hex_words("xyz").is_none());
    }
}
