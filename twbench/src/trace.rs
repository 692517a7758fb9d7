//! In-memory span recorder for the traced run.
//!
//! A span is `(name, id, start, end, parent)`: `id` names the trial or
//! job the span belongs to, `parent` the span that was open when it
//! began. Spans stay in memory while the benchmark runs and are written
//! out once at exit, so recording costs two clock reads and a push.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug, Default)]
struct State {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The recorder. Disabled, [`Tracer::span`] costs one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

/// Ends its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A recorder, recording from the start when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State {
                enabled,
                ..State::default()
            }),
        }
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.borrow_mut().enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens span `name` for trial or job `id`, nested in the
    /// innermost open span.
    pub fn span(&self, name: &'static str, id: u64) -> SpanGuard<'_> {
        let mut state = self.state.borrow_mut();
        if !state.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let index = state.spans.len();
        let parent = state.open.last().copied();
        let start_ns = self.now_ns();
        state.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        state.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        state.spans[index].end_ns = end_ns;
        if let Some(pos) = state.open.iter().rposition(|&i| i == index) {
            state.open.truncate(pos);
        }
    }

    /// Per span name: every span's duration and self time (duration
    /// minus the part its child spans cover), in nanoseconds.
    pub fn times(&self) -> BTreeMap<&'static str, SpanTimes> {
        let state = self.state.borrow();
        let mut child_ns = vec![0u64; state.spans.len()];
        for span in &state.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTimes> = BTreeMap::new();
        for (span, children) in state.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.total_ns.push(total as f64);
            entry.self_ns.push(total.saturating_sub(children) as f64);
        }
        out
    }

    /// Per trial or job id: the summed duration of its spans named
    /// `name`, in nanoseconds.
    pub fn total_by_id(&self, name: &str) -> BTreeMap<u64, f64> {
        let state = self.state.borrow();
        let mut out = BTreeMap::new();
        for span in state.spans.iter().filter(|s| s.name == name) {
            *out.entry(span.id).or_insert(0.0) += (span.end_ns - span.start_ns) as f64;
        }
        out
    }

    /// The spans as JSON lines, in the order they were opened.
    pub fn to_jsonl(&self) -> String {
        let state = self.state.borrow();
        let mut out = String::new();
        for (index, s) in state.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {index}, \"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            self.tracer.close(index);
        }
    }
}

/// Durations of every span sharing one name.
#[derive(Debug, Clone, Default)]
pub struct SpanTimes {
    /// Whole-span durations, ns.
    pub total_ns: Vec<f64>,
    /// Durations minus child spans, ns.
    pub self_ns: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while start.elapsed().as_nanos() < u128::from(ns) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let t = Tracer::new(true);
        {
            let _job = t.span("job", 7);
            spin(200_000);
            {
                let _a = t.span("child", 7);
                spin(300_000);
                let _grand = t.span("grandchild", 7);
                spin(100_000);
            }
            let _b = t.span("child", 7);
            spin(300_000);
        }
        let times = t.times();
        let job = &times["job"];
        let children: f64 = times["child"].total_ns.iter().sum();
        assert_eq!(job.total_ns.len(), 1);
        assert_eq!(job.self_ns[0], job.total_ns[0] - children);
        assert!(job.self_ns[0] >= 200_000.0);
        // The grandchild counts against its parent, not the job.
        let first_child = &times["child"];
        let grand = times["grandchild"].total_ns[0];
        assert_eq!(first_child.self_ns[0], first_child.total_ns[0] - grand);
        assert_eq!(first_child.self_ns[1], first_child.total_ns[1]);
    }

    #[test]
    fn spans_record_parent_and_id() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("job", 3);
            let _inner = t.span("backend.run", 3);
        }
        let _free = t.span("trial", 4);
        drop(_free);
        let lines = t.to_jsonl();
        let lines: Vec<&str> = lines.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\": \"job\", \"id\": 3") && lines[0].ends_with("null}"));
        assert!(lines[1].contains("\"backend.run\"") && lines[1].ends_with("\"parent\": 0}"));
        assert!(lines[2].contains("\"id\": 4") && lines[2].ends_with("null}"));
    }

    #[test]
    fn totals_group_by_id() {
        let t = Tracer::new(true);
        for id in [1, 2, 1] {
            let _s = t.span("wire.frame", id);
            spin(10_000);
        }
        let by_id = t.total_by_id("wire.frame");
        let all: f64 = t.times()["wire.frame"].total_ns.iter().sum();
        assert_eq!(by_id.len(), 2);
        assert_eq!(by_id.values().sum::<f64>(), all);
        assert!(by_id[&1] > by_id[&2]);
        assert!(t.total_by_id("job").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("trial", 1));
        t.set_enabled(true);
        drop(t.span("trial", 2));
        assert_eq!(t.times()["trial"].total_ns.len(), 1);
    }
}
