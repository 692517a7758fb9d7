//! Monster II: the Tapeworm observability layer.
//!
//! The paper's argument is carried by its measurements — Monster's
//! per-component cycle counts (Tables 4 and 6), the Table 5 trap-cost
//! breakdown, and the Figure 4 dilation curves. This crate gives the
//! simulator the same self-measurement ability, cheaply enough to
//! leave on in CI:
//!
//! * [`Counters`] / [`CounterId`] — the event-counter registry. Each
//!   layer (trap map, translation cache, machine, scheduler) keeps
//!   plain branch-predictable `u64` counters; the trial engine
//!   snapshots them per trial and the sweep committer merges them in
//!   commit order, so totals are lock-free to collect and
//!   bit-identical for every `TW_THREADS` setting.
//! * [`TrapRing`] / [`TrapEvent`] — a bounded ring of
//!   `(cycle, tid, vpn, kind, victim)` records, one per serviced
//!   miss, drainable into the `crates/trace` wire format so the
//!   simulator's own miss stream becomes a trace source.
//! * [`PhaseCycles`] / [`Phase`] — user/kernel/handler/replacement
//!   cycle accounting; its [`PhaseCycles::dilation`] is the live
//!   Figure 4 dilation report.
//! * [`MetricsReport`] / [`write_atomic`] — the
//!   `results/METRICS.json` exporter (schema [`METRICS_SCHEMA`]) and
//!   the crash-safe temp-file-plus-rename artifact writer the bench
//!   binaries use for all results files.
//!
//! [`TrialMetrics`] bundles the three data sources into the per-trial
//! aggregate the simulator returns.

mod counters;
mod export;
mod metrics;
mod phase;
mod ring;

pub use counters::{CounterId, Counters};
pub use export::{escape, metrics_json_fields, write_atomic, MetricsReport, METRICS_SCHEMA};
pub use metrics::TrialMetrics;
pub use phase::{Phase, PhaseCycles};
pub use ring::{TrapEvent, TrapKind, TrapRing};
