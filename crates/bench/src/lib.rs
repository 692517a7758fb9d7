//! Shared helpers for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure; this
//! library holds the common plumbing: standard seeds, the Figure 2
//! cache ladder, and paper reference values used for side-by-side
//! printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tapeworm_core::CacheConfig;
use tapeworm_sim::{
    run_sweep_resilient, CheckpointConfig, ComponentSet, SweepOptions, SystemConfig, TrialSummary,
};
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

/// The base seed all experiment binaries use, so their outputs are
/// reproducible run to run. Override with the `TW_SEED` environment
/// variable.
pub fn base_seed() -> SeedSeq {
    let raw = std::env::var("TW_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1994);
    SeedSeq::new(raw)
}

/// Instruction scale divisor (paper counts ÷ scale). Override with
/// `TW_SCALE`; default 100.
pub fn scale() -> u64 {
    std::env::var("TW_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(100)
}

/// Number of worker threads for multi-trial experiments. Override with
/// `TW_THREADS`; defaults to the available parallelism.
pub fn threads() -> usize {
    std::env::var("TW_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Sweep options from the environment: `TW_THREADS` workers, the
/// default retry budget, and checkpointing when `TW_CHECKPOINT` (a
/// path) or `TW_RESUME=1` is set. `TW_RESUME=1` also resumes from the
/// checkpoint; the path defaults to `results/CHECKPOINT.json` and the
/// rewrite interval to 16 commits (`TW_CHECKPOINT_EVERY`).
pub fn sweep_options() -> SweepOptions {
    let mut options = SweepOptions::default().with_threads(threads());
    let resume = std::env::var("TW_RESUME").is_ok_and(|v| v == "1");
    let path = std::env::var("TW_CHECKPOINT").ok();
    if resume || path.is_some() {
        let mut ck =
            CheckpointConfig::new(path.unwrap_or_else(|| "results/CHECKPOINT.json".into()));
        if let Some(every) = std::env::var("TW_CHECKPOINT_EVERY")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            ck = ck.with_interval(every);
        }
        if resume {
            ck = ck.resuming();
        }
        options = options.with_checkpoint(ck);
    }
    options
}

/// Runs a fault-tolerant sweep configured from the environment (see
/// [`sweep_options`]) and returns the per-configuration cells,
/// reporting resume and fault-recovery accounting on stderr.
pub fn run_sweep_env(configs: &[SystemConfig], trials: usize, base: SeedSeq) -> Vec<TrialSummary> {
    let options = sweep_options();
    let outcome = run_sweep_resilient(configs, trials, base, &options);
    if outcome.checkpoint_mismatch() {
        eprintln!("warning: checkpoint belongs to a different sweep; starting fresh");
    }
    if outcome.resumed_trials() > 0 {
        eprintln!(
            "resumed {} committed trials from checkpoint",
            outcome.resumed_trials()
        );
    }
    let stats = outcome.fault_stats();
    if !stats.is_clean() {
        eprintln!(
            "fault recovery: {} retries, {} panics contained, {} workers respawned",
            stats.retries, stats.panics, stats.workers_respawned
        );
    }
    for f in outcome.failed() {
        eprintln!(
            "warning: config {} trial {} failed after {} attempts: {}",
            f.config, f.trial, f.failure.attempts, f.failure.kind
        );
    }
    outcome.into_cells()
}

/// Simulated physical memory of the large-address-space smoke sweep:
/// 64 GiB, far beyond the host-RSS budget the ci.sh footprint gate
/// enforces. Only completes inside that budget because physical state
/// is demand-allocated — a materialized trap bitmap plus frame tables
/// at this size would be gigabytes before the first reference runs.
pub const LARGE_MEM_SMOKE_BYTES: u64 = 64 << 30;

/// The large-address-space smoke configuration: the standard 4 KiB
/// direct-mapped cache over [`LARGE_MEM_SMOKE_BYTES`] of simulated
/// physical memory (16 M frames) at smoke instruction scale, with
/// random frame allocation so the lazy Fisher–Yates free list is
/// exercised at full span.
pub fn large_mem_smoke_config() -> SystemConfig {
    let mut cfg = SystemConfig::cache(Workload::MpegPlay, dm4(4))
        .with_components(ComponentSet::user_only())
        .with_scale(20_000);
    cfg.frames = (LARGE_MEM_SMOKE_BYTES / 4096) as usize;
    cfg
}

/// Peak resident set size of this process in bytes — the `VmHWM`
/// high-water mark from `/proc/self/status`, monotonic over the
/// process lifetime. `None` off Linux or when the field is missing or
/// zero; callers must then *skip* any footprint gate honestly rather
/// than report a vacuous pass.
pub fn max_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    (kb > 0).then_some(kb * 1024)
}

/// A direct-mapped cache with 4-word (16-byte) lines — the paper's
/// standard geometry.
///
/// # Panics
///
/// Panics if the size is invalid.
pub fn dm4(kbytes: u64) -> CacheConfig {
    CacheConfig::new(kbytes * 1024, 16, 1).expect("valid direct-mapped geometry")
}

/// Rescales a miss count from the experiment's instruction scale back
/// to paper magnitudes (×10⁶), for side-by-side printing.
pub fn paper_millions(misses: f64, scale: u64) -> f64 {
    misses * scale as f64 / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dm4_shapes() {
        assert_eq!(dm4(4).sets(), 256);
    }

    #[test]
    fn rescaling() {
        assert!((paper_millions(376_300.0, 100) - 37.63).abs() < 1e-9);
    }

    #[test]
    fn large_mem_smoke_simulates_64_gib_on_sparse_backing() {
        let cfg = large_mem_smoke_config();
        assert_eq!(cfg.frames as u64 * 4096, LARGE_MEM_SMOKE_BYTES);
    }
}
