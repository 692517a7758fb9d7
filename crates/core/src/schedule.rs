//! Set-state burst service: the request/outcome types of
//! [`crate::Tapeworm::service_burst`] and its per-trial scratch.
//!
//! A burst is a run of consecutive trapped granules inside one page.
//! The engine sizes the whole run from the trap bitmap. Where geometry
//! rules out a victim landing in the run
//! ([`crate::Tapeworm::sched_eligible`]), the run is served at slice
//! cost: one merged clear, one insert per line straight into its set
//! (the run's sets are consecutive), and the victims re-armed last as
//! coalesced runs, one word-masked set per address-contiguous stretch
//! within a frame. Every other geometry serves each granule with
//! [`crate::Tapeworm::handle_miss`]'s own clear and insert-and-re-arm
//! steps. Nothing is cached between bursts, so the outcome is the
//! stepwise outcome by construction (pinned by `tests/miss_batch.rs`
//! and the core twin differential in
//! `crates/core/tests/burst_differential.rs`).

use tapeworm_machine::Component;
use tapeworm_mem::{PhysAddr, VirtAddr};
use tapeworm_os::Tid;

/// Per-trial burst-service scratch: the victim list of the last
/// serviced burst.
#[derive(Debug, Default)]
pub struct MissSchedule {
    /// Ring-emission scratch: per miss of the last serviced burst,
    /// the victim's physical address + 1, or 0 for none. Only
    /// maintained when the caller asks (the trap ring is off on the
    /// throughput path).
    pub(crate) victims: Vec<u64>,
}

impl MissSchedule {
    /// An empty scratch.
    pub fn new() -> Self {
        MissSchedule::default()
    }

    /// Victim scratch from the last serviced burst (pa + 1, 0 = none),
    /// one slot per miss, for ring-event emission.
    pub fn last_burst_victims(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        self.victims
            .iter()
            .map(|&v| if v == 0 { None } else { Some(v - 1) })
    }
}

/// Entry conditions of one batched trap burst, as the engine's burst
/// path sees them.
#[derive(Debug, Clone, Copy)]
pub struct BurstRequest {
    /// Workload component charged for the misses.
    pub component: Component,
    /// Task owning the fetched lines.
    pub tid: Tid,
    /// Burst entry virtual address (word-aligned, possibly mid-line).
    pub va: VirtAddr,
    /// Its translation.
    pub pa: PhysAddr,
    /// Words remaining in the instruction run.
    pub rem_words: u64,
    /// End of the contiguously-mapped service span (page end).
    pub page_end_va: u64,
    /// Tick budget in milli-cycles (the stepwise loop's
    /// `budget_milli`).
    pub budget_milli: u64,
    /// Per-word CPI in milli-cycles.
    pub cpi_milli: u64,
    /// Per-miss dilation overhead in milli-cycles (0 when the trial
    /// does not dilate).
    pub dilate_ov_milli: u64,
    /// Interrupts masked: misses are counted, not serviced.
    pub masked: bool,
    /// Maintain the per-miss victim scratch for ring emission.
    pub want_victims: bool,
}

/// What the burst path serviced, for the engine to account
/// machine-side (retire, counters, clock, ring).
#[derive(Debug, Clone, Copy)]
pub struct BurstServed {
    /// Chunks probed — all of them misses (or masked skips).
    pub chunks: u64,
    /// Words retired.
    pub words: u64,
    /// Handler + replacement cycles charged (0 when masked).
    pub overhead_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_burst_victims_decodes_the_scratch() {
        let mut s = MissSchedule::new();
        assert_eq!(s.last_burst_victims().count(), 0);
        s.victims.push(41);
        s.victims.push(0);
        let got: Vec<Option<u64>> = s.last_burst_victims().collect();
        assert_eq!(got, vec![Some(40), None]);
    }
}
