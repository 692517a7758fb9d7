//! Per-component miss accounting.

use tapeworm_machine::Component;

/// Miss counters broken down by workload component, with set-sampling
/// expansion.
///
/// Raw counts are what the handler observed (sampled sets only, when
/// sampling); estimated counts scale by the expansion factor to
/// approximate the full cache, as the paper's sampled results do.
///
/// # Examples
///
/// ```
/// use tapeworm_core::MissStats;
/// use tapeworm_machine::Component;
///
/// let mut s = MissStats::new(8.0);
/// s.count_miss(Component::User);
/// s.count_miss(Component::Kernel);
/// assert_eq!(s.raw_misses(Component::User), 1);
/// assert_eq!(s.estimated_total(), 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissStats {
    misses: [u64; 4],
    expansion: f64,
    masked_estimate: u64,
}

impl MissStats {
    /// Creates zeroed counters with a sampling expansion factor
    /// (1.0 when not sampling).
    pub fn new(expansion: f64) -> Self {
        MissStats {
            misses: [0; 4],
            expansion,
            masked_estimate: 0,
        }
    }

    /// Records one observed miss for `component`.
    pub fn count_miss(&mut self, component: Component) {
        self.misses[component.index()] += 1;
    }

    /// Records `n` observed misses for `component` in one call — the
    /// batched equivalent of `n` [`MissStats::count_miss`] calls, used
    /// by set-state burst service.
    pub fn count_misses(&mut self, component: Component, n: u64) {
        self.misses[component.index()] += n;
    }

    /// Records `n` interrupt-masked misses in one call — the batched
    /// equivalent of `n` [`MissStats::count_masked`] calls.
    pub fn count_masked_n(&mut self, n: u64) {
        self.masked_estimate += n;
    }

    /// Records a miss known to have been lost to interrupt masking
    /// (accounted separately; "special code around these regions helps
    /// Tapeworm to take their cache effects into account", §4.2).
    pub fn count_masked(&mut self) {
        self.masked_estimate += 1;
    }

    /// Observed (unexpanded) misses for one component.
    pub fn raw_misses(&self, component: Component) -> u64 {
        self.misses[component.index()]
    }

    /// Observed misses across all components.
    pub fn raw_total(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Sampling-expanded miss estimate for one component.
    pub fn estimated_misses(&self, component: Component) -> f64 {
        self.misses[component.index()] as f64 * self.expansion
    }

    /// Sampling-expanded total miss estimate.
    pub fn estimated_total(&self) -> f64 {
        self.raw_total() as f64 * self.expansion
    }

    /// Misses lost to interrupt masking (raw).
    pub fn masked(&self) -> u64 {
        self.masked_estimate
    }

    /// The sampling expansion factor in use.
    pub fn expansion(&self) -> f64 {
        self.expansion
    }

    /// Miss ratio relative to `total_instructions` (the paper's
    /// convention: "all miss ratios are relative to the total number of
    /// instructions in the workload", Table 6).
    pub fn miss_ratio(&self, component: Component, total_instructions: u64) -> f64 {
        if total_instructions == 0 {
            0.0
        } else {
            self.estimated_misses(component) / total_instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attribute_to_components() {
        let mut s = MissStats::new(1.0);
        s.count_miss(Component::Kernel);
        s.count_miss(Component::Kernel);
        s.count_miss(Component::User);
        assert_eq!(s.raw_misses(Component::Kernel), 2);
        assert_eq!(s.raw_misses(Component::User), 1);
        assert_eq!(s.raw_misses(Component::XServer), 0);
        assert_eq!(s.raw_total(), 3);
    }

    #[test]
    fn expansion_scales_estimates_not_raw() {
        let mut s = MissStats::new(4.0);
        s.count_miss(Component::User);
        assert_eq!(s.raw_total(), 1);
        assert_eq!(s.estimated_total(), 4.0);
        assert_eq!(s.estimated_misses(Component::User), 4.0);
    }

    #[test]
    fn miss_ratio_uses_total_instructions() {
        let mut s = MissStats::new(1.0);
        for _ in 0..27 {
            s.count_miss(Component::User);
        }
        assert!((s.miss_ratio(Component::User, 1000) - 0.027).abs() < 1e-12);
        assert_eq!(s.miss_ratio(Component::User, 0), 0.0);
    }

    #[test]
    fn masked_misses_tracked_separately() {
        let mut s = MissStats::new(1.0);
        s.count_masked();
        assert_eq!(s.masked(), 1);
        assert_eq!(s.raw_total(), 0);
    }
}
