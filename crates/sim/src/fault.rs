//! Deterministic scheduler-level fault injection.
//!
//! A [`FaultPlan`] tells the sweep engine which `(trial, attempt)`
//! cells to sabotage and how, so the fault-tolerance machinery
//! (retry, worker-state re-init, checkpoint write recovery) can be driven
//! reproducibly from tests and from the `chaos_sweep` gate binary.
//! Faults are injected *around* the trial closure — the simulator
//! itself is never touched — so a retried attempt recomputes exactly
//! the value a fault-free run would have committed, which is what
//! makes "faulted run ≡ clean run, bit for bit" a testable invariant.
//!
//! Three fault shapes model the failure modes long campaigns actually
//! see:
//!
//! * **panic** — the trial closure panics (a worker dies mid-cell);
//! * **budget exhaustion** — the trial "hangs" and the watchdog kills
//!   it, surfacing as a typed, retriable error;
//! * **checkpoint write failure** — persisting the committed prefix
//!   fails (full disk, yanked volume); the sweep must keep going.

use tapeworm_stats::SeedSeq;

/// A deterministic plan of injected faults for one sweep run.
///
/// # Examples
///
/// ```
/// use tapeworm_sim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .with_panic(3, 0)
///     .with_budget_exhaustion(5, 0)
///     .with_checkpoint_write_failures(1);
/// assert!(plan.should_panic(3, 0));
/// assert!(!plan.should_panic(3, 1), "the retry must succeed");
/// assert!(plan.should_exhaust(5, 0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    panics: Vec<(usize, u32)>,
    exhausts: Vec<(usize, u32)>,
    checkpoint_write_failures: u32,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.exhausts.is_empty() && self.checkpoint_write_failures == 0
    }

    /// Panic global trial `trial` on attempt `attempt` (0-based).
    pub fn with_panic(mut self, trial: usize, attempt: u32) -> Self {
        self.panics.push((trial, attempt));
        self
    }

    /// Hang global trial `trial` on attempt `attempt`: the attempt
    /// reports instruction-budget exhaustion (the watchdog killed it)
    /// as a typed, retriable error.
    pub fn with_budget_exhaustion(mut self, trial: usize, attempt: u32) -> Self {
        self.exhausts.push((trial, attempt));
        self
    }

    /// Fail the next `n` checkpoint writes (simulating a full or
    /// yanked results volume). The sweep must tolerate and count them.
    pub fn with_checkpoint_write_failures(mut self, n: u32) -> Self {
        self.checkpoint_write_failures = n;
        self
    }

    /// A seed-driven plan over `trials` cells: each first attempt is
    /// independently sabotaged with probability `rate_pct`%, split
    /// evenly between panics and budget exhaustions. Deterministic in
    /// `seed`, so a "fixed fault seed" reproduces the same chaos.
    pub fn from_seed(seed: SeedSeq, trials: usize, rate_pct: u64) -> Self {
        let mut plan = FaultPlan::new();
        for i in 0..trials {
            let mut rng = seed.derive("fault", i as u64).rng();
            if rng.gen_range(0..100u64) < rate_pct {
                if rng.gen_range(0..2u64) == 0 {
                    plan.panics.push((i, 0));
                } else {
                    plan.exhausts.push((i, 0));
                }
            }
        }
        plan
    }

    /// Whether `(trial, attempt)` is scheduled to panic.
    pub fn should_panic(&self, trial: usize, attempt: u32) -> bool {
        self.panics.contains(&(trial, attempt))
    }

    /// Whether `(trial, attempt)` is scheduled to exhaust its budget.
    pub fn should_exhaust(&self, trial: usize, attempt: u32) -> bool {
        self.exhausts.contains(&(trial, attempt))
    }

    /// Number of injected panic cells.
    pub fn panic_count(&self) -> usize {
        self.panics.len()
    }

    /// Number of injected budget-exhaustion cells.
    pub fn exhaust_count(&self) -> usize {
        self.exhausts.len()
    }

    /// Number of checkpoint writes scheduled to fail.
    pub fn checkpoint_write_failures(&self) -> u32 {
        self.checkpoint_write_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_queries() {
        let plan = FaultPlan::new()
            .with_panic(1, 0)
            .with_panic(6, 1)
            .with_budget_exhaustion(3, 0)
            .with_checkpoint_write_failures(2);
        assert!(!plan.is_empty());
        assert!(plan.should_panic(1, 0) && plan.should_panic(6, 1));
        assert!(!plan.should_panic(6, 0));
        assert!(plan.should_exhaust(3, 0) && !plan.should_exhaust(3, 1));
        assert_eq!(plan.panic_count(), 2);
        assert_eq!(plan.exhaust_count(), 1);
        assert_eq!(plan.checkpoint_write_failures(), 2);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_rate_bounded() {
        let a = FaultPlan::from_seed(SeedSeq::new(7), 100, 25);
        let b = FaultPlan::from_seed(SeedSeq::new(7), 100, 25);
        assert_eq!(a, b, "same seed, same plan");
        let faults = a.panic_count() + a.exhaust_count();
        assert!(faults > 5 && faults < 50, "rate ~25%: got {faults}");
        assert_ne!(a, FaultPlan::from_seed(SeedSeq::new(8), 100, 25));
        // Only first attempts are sabotaged, so default retries recover.
        for i in 0..100 {
            assert!(!a.should_panic(i, 1) && !a.should_exhaust(i, 1));
        }
        assert!(FaultPlan::from_seed(SeedSeq::new(7), 100, 0).is_empty());
    }
}
