//! The interval clock.
//!
//! Clock interrupts are central to two results in the paper: they drive
//! scheduling quanta, and — because they fire on *wall-clock* (dilated)
//! time — simulator overhead increases the number of interrupts a
//! workload experiences, which in turn increases cache conflict misses
//! (Figure 4's time-dilation bias).

/// A periodic interval timer.
///
/// # Examples
///
/// ```
/// use tapeworm_machine::IntervalClock;
///
/// let mut clock = IntervalClock::new(1000);
/// assert_eq!(clock.advance(999), 0);
/// assert_eq!(clock.advance(1), 1);   // fires at cycle 1000
/// assert_eq!(clock.advance(2500), 2); // fires at 2000 and 3000
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalClock {
    period: u64,
    now: u64,
    next_fire: u64,
    fired: u64,
}

impl IntervalClock {
    /// Creates a clock firing every `period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "clock period must be positive");
        IntervalClock {
            period,
            now: 0,
            next_fire: period,
            fired: 0,
        }
    }

    /// The configured period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Current time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total interrupts fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Cycles until the next interrupt would fire — always ≥ 1, since
    /// after any [`IntervalClock::advance`] the clock sits strictly
    /// before its next firing point. Advancing by strictly fewer cycles
    /// than this fires nothing; the fast path uses it to size batches
    /// that provably cannot move an interrupt delivery.
    #[inline]
    pub fn cycles_until_fire(&self) -> u64 {
        self.next_fire - self.now
    }

    /// Advances time by `cycles` and returns how many interrupts fired
    /// during that span.
    pub fn advance(&mut self, cycles: u64) -> u64 {
        self.now += cycles;
        let mut n = 0;
        while self.now >= self.next_fire {
            self.next_fire += self.period;
            n += 1;
        }
        self.fired += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_exact_boundary() {
        let mut c = IntervalClock::new(100);
        assert_eq!(c.advance(99), 0);
        assert_eq!(c.advance(1), 1);
        assert_eq!(c.fired(), 1);
    }

    #[test]
    fn big_jump_fires_multiple() {
        let mut c = IntervalClock::new(10);
        assert_eq!(c.advance(35), 3);
        assert_eq!(c.advance(5), 1); // now 40
        assert_eq!(c.fired(), 4);
    }

    #[test]
    fn dilation_increases_interrupts_for_same_work() {
        // Same "useful work" (1000 cycles) with and without overhead.
        let mut undilated = IntervalClock::new(100);
        let mut dilated = IntervalClock::new(100);
        let mut without = 0;
        let mut with = 0;
        for _ in 0..10 {
            without += undilated.advance(100);
            with += dilated.advance(100);
            with += dilated.advance(150); // simulator overhead
        }
        assert!(with > without);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = IntervalClock::new(0);
    }

    #[test]
    fn cycles_until_fire_bounds_a_safe_advance() {
        let mut c = IntervalClock::new(100);
        assert_eq!(c.cycles_until_fire(), 100);
        c.advance(73);
        assert_eq!(c.cycles_until_fire(), 27);
        // Advancing one fewer than the bound never fires...
        assert_eq!(c.advance(c.cycles_until_fire() - 1), 0);
        assert_eq!(c.cycles_until_fire(), 1);
        // ...and the bound itself always does.
        assert_eq!(c.advance(c.cycles_until_fire()), 1);
        assert_eq!(c.cycles_until_fire(), 100);
    }
}
