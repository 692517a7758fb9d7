//! The assembled host machine.

use tapeworm_mem::{PhysAddr, TrapMap, VirtAddr, WritePolicy};

use crate::bkpt::Breakpoints;
use crate::clock::IntervalClock;

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch.
    IFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// What the hardware did with one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// No trap: the access ran at full hardware speed.
    Run,
    /// The access hit a Tapeworm ECC trap and must vector to the miss
    /// handler.
    EccTrap,
    /// The access hit a trap while interrupts were masked; the event is
    /// lost (the §4.2 masked-trap bias) but counted for bias analysis.
    MaskedEccSkipped,
    /// A store hit a trap under no-allocate-on-write: the trap was
    /// silently destroyed without a handler invocation (§4.4).
    WriteTrapDestroyed,
    /// An armed breakpoint fired.
    Breakpoint,
}

impl FetchOutcome {
    /// `true` when the outcome vectors into the kernel.
    pub fn traps(self) -> bool {
        matches!(self, FetchOutcome::EccTrap | FetchOutcome::Breakpoint)
    }
}

/// Host-machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Installed physical memory in bytes.
    pub mem_bytes: u64,
    /// ECC trap granule in bytes (the simulated cache's line size; the
    /// DECstation checks ECC on 4-word refills, i.e. 16 bytes).
    pub trap_granule: u64,
    /// Clock-interrupt period in cycles.
    pub clock_period: u64,
    /// Number of breakpoint registers.
    pub breakpoint_registers: usize,
    /// Host cache write-miss policy.
    pub write_policy: WritePolicy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_bytes: 64 << 20,
            trap_granule: 16,
            // 25 MHz machine with a 100 Hz scheduler tick = 250_000
            // cycles between clock interrupts.
            clock_period: 250_000,
            breakpoint_registers: 4,
            write_policy: WritePolicy::NoAllocateOnWrite,
        }
    }
}

/// The simulated host machine: trap map, clock, breakpoint registers,
/// interrupt mask and cycle and trap counters.
///
/// The machine is deliberately passive — the experiment loop in
/// `tapeworm-sim` owns control flow and asks the machine what each
/// access did, exactly as real hardware reacts to an instruction
/// stream.
///
/// # Examples
///
/// ```
/// use tapeworm_machine::{AccessKind, FetchOutcome, Machine, MachineConfig};
/// use tapeworm_mem::{PhysAddr, VirtAddr};
///
/// let mut m = Machine::new(MachineConfig::default());
/// let (va, pa) = (VirtAddr::new(0x1000), PhysAddr::new(0x8000));
/// assert_eq!(m.access(AccessKind::IFetch, va, pa), FetchOutcome::Run);
/// m.traps_mut().set_range(pa, 16);
/// assert_eq!(m.access(AccessKind::IFetch, va, pa), FetchOutcome::EccTrap);
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    traps: TrapMap,
    clock: IntervalClock,
    breakpoints: Breakpoints,
    interrupts_enabled: bool,
    masked_ecc_skips: u64,
    write_traps_destroyed: u64,
    trap_entries: u64,
    breakpoint_checks: u64,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero
    /// clock period, non-power-of-two granule, …).
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            traps: TrapMap::new(config.mem_bytes, config.trap_granule),
            clock: IntervalClock::new(config.clock_period),
            breakpoints: Breakpoints::new(config.breakpoint_registers),
            interrupts_enabled: true,
            masked_ecc_skips: 0,
            write_traps_destroyed: 0,
            trap_entries: 0,
            breakpoint_checks: 0,
            config,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Read access to the ECC trap map.
    pub fn traps(&self) -> &TrapMap {
        &self.traps
    }

    /// Mutable access to the ECC trap map (used by the Tapeworm
    /// primitives `tw_set_trap` / `tw_clear_trap`).
    pub fn traps_mut(&mut self) -> &mut TrapMap {
        &mut self.traps
    }

    /// Read access to the breakpoint registers.
    pub fn breakpoints(&self) -> &Breakpoints {
        &self.breakpoints
    }

    /// Mutable access to the breakpoint registers.
    pub fn breakpoints_mut(&mut self) -> &mut Breakpoints {
        &mut self.breakpoints
    }

    /// Whether interrupts are currently enabled.
    pub fn interrupts_enabled(&self) -> bool {
        self.interrupts_enabled
    }

    /// Masks or unmasks interrupts (kernel critical sections).
    pub fn set_interrupts_enabled(&mut self, enabled: bool) {
        self.interrupts_enabled = enabled;
    }

    /// Performs one memory access and reports what the hardware did.
    /// Does **not** advance time; call [`Machine::advance`] with the
    /// access's cycle cost (hits and misses cost differently).
    #[inline]
    pub fn access(&mut self, kind: AccessKind, va: VirtAddr, pa: PhysAddr) -> FetchOutcome {
        if matches!(kind, AccessKind::IFetch) {
            self.breakpoint_checks += 1;
            if self.breakpoints.check(va) {
                return FetchOutcome::Breakpoint;
            }
        }
        if !self.traps.is_trapped(pa) {
            return FetchOutcome::Run;
        }
        match (kind, self.config.write_policy) {
            (AccessKind::Store, WritePolicy::NoAllocateOnWrite) => {
                self.traps
                    .clear_range(pa.line_base(self.config.trap_granule), 1);
                self.write_traps_destroyed += 1;
                FetchOutcome::WriteTrapDestroyed
            }
            _ if self.interrupts_enabled => {
                self.trap_entries += 1;
                FetchOutcome::EccTrap
            }
            _ => {
                self.masked_ecc_skips += 1;
                FetchOutcome::MaskedEccSkipped
            }
        }
    }

    /// Advances the cycle counter and returns how many clock interrupts
    /// fired in the interval (delivered only when interrupts are
    /// enabled; masked ticks are dropped like the hardware drops them).
    pub fn advance(&mut self, cycles: u64) -> u64 {
        let fired = self.clock.advance(cycles);
        if self.interrupts_enabled {
            fired
        } else {
            0
        }
    }

    /// `true` when the frame containing `pa` carries zero ECC traps —
    /// one O(1) load against the trap map's per-frame counts. When this
    /// holds, every access to the frame is [`FetchOutcome::Run`].
    #[inline]
    pub fn frame_clean(&self, pa: PhysAddr) -> bool {
        self.traps.frame_clean(pa)
    }

    /// Length in bytes of the trap-free span starting at `pa`, capped
    /// at `max_bytes` — [`TrapMap::clean_span`]'s word-at-a-time bitmap
    /// scan. Every access whose probe point falls inside the span is
    /// [`FetchOutcome::Run`], so the fast path can batch a resident run
    /// even when the surrounding frame carries traps.
    #[inline]
    pub fn clean_span(&self, pa: PhysAddr, max_bytes: u64) -> u64 {
        self.traps.clean_span(pa, max_bytes)
    }

    /// Length of the run of consecutive trapped granules starting at
    /// `pa`'s granule, capped at `max_granules` —
    /// [`TrapMap::trapped_run`]'s word-at-a-time bitmap scan. Every
    /// probe inside the run would trap, so set-state burst service
    /// can size a whole miss burst from a handful of word loads.
    #[inline]
    pub fn trapped_run(&self, pa: PhysAddr, max_granules: u64) -> u64 {
        self.traps.trapped_run(pa, max_granules)
    }

    /// `true` when any armed breakpoint lies in `[va, va + len)` — one
    /// binary search instead of a per-address probe.
    #[inline]
    pub fn breakpoints_in(&self, va: VirtAddr, len: u64) -> bool {
        self.breakpoints.overlaps(va, len)
    }

    /// Cycles until the next clock interrupt would fire (always ≥ 1).
    /// An [`Machine::advance`] of strictly fewer cycles delivers
    /// nothing, so a batch sized below this bound cannot move an
    /// interrupt.
    #[inline]
    pub fn cycles_until_tick(&self) -> u64 {
        self.clock.cycles_until_fire()
    }

    /// Retires a *clean run* in one call: the `chunk_accesses`
    /// breakpoint-register probes the slow path
    /// would have performed, so observability counters stay
    /// bit-identical whichever path executed. Valid only when the run
    /// is trap-free — its frame is clean ([`Machine::frame_clean`]) or
    /// it lies inside a [`Machine::clean_span`] — and breakpoint-free
    /// ([`Machine::breakpoints_in`]): then each skipped access would
    /// have been [`FetchOutcome::Run`] with exactly one breakpoint
    /// check.
    #[inline]
    pub fn retire_clean_run(&mut self, chunk_accesses: u64) {
        self.breakpoint_checks += chunk_accesses;
    }

    /// Retires a *scheduled miss burst* in one call: `chunks` fetch
    /// probes, each of which would have
    /// taken the breakpoint check and then trapped (`trap_entries`
    /// when interrupts are enabled, `masked_ecc_skips` otherwise —
    /// the interrupt state is constant across a burst because the
    /// tick-budget pre-check keeps ticks from firing mid-burst).
    /// Valid only when the caller has proven every probed chunk's
    /// granule trapped ([`Machine::trapped_run`] covers the burst)
    /// and no breakpoint overlaps it ([`Machine::breakpoints_in`]):
    /// then this is exactly `chunks` stepwise [`Machine::access`]
    /// outcomes. A unit test pins the equivalence.
    #[inline]
    pub fn retire_trapped_burst(&mut self, chunks: u64) {
        self.breakpoint_checks += chunks;
        if self.interrupts_enabled {
            self.trap_entries += chunks;
        } else {
            self.masked_ecc_skips += chunks;
        }
    }

    /// Current cycle count (wall-clock time).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Clock interrupts fired so far.
    pub fn clock_interrupts(&self) -> u64 {
        self.clock.fired()
    }

    /// ECC traps lost to interrupt masking (the §4.2 bias counter).
    pub fn masked_ecc_skips(&self) -> u64 {
        self.masked_ecc_skips
    }

    /// Traps silently destroyed by stores under no-allocate-on-write.
    pub fn write_traps_destroyed(&self) -> u64 {
        self.write_traps_destroyed
    }

    /// ECC trap entries taken (each one vectored into the miss handler).
    pub fn trap_entries(&self) -> u64 {
        self.trap_entries
    }

    /// Breakpoint-register comparisons performed on the fetch path.
    pub fn breakpoint_checks(&self) -> u64 {
        self.breakpoint_checks
    }

    /// Allocation statistics of the trap map's chunked backing
    /// (materialized chunks, zero-chunk dedups, demand faults). All
    /// zeroes in dense mode except the dedup count.
    pub fn sparse_stats(&self) -> tapeworm_mem::SparseStats {
        self.traps.sparse_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            mem_bytes: 1 << 16,
            trap_granule: 16,
            clock_period: 1000,
            breakpoint_registers: 2,
            write_policy: WritePolicy::NoAllocateOnWrite,
        })
    }

    const VA: VirtAddr = VirtAddr::new(0x1000);
    const PA: PhysAddr = PhysAddr::new(0x2000);

    #[test]
    fn untrapped_access_runs() {
        let mut m = machine();
        assert_eq!(m.access(AccessKind::IFetch, VA, PA), FetchOutcome::Run);
        assert_eq!(m.access(AccessKind::Load, VA, PA), FetchOutcome::Run);
    }

    #[test]
    fn trapped_fetch_raises_ecc_trap() {
        let mut m = machine();
        m.traps_mut().set_range(PA, 16);
        let out = m.access(AccessKind::IFetch, VA, PA);
        assert_eq!(out, FetchOutcome::EccTrap);
        assert!(out.traps());
        // Trap remains armed until the handler clears it.
        assert_eq!(m.access(AccessKind::IFetch, VA, PA), FetchOutcome::EccTrap);
    }

    #[test]
    fn masked_interrupts_lose_traps_but_count_them() {
        let mut m = machine();
        m.traps_mut().set_range(PA, 16);
        m.set_interrupts_enabled(false);
        assert_eq!(
            m.access(AccessKind::IFetch, VA, PA),
            FetchOutcome::MaskedEccSkipped
        );
        assert_eq!(m.masked_ecc_skips(), 1);
        m.set_interrupts_enabled(true);
        assert_eq!(m.access(AccessKind::IFetch, VA, PA), FetchOutcome::EccTrap);
    }

    #[test]
    fn store_destroys_trap_under_no_allocate() {
        let mut m = machine();
        m.traps_mut().set_range(PA, 16);
        assert_eq!(
            m.access(AccessKind::Store, VA, PA),
            FetchOutcome::WriteTrapDestroyed
        );
        assert_eq!(m.write_traps_destroyed(), 1);
        assert_eq!(m.access(AccessKind::Load, VA, PA), FetchOutcome::Run);
    }

    #[test]
    fn store_traps_under_allocate_on_write() {
        let mut m = Machine::new(MachineConfig {
            write_policy: WritePolicy::AllocateOnWrite,
            mem_bytes: 1 << 16,
            ..MachineConfig::default()
        });
        m.traps_mut().set_range(PA, 16);
        assert_eq!(m.access(AccessKind::Store, VA, PA), FetchOutcome::EccTrap);
    }

    #[test]
    fn breakpoints_fire_before_trap_check() {
        let mut m = machine();
        m.breakpoints_mut().set(VA);
        m.traps_mut().set_range(PA, 16);
        assert_eq!(
            m.access(AccessKind::IFetch, VA, PA),
            FetchOutcome::Breakpoint
        );
    }

    #[test]
    fn clock_interrupts_suppressed_while_masked() {
        let mut m = machine();
        assert_eq!(m.advance(1000), 1);
        m.set_interrupts_enabled(false);
        assert_eq!(m.advance(1000), 0);
    }

    #[test]
    fn observability_counters_track_traps_and_checks() {
        let mut m = machine();
        m.traps_mut().set_range(PA, 16);
        assert_eq!(m.access(AccessKind::IFetch, VA, PA), FetchOutcome::EccTrap);
        assert_eq!(m.access(AccessKind::Load, VA, PA), FetchOutcome::EccTrap);
        assert_eq!(m.trap_entries(), 2);
        // Only instruction fetches consult the breakpoint registers.
        assert_eq!(m.breakpoint_checks(), 1);
        // Masked and destroyed traps are not handler entries.
        m.set_interrupts_enabled(false);
        m.access(AccessKind::Load, VA, PA);
        assert_eq!(m.trap_entries(), 2);
    }

    #[test]
    fn frame_clean_tracks_trap_state() {
        let mut m = machine();
        assert!(m.frame_clean(PA));
        m.traps_mut().set_range(PA, 16);
        assert!(!m.frame_clean(PA));
        // Same 4 KiB frame, different line.
        assert!(!m.frame_clean(PhysAddr::new(0x2100)));
        assert!(m.frame_clean(PhysAddr::new(0x3000)));
        m.traps_mut().clear_range(PA, 16);
        assert!(m.frame_clean(PA));
    }

    #[test]
    fn retire_clean_run_matches_slow_path_counters() {
        // A clean-frame run retired in one batch must leave
        // breakpoint_checks exactly where per-chunk dispatch would.
        let mut slow = machine();
        for chunk in 0..5u64 {
            let va = VirtAddr::new(0x1000 + chunk * 16);
            let pa = PhysAddr::new(0x2000 + chunk * 16);
            assert_eq!(slow.access(AccessKind::IFetch, va, pa), FetchOutcome::Run);
        }
        let mut fast = machine();
        assert!(fast.frame_clean(PA));
        assert!(!fast.breakpoints_in(VA, 5 * 16));
        fast.retire_clean_run(5);
        assert_eq!(fast.breakpoint_checks(), slow.breakpoint_checks());
    }

    #[test]
    fn retire_trapped_burst_matches_slow_path_counters() {
        // A burst of trapped fetches retired in one batch must leave
        // every machine counter exactly where per-chunk dispatch would,
        // in both interrupt states.
        for enabled in [true, false] {
            let mut slow = machine();
            slow.traps_mut().set_range(PA, 5 * 16);
            slow.set_interrupts_enabled(enabled);
            for chunk in 0..5u64 {
                let va = VirtAddr::new(0x1000 + chunk * 16);
                let pa = PhysAddr::new(0x2000 + chunk * 16);
                let want = if enabled {
                    FetchOutcome::EccTrap
                } else {
                    FetchOutcome::MaskedEccSkipped
                };
                assert_eq!(slow.access(AccessKind::IFetch, va, pa), want);
            }
            let mut fast = machine();
            fast.traps_mut().set_range(PA, 5 * 16);
            fast.set_interrupts_enabled(enabled);
            assert_eq!(fast.trapped_run(PA, 5), 5);
            assert!(!fast.breakpoints_in(VA, 5 * 16));
            fast.retire_trapped_burst(5);
            assert_eq!(fast.breakpoint_checks(), slow.breakpoint_checks());
            assert_eq!(fast.trap_entries(), slow.trap_entries());
            assert_eq!(fast.masked_ecc_skips(), slow.masked_ecc_skips());
        }
    }
}
