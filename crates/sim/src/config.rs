//! Experiment configuration.

use tapeworm_core::{CacheConfig, CostModel, TlbSimConfig};
use tapeworm_machine::Component;
use tapeworm_workload::Workload;

/// Which workload components are registered with Tapeworm for a trial
/// (the Table 6 experiment axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentSet([bool; 4]);

impl ComponentSet {
    /// Every component: kernel, both servers and user tasks.
    pub fn all() -> Self {
        ComponentSet([true; 4])
    }

    /// Only the user tasks (what Pixie can see).
    pub fn user_only() -> Self {
        Self::empty().with(Component::User)
    }

    /// Only the BSD and X servers.
    pub fn servers_only() -> Self {
        Self::empty()
            .with(Component::BsdServer)
            .with(Component::XServer)
    }

    /// Only the kernel.
    pub fn kernel_only() -> Self {
        Self::empty().with(Component::Kernel)
    }

    /// No components (useful as a builder base).
    pub fn empty() -> Self {
        ComponentSet([false; 4])
    }

    /// Adds a component.
    pub fn with(mut self, c: Component) -> Self {
        self.0[c.index()] = true;
        self
    }

    /// Membership test.
    pub fn contains(&self, c: Component) -> bool {
        self.0[c.index()]
    }

    /// Iterates over the included components.
    pub fn iter(&self) -> impl Iterator<Item = Component> + '_ {
        Component::ALL.into_iter().filter(|c| self.contains(*c))
    }
}

/// Physical frame allocation policy for a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Random free-frame order — the paper OS's behaviour and the
    /// source of Table 9's physically-indexed variance.
    #[default]
    Random,
    /// Lowest frame first; deterministic.
    Sequential,
    /// Page colouring with the given number of colours (ablation).
    Coloring(u64),
}

/// Which cost model the miss handler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostKind {
    /// The 246-cycle optimized assembly handler (Table 5).
    #[default]
    Optimized,
    /// The >2000-cycle original C handler (§4.1 ablation).
    UnoptimizedC,
    /// The ~50-cycle hardware-assisted estimate (§4.3 ablation).
    HardwareAssisted,
}

impl CostKind {
    /// Materializes the cost model.
    pub fn model(self) -> CostModel {
        match self {
            CostKind::Optimized => CostModel::optimized(),
            CostKind::UnoptimizedC => CostModel::unoptimized_c(),
            CostKind::HardwareAssisted => CostModel::hardware_assisted(),
        }
    }
}

/// What is being simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimModel {
    /// Instruction-cache simulation via ECC traps.
    Cache(CacheConfig),
    /// Two-level (L1 + L2) cache simulation: traps encode L1
    /// residency; the handler classifies L2 hits in software.
    TwoLevelCache(CacheConfig, CacheConfig),
    /// Split instruction + data cache simulation (the paper's §5
    /// future work). Requires an allocate-on-write host for correct
    /// data-side counts; under no-allocate-on-write, stores silently
    /// destroy traps and the data cache undercounts (§4.4).
    SplitCache {
        /// Instruction-cache geometry.
        icache: CacheConfig,
        /// Data-cache geometry.
        dcache: CacheConfig,
    },
    /// TLB simulation via page-valid-bit traps.
    Tlb(TlbSimConfig),
    /// The Mogul & Borg / Chen in-kernel trace-buffer baseline (§2
    /// related work): complete like Tapeworm, but paying per reference
    /// like all trace-driven tools.
    KernelTraceBuffer(CacheConfig),
}

/// Full configuration of one experiment trial.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Cache or TLB model.
    pub model: SimModel,
    /// Components registered with the simulator.
    pub measured: ComponentSet,
    /// Set-sampling denominator (1 = no sampling; power of two).
    pub sample_denominator: u64,
    /// Miss-handler cost model.
    pub cost: CostKind,
    /// Instruction-count divisor relative to the paper's runs
    /// (default 100: mpeg_play runs 14.2 M instructions instead of
    /// 1 423 M).
    pub scale: u64,
    /// Uninstrumented cycles per instruction, in millicycles
    /// (1700 = 1.7 CPI, the DECstation's measured wall-clock CPI).
    pub base_cpi_milli: u64,
    /// Frame allocation policy.
    pub alloc: AllocPolicy,
    /// Physical frames available.
    pub frames: usize,
    /// Clock-interrupt period in cycles (wall-clock time).
    pub clock_period: u64,
    /// Instructions executed by the clock-interrupt handler per tick
    /// (scheduler, callouts) — the pollution source behind Figure 4.
    pub interrupt_handler_words: u32,
    /// Leading handler instructions that run with interrupts masked
    /// (ECC traps there are lost — the §4.2 masked-trap bias).
    pub masked_prefix_words: u32,
    /// Whether simulator overhead advances the wall clock (time
    /// dilation). Disabling isolates the bias, as Figure 4 discusses.
    pub dilate: bool,
    /// Host cache write-miss policy. `NoAllocateOnWrite` is the
    /// DECstation 5000/200 behaviour (stores destroy traps silently);
    /// `AllocateOnWrite` is required for faithful data-cache counts.
    pub write_policy: tapeworm_mem::WritePolicy,
    /// The engine switch. On, the engine retires trap-free instruction
    /// runs through the resident-run fast path and serves runs of
    /// consecutive trapped chunks as one burst through
    /// `Tapeworm::service_burst` (one clock advance per burst, on the
    /// single cache and the split I-side). Off, it runs fully
    /// stepwise: per-chunk dispatch and one `handle_miss` per miss.
    /// Both give bit-identical results (pinned by
    /// `tests/stepwise/mod.rs`); the stepwise engine is the
    /// oracle.
    pub fast_path: bool,
}

impl SystemConfig {
    /// A standard cache-simulation config for a workload: the Figure 2
    /// machine parameters at 1/100 instruction scale.
    pub fn cache(workload: Workload, cache: CacheConfig) -> Self {
        SystemConfig {
            workload,
            model: SimModel::Cache(cache),
            measured: ComponentSet::all(),
            sample_denominator: 1,
            cost: CostKind::default(),
            scale: 100,
            base_cpi_milli: 1700,
            alloc: AllocPolicy::default(),
            frames: 16 * 1024,
            clock_period: 100_000,
            interrupt_handler_words: 512,
            masked_prefix_words: 16,
            dilate: true,
            write_policy: tapeworm_mem::WritePolicy::NoAllocateOnWrite,
            fast_path: true,
        }
    }

    /// A standard TLB-simulation config for a workload.
    pub fn tlb(workload: Workload, tlb: TlbSimConfig) -> Self {
        SystemConfig {
            model: SimModel::Tlb(tlb),
            ..SystemConfig::cache(workload, CacheConfig::new(4096, 16, 1).expect("valid"))
        }
    }

    /// A two-level cache-simulation config (traps encode L1 residency).
    pub fn two_level(workload: Workload, l1: CacheConfig, l2: CacheConfig) -> Self {
        SystemConfig {
            model: SimModel::TwoLevelCache(l1, l2),
            ..SystemConfig::cache(workload, l1)
        }
    }

    /// A kernel-trace-buffer baseline config (the §2 related-work
    /// comparison: complete coverage at trace-driven cost).
    pub fn kernel_trace_buffer(workload: Workload, cache: CacheConfig) -> Self {
        SystemConfig {
            model: SimModel::KernelTraceBuffer(cache),
            ..SystemConfig::cache(workload, cache)
        }
    }

    /// A split I/D cache-simulation config on an allocate-on-write
    /// host (the correct configuration for data-cache simulation).
    pub fn split(workload: Workload, icache: CacheConfig, dcache: CacheConfig) -> Self {
        SystemConfig {
            model: SimModel::SplitCache { icache, dcache },
            write_policy: tapeworm_mem::WritePolicy::AllocateOnWrite,
            ..SystemConfig::cache(workload, icache)
        }
    }

    /// Sets the measured component set.
    pub fn with_components(mut self, measured: ComponentSet) -> Self {
        self.measured = measured;
        self
    }

    /// Sets the set-sampling denominator.
    pub fn with_sampling(mut self, denominator: u64) -> Self {
        self.sample_denominator = denominator;
        self
    }

    /// Sets the instruction scale divisor.
    pub fn with_scale(mut self, scale: u64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the frame allocation policy.
    pub fn with_alloc(mut self, alloc: AllocPolicy) -> Self {
        self.alloc = alloc;
        self
    }

    /// Sets the engine switch, [`SystemConfig::fast_path`]: `false`
    /// runs fully stepwise.
    pub fn with_fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = enabled;
        self
    }

    /// `false` runs fully stepwise, like `with_fast_path(false)`;
    /// `true` leaves the config as it is (it cannot turn the fast path
    /// back on). Burst service has no switch of its own. Kept only for
    /// the repository benchmark's stepwise oracle
    /// (`twbench/src/trials.rs::oracle`); drop it with the next
    /// benchmark change.
    pub fn with_miss_batch(mut self, enabled: bool) -> Self {
        self.fast_path &= enabled;
        self
    }

    /// Does nothing. Kept only for the repository benchmark's stepwise
    /// oracle (`twbench/src/trials.rs::oracle`); drop it with the next
    /// benchmark change.
    pub fn with_miss_schedule(self, _enabled: bool) -> Self {
        self
    }

    /// Base CPI as a float.
    pub fn base_cpi(&self) -> f64 {
        self.base_cpi_milli as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_sets_cover_table6_axes() {
        assert!(ComponentSet::all().contains(Component::Kernel));
        assert!(ComponentSet::user_only().contains(Component::User));
        assert!(!ComponentSet::user_only().contains(Component::Kernel));
        let s = ComponentSet::servers_only();
        assert!(s.contains(Component::BsdServer) && s.contains(Component::XServer));
        assert!(!s.contains(Component::User));
        assert_eq!(ComponentSet::kernel_only().iter().count(), 1);
        assert_eq!(ComponentSet::empty().iter().count(), 0);
    }

    #[test]
    fn cost_kinds_materialize_distinct_models() {
        let cfg = CacheConfig::new(4096, 16, 1).unwrap();
        let a = CostKind::Optimized.model().cycles_per_miss(&cfg);
        let b = CostKind::UnoptimizedC.model().cycles_per_miss(&cfg);
        let c = CostKind::HardwareAssisted.model().cycles_per_miss(&cfg);
        assert!(c < a && a < b);
    }

    #[test]
    fn builders_compose() {
        let cfg = SystemConfig::cache(Workload::MpegPlay, CacheConfig::new(4096, 16, 1).unwrap())
            .with_components(ComponentSet::user_only())
            .with_sampling(8)
            .with_scale(500)
            .with_alloc(AllocPolicy::Sequential);
        assert_eq!(cfg.sample_denominator, 8);
        assert_eq!(cfg.scale, 500);
        assert_eq!(cfg.alloc, AllocPolicy::Sequential);
        assert!((cfg.base_cpi() - 1.7).abs() < 1e-12);
    }
}
