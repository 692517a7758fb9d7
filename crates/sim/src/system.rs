//! The full-system trial engine.
//!
//! One [`run_trial`] boots the simulated machine and OS, starts the
//! workload's task tree, and interleaves the kernel, server and user
//! reference streams in the Table 4 proportions until each component's
//! instruction budget is spent. Every reference goes through the VM
//! system (demand paging, page registration) and the host trap check,
//! so misses, slowdown, masked-trap bias and clock-interrupt pollution
//! all emerge from the mechanism rather than from closed-form
//! formulas.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use tapeworm_core::{BurstRequest, MissSchedule, SetSample, Tapeworm, TlbSim, TwoLevelTapeworm};
use tapeworm_machine::{AccessKind, Component, FetchOutcome, Machine, MachineConfig, Monster};
use tapeworm_mem::{
    ColoringAllocator, FrameAllocator, PhysAddr, RandomAllocator, SequentialAllocator, VirtAddr,
};
use tapeworm_obs::{
    CounterId, Counters, Phase, PhaseCycles, TrapEvent, TrapKind, TrapRing, TrialMetrics,
};
use tapeworm_os::{Os, OsConfig, OutOfMemoryError, TapewormAttrs, Tid, Translation, VmEvent};
use tapeworm_stats::SeedSeq;
use tapeworm_trace::{Cache2000Config, KernelTraceBuffer, KernelTraceBufferConfig};
use tapeworm_workload::{
    DataRef, ProcStream, RefStream, WorkloadSpec, DATA_SEGMENT_OFFSET, KERNEL_TEXT_BASE,
    USER_TEXT_BASE,
};

use crate::config::{AllocPolicy, SimModel, SystemConfig};
use crate::quanta::{self, Quantum, QuantumBlock, QuantumSource, RunningTrials};
use crate::result::TrialResult;

/// A trial aborted on an infeasible configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialError {
    /// The workload's footprint exceeded physical memory: the VM found
    /// no free frame on a demand-map.
    OutOfFrames {
        /// The underlying VM error (faulting task and page).
        source: OutOfMemoryError,
        /// The configured frame count.
        frames: usize,
    },
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::OutOfFrames { source, frames } => write!(
                f,
                "out of physical frames mapping vpn {:#x} for {}: the workload's \
                 footprint does not fit in {frames} frames — raise `SystemConfig::frames`",
                source.vpn, source.tid
            ),
        }
    }
}

impl Error for TrialError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrialError::OutOfFrames { source, .. } => Some(source),
        }
    }
}

/// Runs one trial of an experiment.
///
/// * `base` seeds everything that must stay fixed across trials
///   (reference streams, simulated-cache RNG).
/// * `trial` seeds the run-to-run system effects (physical frame
///   allocation, set-sample choice).
///
/// # Panics
///
/// Panics if the configuration is infeasible (e.g. so few frames that
/// the workload cannot be mapped) — see [`try_run_trial`] for the
/// non-panicking form.
pub fn run_trial(cfg: &SystemConfig, base: SeedSeq, trial: SeedSeq) -> TrialResult {
    match try_run_trial(cfg, base, trial) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run_trial`], but surfaces infeasible configurations as a
/// typed [`TrialError`] instead of panicking.
///
/// # Errors
///
/// [`TrialError::OutOfFrames`] when the workload's footprint exceeds
/// `SystemConfig::frames`.
pub fn try_run_trial(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
) -> Result<TrialResult, TrialError> {
    let mut scratch = TrialScratch::new();
    Ok(run_trial_core(cfg, base, trial, 0, None, &mut scratch, Dispatch::Auto)?.0)
}

/// Persistent per-worker scratch: the heap allocations of one trial's
/// engine (trap bitmap and frame counts, page tables, translation
/// cache, quantum-schedule blocks), salvaged when the trial finishes and
/// reused by the next one. A sweep worker that runs hundreds of trials
/// builds these buffers once instead of once per trial — the
/// thread-scaling fix — while the simulation itself stays bit-identical
/// (every buffer is reset to boot state on reuse, pinned by tests).
///
/// Not shared between threads: each worker owns one.
#[derive(Debug, Default)]
pub struct TrialScratch {
    machine: Option<tapeworm_machine::MachineScratch>,
    vm: Option<tapeworm_os::VmScratch>,
    /// Quantum-schedule blocks, with their data-reference buffers.
    blocks: Vec<QuantumBlock>,
    /// Burst-service scratch (the per-burst victim list); cleared on
    /// reuse, like every other buffer here.
    sched: Option<MissSchedule>,
}

impl TrialScratch {
    /// An empty scratch; the first trial populates it.
    pub fn new() -> Self {
        TrialScratch::default()
    }
}

/// Where a trial builds its quantum schedule. Every public entry point
/// uses [`Dispatch::Auto`]; the forced modes exist for the differential
/// tests, and all three give bit-identical trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum Dispatch {
    /// On a helper thread when a core is spare and the trial is large
    /// enough to repay the spawn, inline otherwise.
    Auto,
    /// Always on the engine's own thread.
    Inline,
    /// Always on a helper thread.
    Helper,
}

/// Runs one trial with every optional collector threaded through, and
/// recycles the engine's allocations back into `scratch` on the way
/// out. All public trial entry points funnel here.
fn run_trial_core(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
    ring_capacity: usize,
    window_instructions: Option<u64>,
    scratch: &mut TrialScratch,
    dispatch: Dispatch,
) -> Result<(TrialResult, Vec<WindowSample>, TrialMetrics), TrialError> {
    let running = RunningTrials::enter(1);
    let split = matches!(cfg.model, SimModel::SplitCache { .. });
    let source = QuantumSource::new(cfg.workload.spec(), cfg.scale, split, base);
    let helper = match dispatch {
        Dispatch::Auto => running.helper_pays(source.instructions()),
        Dispatch::Inline => false,
        Dispatch::Helper => true,
    };
    // An engine that fails to boot (OutOfFrames during text pre-map)
    // consumes the scratch; the next trial simply reallocates. That
    // path is cold and already aborting the trial.
    let mut engine = Engine::new(cfg, base, trial, source.users_created(), scratch)?;
    if ring_capacity > 0 {
        engine.ring = TrapRing::new(ring_capacity);
    }
    if let Some(period) = window_instructions {
        engine.window = Some((period, Vec::new()));
    }
    let out = engine.run_collect(source, &mut scratch.blocks, helper);
    engine.recycle(scratch);
    out
}

/// Observability options for [`run_trial_observed`].
///
/// Counter and phase-cycle collection is always on (the underlying
/// counters are plain branch-free integer increments); this only
/// controls the optional trap-event ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Capacity of the bounded trap-event ring. `0` (the default)
    /// disables event recording entirely; a full ring overwrites its
    /// oldest events and counts the loss.
    pub ring_capacity: usize,
}

impl ObsConfig {
    /// An observability configuration recording up to `capacity` trap
    /// events.
    pub fn with_ring(capacity: usize) -> Self {
        ObsConfig {
            ring_capacity: capacity,
        }
    }
}

/// Like [`run_trial`], additionally returning the trial's
/// [`TrialMetrics`]: the layered counter registry, the per-phase cycle
/// account, and (when `obs.ring_capacity > 0`) the drained trap-event
/// ring.
///
/// The [`TrialResult`] is bit-identical to [`run_trial`]'s — metrics
/// collection never perturbs the simulation.
///
/// # Panics
///
/// Panics if the configuration is infeasible — see
/// [`try_run_trial_observed`] for the non-panicking form.
pub fn run_trial_observed(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
    obs: ObsConfig,
) -> (TrialResult, TrialMetrics) {
    match try_run_trial_observed(cfg, base, trial, obs) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run_trial_observed`], but surfaces infeasible configurations
/// as a typed [`TrialError`] instead of panicking.
///
/// # Errors
///
/// [`TrialError::OutOfFrames`] when the workload's footprint exceeds
/// `SystemConfig::frames`.
pub fn try_run_trial_observed(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
    obs: ObsConfig,
) -> Result<(TrialResult, TrialMetrics), TrialError> {
    let mut scratch = TrialScratch::new();
    try_run_trial_observed_reusing(cfg, base, trial, obs, &mut scratch)
}

/// Like [`try_run_trial_observed`], but reuses (and refills) a
/// persistent [`TrialScratch`], so a worker running many trials
/// allocates its engine buffers once. Results and metrics are
/// bit-identical to the non-reusing form.
///
/// # Errors
///
/// [`TrialError::OutOfFrames`] when the workload's footprint exceeds
/// `SystemConfig::frames`.
pub fn try_run_trial_observed_reusing(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
    obs: ObsConfig,
    scratch: &mut TrialScratch,
) -> Result<(TrialResult, TrialMetrics), TrialError> {
    run_trial_core(
        cfg,
        base,
        trial,
        obs.ring_capacity,
        None,
        scratch,
        Dispatch::Auto,
    )
    .map(|(r, _, m)| (r, m))
}

/// One continuous-monitoring window (§5: "the use of continuous
/// monitoring and simulation opens up the possibility of using these
/// results to perform real-time hardware and software tuning").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Instructions executed when the window closed.
    pub end_instructions: u64,
    /// Raw misses observed *within* this window.
    pub misses: u64,
}

impl WindowSample {
    /// Window miss ratio given the window length in instructions.
    pub fn miss_ratio(&self, window_instructions: u64) -> f64 {
        if window_instructions == 0 {
            0.0
        } else {
            self.misses as f64 / window_instructions as f64
        }
    }
}

/// Like [`run_trial`], additionally sampling the raw miss count every
/// `window_instructions` executed instructions — the paper's
/// continuous-monitoring mode, feasible precisely because Tapeworm's
/// slowdowns "can be made imperceptible to the user".
///
/// # Panics
///
/// Panics if `window_instructions == 0` or the configuration is
/// infeasible — see [`try_run_trial_windowed`] for the non-panicking
/// form.
pub fn run_trial_windowed(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
    window_instructions: u64,
) -> (TrialResult, Vec<WindowSample>) {
    match try_run_trial_windowed(cfg, base, trial, window_instructions) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run_trial_windowed`], but surfaces infeasible configurations
/// as a typed [`TrialError`] instead of panicking.
///
/// # Errors
///
/// [`TrialError::OutOfFrames`] when the workload's footprint exceeds
/// `SystemConfig::frames`.
///
/// # Panics
///
/// Panics if `window_instructions == 0`.
pub fn try_run_trial_windowed(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
    window_instructions: u64,
) -> Result<(TrialResult, Vec<WindowSample>), TrialError> {
    assert!(window_instructions > 0, "window must be positive");
    let mut scratch = TrialScratch::new();
    run_trial_core(
        cfg,
        base,
        trial,
        0,
        Some(window_instructions),
        &mut scratch,
        Dispatch::Auto,
    )
    .map(|(r, w, _)| (r, w))
}

// Boxing `Sim::Cache` would add a pointer chase on every miss.
#[allow(clippy::large_enum_variant)]
enum Sim {
    Cache(Tapeworm),
    TwoLevel(TwoLevelTapeworm),
    Split { icache: Tapeworm, dcache: Tapeworm },
    Tlb(TlbSim),
    Buffer(KernelTraceBuffer),
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sim::Cache(_) => f.write_str("Sim::Cache"),
            Sim::TwoLevel(_) => f.write_str("Sim::TwoLevel"),
            Sim::Split { .. } => f.write_str("Sim::Split"),
            Sim::Tlb(_) => f.write_str("Sim::Tlb"),
            Sim::Buffer(_) => f.write_str("Sim::Buffer"),
        }
    }
}

struct Engine<'c> {
    cfg: &'c SystemConfig,
    spec: &'static WorkloadSpec,
    os: Os,
    machine: Machine,
    monster: Monster,
    sim: Sim,
    /// The clock-interrupt handler's code. Where ticks land depends on
    /// dilated time, so this stream is the engine's, not the
    /// schedule's.
    irq_stream: ProcStream,
    /// Every user task forked so far, by ordinal (the schedule's
    /// [`Quantum::task`]).
    user_tids: Vec<Tid>,
    shell: Tid,
    text_registry: HashMap<u64, tapeworm_mem::Pfn>,
    /// Fixed-point CPI accumulator (millicycles).
    cpi_acc_milli: u64,
    in_interrupt: bool,
    chunk_bytes: u64,
    /// Resident-run fast path enabled (`SystemConfig::fast_path`).
    fast_enabled: bool,
    /// Burst service enabled (`SystemConfig::miss_batch`).
    batch_enabled: bool,
    /// Burst-service scratch: the last burst's victims.
    sched: MissSchedule,
    /// Clean runs retired through the fast path.
    fast_runs: u64,
    /// Words retired through the fast path.
    fast_words: u64,
    /// Miss bursts served through `Tapeworm::service_burst`, masked
    /// ones included.
    miss_batch_flushes: u64,
    /// Clock ticks that fired but exceeded the per-interval delivery
    /// bound in [`Engine::advance`] (previously dropped silently).
    ticks_dropped: u64,
    /// Page size in bytes, hoisted out of the per-chunk loop.
    page_bytes: u64,
    /// Continuous-monitoring state: window length and collected
    /// samples.
    window: Option<(u64, Vec<crate::system::WindowSample>)>,
    /// Bounded trap-event ring (capacity 0 = disabled, the default).
    ring: TrapRing,
    /// Scheduler quanta dispatched by the round-robin loop.
    sched_quanta: u64,
}

impl<'c> Engine<'c> {
    /// Boots the machine and OS for one trial and forks the schedule's
    /// `initial_users` user tasks.
    fn new(
        cfg: &'c SystemConfig,
        base: SeedSeq,
        trial: SeedSeq,
        initial_users: u32,
        scratch: &mut TrialScratch,
    ) -> Result<Self, TrialError> {
        let spec = cfg.workload.spec();
        let page = tapeworm_mem::PageSize::DEFAULT;
        // The fast path assumes "frame clean" covers exactly the page a
        // run resides in.
        debug_assert_eq!(page.bytes(), tapeworm_mem::TrapMap::FRAME_BYTES);

        let allocator: Box<dyn FrameAllocator> = match cfg.alloc {
            AllocPolicy::Random => Box::new(RandomAllocator::new(cfg.frames, trial)),
            AllocPolicy::Sequential => Box::new(SequentialAllocator::new(cfg.frames)),
            AllocPolicy::Coloring(colors) => {
                Box::new(ColoringAllocator::new(cfg.frames, colors, trial))
            }
        };
        let mut os = Os::boot_reusing(
            OsConfig {
                page_size: page,
                frames: cfg.frames,
            },
            allocator,
            scratch.vm.take().unwrap_or_default(),
        );

        let (trap_granule, chunk_bytes) = match cfg.model {
            SimModel::Cache(c) => (c.line_bytes(), c.line_bytes()),
            SimModel::TwoLevelCache(l1, _) => (l1.line_bytes(), l1.line_bytes()),
            SimModel::SplitCache { icache, dcache } => {
                assert_eq!(
                    icache.line_bytes(),
                    dcache.line_bytes(),
                    "split caches must share a trap granule (line size)"
                );
                (icache.line_bytes(), icache.line_bytes())
            }
            SimModel::Tlb(_) => (16, page.bytes()),
            SimModel::KernelTraceBuffer(c) => (c.line_bytes(), c.line_bytes()),
        };
        let machine = Machine::new_reusing(
            MachineConfig {
                mem_bytes: cfg.frames as u64 * page.bytes(),
                trap_granule,
                clock_period: cfg.clock_period,
                breakpoint_registers: 4,
                write_policy: cfg.write_policy,
            },
            scratch.machine.take().unwrap_or_default(),
        );

        let sim = match cfg.model {
            SimModel::Cache(c) => {
                let sample = if cfg.sample_denominator > 1 {
                    SetSample::new(cfg.sample_denominator, trial)
                } else {
                    SetSample::full()
                };
                Sim::Cache(
                    Tapeworm::new(c, page.bytes(), base.derive("tapeworm", 0))
                        .with_sampling(sample)
                        .with_cost(cfg.cost.model()),
                )
            }
            SimModel::TwoLevelCache(l1, l2) => Sim::TwoLevel(TwoLevelTapeworm::new(
                l1,
                l2,
                page.bytes(),
                base.derive("tapeworm2l", 0),
            )),
            SimModel::SplitCache { icache, dcache } => Sim::Split {
                icache: Tapeworm::new(icache, page.bytes(), base.derive("tapeworm-i", 0))
                    .with_cost(cfg.cost.model()),
                dcache: Tapeworm::new(dcache, page.bytes(), base.derive("tapeworm-d", 0))
                    .with_cost(cfg.cost.model()),
            },
            SimModel::Tlb(t) => Sim::Tlb(TlbSim::new(t, page, base.derive("tlbsim", 0))),
            SimModel::KernelTraceBuffer(c) => Sim::Buffer(KernelTraceBuffer::new(
                KernelTraceBufferConfig::with_cache(Cache2000Config::with_geometry(
                    c.size_bytes(),
                    c.line_bytes(),
                    c.associativity(),
                )),
            )),
        };

        // Tapeworm attributes per the measured component set.
        let on = |sim: bool| TapewormAttrs {
            simulate: sim,
            inherit: false,
        };
        os.tw_attributes(Tid::KERNEL, on(cfg.measured.contains(Component::Kernel)))
            .expect("kernel exists");
        let bsd = os.bsd_server();
        let x = os.x_server();
        os.tw_attributes(bsd, on(cfg.measured.contains(Component::BsdServer)))
            .expect("bsd server exists");
        os.tw_attributes(x, on(cfg.measured.contains(Component::XServer)))
            .expect("x server exists");

        // The workload shell: excluded from simulation itself, children
        // inherit per the measured set — the paper's canonical
        // (simulate=0, inherit=1) usage.
        let shell = os.spawn_user().expect("room for the shell");
        os.tw_attributes(
            shell,
            TapewormAttrs {
                simulate: false,
                inherit: cfg.measured.contains(Component::User),
            },
        )
        .expect("shell exists");

        // Pre-map shared text through the immortal shell so text frames
        // are stable for the whole run.
        let mut text_registry = HashMap::new();
        if spec.shared_text {
            let pages = spec.user_stream.footprint_bytes.div_ceil(page.bytes());
            for i in 0..pages {
                let vpn = USER_TEXT_BASE / page.bytes() + i;
                let (pfn, _ev) =
                    os.vm_mut()
                        .map_new(shell, vpn)
                        .map_err(|source| TrialError::OutOfFrames {
                            source,
                            frames: cfg.frames,
                        })?;
                text_registry.insert(vpn, pfn);
            }
        }

        let mut engine = Engine {
            cfg,
            spec,
            os,
            machine,
            monster: Monster::new(),
            sim,
            irq_stream: ProcStream::new(
                KERNEL_TEXT_BASE,
                spec.kernel_stream,
                base.derive("irq-stream", 0),
            ),
            user_tids: Vec::new(),
            shell,
            text_registry,
            cpi_acc_milli: 0,
            in_interrupt: false,
            chunk_bytes,
            fast_enabled: cfg.fast_path,
            batch_enabled: cfg.miss_batch,
            sched: std::mem::take(&mut scratch.sched).unwrap_or_default(),
            fast_runs: 0,
            fast_words: 0,
            miss_batch_flushes: 0,
            ticks_dropped: 0,
            page_bytes: page.bytes(),
            window: None,
            ring: TrapRing::new(0),
            sched_quanta: 0,
        };
        for _ in 0..initial_users {
            engine.fork_user();
        }
        Ok(engine)
    }

    /// Returns the engine's reusable allocations to `scratch` for the
    /// worker's next trial.
    fn recycle(self, scratch: &mut TrialScratch) {
        scratch.machine = Some(self.machine.into_scratch());
        scratch.vm = Some(self.os.into_scratch());
        scratch.sched = Some(self.sched);
    }

    /// Forks the next user task from the shell. The schedule forks its
    /// streams at the same point, so ordinals agree.
    fn fork_user(&mut self) {
        let tid = self.os.fork(self.shell).expect("task table has room");
        self.user_tids.push(tid);
    }

    /// Exits a user task whose quota is spent and, while the workload
    /// has tasks left to start, forks the next one.
    fn exit_user(&mut self, tid: Tid) -> Result<(), TrialError> {
        let events = self.os.exit(tid).expect("live task exits");
        for ev in events {
            self.forward_event(ev)?;
        }
        if self.user_tids.len() < self.spec.user_task_count as usize {
            self.fork_user();
        }
        Ok(())
    }

    fn forward_event(&mut self, ev: VmEvent) -> Result<(), TrialError> {
        let is_data = match ev {
            VmEvent::PageRegistered { vpn, .. } | VmEvent::PageRemoved { vpn, .. } => {
                is_data_va(vpn * self.page_bytes)
            }
        };
        let cycles = match &mut self.sim {
            Sim::Cache(tw) => tw.on_vm_event(self.machine.traps_mut(), ev),
            Sim::TwoLevel(tw) => tw.on_vm_event(self.machine.traps_mut(), ev),
            Sim::Split { icache, dcache } => {
                let side = if is_data { dcache } else { icache };
                side.on_vm_event(self.machine.traps_mut(), ev)
            }
            Sim::Tlb(ts) => {
                ts.on_vm_event(self.os.vm_mut(), ev);
                0
            }
            // The trace buffer needs no page registration: it sees
            // every reference directly.
            Sim::Buffer(_) => 0,
        };
        if cycles > 0 {
            self.advance(0, cycles)?;
        }
        Ok(())
    }

    /// Processes a batch of data references against the simulated data
    /// cache (split mode only).
    fn exec_data_refs(
        &mut self,
        component: Component,
        tid: Tid,
        refs: &[DataRef],
    ) -> Result<(), TrialError> {
        for &r in refs {
            let pa = self.touch(component, tid, r.va)?;
            let kind = if r.is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let mut overhead = 0;
            match self.machine.access(kind, r.va, pa) {
                FetchOutcome::Run => {}
                FetchOutcome::EccTrap => {
                    if let Sim::Split { dcache, .. } = &mut self.sim {
                        overhead =
                            dcache.handle_miss(self.machine.traps_mut(), component, tid, r.va, pa);
                    }
                    if self.ring.enabled() {
                        self.record_trap(TrapKind::Data, tid, r.va);
                    }
                }
                FetchOutcome::MaskedEccSkipped => {
                    if let Sim::Split { dcache, .. } = &mut self.sim {
                        dcache.note_masked_miss();
                    }
                }
                // The §4.4 hazard: the store destroyed the trap and the
                // simulated data cache silently loses this miss. The
                // machine's counter records the damage.
                FetchOutcome::WriteTrapDestroyed => {}
                FetchOutcome::Breakpoint => unreachable!("no breakpoints armed"),
            }
            if overhead > 0 {
                self.advance(0, overhead)?;
            }
        }
        Ok(())
    }

    /// Translates (and demand-maps) one chunk-aligned address through
    /// the VM's translation cache.
    fn touch(
        &mut self,
        component: Component,
        tid: Tid,
        va: VirtAddr,
    ) -> Result<PhysAddr, TrialError> {
        loop {
            match self.os.vm_mut().translate_cached(tid, va) {
                Translation::Mapped(pa) => return Ok(pa),
                Translation::TapewormPageTrap(_) => {
                    let vpn = va.page_number(self.page_bytes);
                    let cycles = match &mut self.sim {
                        Sim::Tlb(ts) => ts.handle_page_trap(self.os.vm_mut(), component, tid, vpn),
                        _ => unreachable!("valid bits are only cleared in TLB mode"),
                    };
                    if self.ring.enabled() {
                        self.record_trap(TrapKind::Tlb, tid, va);
                    }
                    self.advance(0, cycles)?;
                }
                Translation::NotMapped => {
                    let vpn = va.page_number(self.page_bytes);
                    let shared = component == Component::User
                        && self.spec.shared_text
                        && self.text_registry.contains_key(&vpn);
                    let ev = if shared {
                        let pfn = self.text_registry[&vpn];
                        self.os.vm_mut().map_shared(tid, vpn, pfn)
                    } else {
                        let (_pfn, ev) = self.os.vm_mut().map_new(tid, vpn).map_err(|source| {
                            TrialError::OutOfFrames {
                                source,
                                frames: self.cfg.frames,
                            }
                        })?;
                        ev
                    };
                    if self.os.is_simulated(tid) {
                        self.forward_event(ev)?;
                    }
                }
            }
        }
    }

    /// Records one trap event in the ring, pulling the victim from
    /// whichever simulator just handled the miss. Called only on the
    /// (cold) trap path, and only when the ring is enabled.
    #[cold]
    fn record_trap(&mut self, kind: TrapKind, tid: Tid, va: VirtAddr) {
        let victim = match (&self.sim, kind) {
            (Sim::Cache(tw), _) => tw.last_victim().map(|pa| pa.raw()),
            (Sim::Split { dcache, .. }, TrapKind::Data) => dcache.last_victim().map(|pa| pa.raw()),
            (Sim::Split { icache, .. }, _) => icache.last_victim().map(|pa| pa.raw()),
            (Sim::Tlb(ts), _) => ts.last_victim(),
            // No victim tracking for the two-level hierarchy or the
            // annotated trace buffer.
            (Sim::TwoLevel(_) | Sim::Buffer(_), _) => None,
        };
        self.ring.record(TrapEvent {
            cycle: self.machine.now(),
            tid: tid.raw(),
            vpn: va.page_number(self.page_bytes),
            kind,
            victim,
        });
    }

    /// Executes `words` sequential fetches starting at `va` for a
    /// component, charging workload time and handling traps.
    fn exec_words(
        &mut self,
        component: Component,
        tid: Tid,
        va: VirtAddr,
        words: u32,
    ) -> Result<(), TrialError> {
        let mut remaining = u64::from(words);
        let mut va = va;
        // Page-local translation memo `(vpn, pa − va)`: consecutive
        // chunks of one run usually share a page, so most chunks skip
        // even the translation cache. Mappings cannot change under a
        // running quantum (exits happen between quanta; interrupts
        // only *add* kernel mappings), and in TLB mode — where valid
        // bits do flip mid-run — a chunk is a whole page, so the memo
        // is never reused there. Bit-exact by construction.
        let mut memo: Option<(u64, u64)> = None;
        while remaining > 0 {
            let chunk_end = va.line_base(self.chunk_bytes) + self.chunk_bytes;
            let words_to_end = (chunk_end - va) / tapeworm_mem::WORD_BYTES;
            let w = remaining.min(words_to_end);
            let vpn = va.page_number(self.page_bytes);
            let pa = match memo {
                Some((m_vpn, delta)) if m_vpn == vpn => PhysAddr::new(va.raw().wrapping_add(delta)),
                _ => {
                    let pa = self.touch(component, tid, va)?;
                    memo = Some((vpn, pa.raw().wrapping_sub(va.raw())));
                    pa
                }
            };

            // Resident-run fast path: every chunk whose probe point
            // lies in a trap-free stretch of the frame is
            // FetchOutcome::Run, so the per-chunk dispatch below is pure
            // bookkeeping — retire the whole clean run in one batch.
            // The common case (frame carries zero traps at all — true
            // for every page of an unsimulated component) is one O(1)
            // per-frame-count load; otherwise a word-at-a-time bitmap
            // scan sizes the clean prefix, batching resident hit runs
            // between traps. Bit-exactness by construction:
            // * the batch never crosses the page, so one translation
            //   covers it and physical contiguity is guaranteed;
            // * the batch's total workload cycles stay strictly below
            //   `cycles_until_tick()`, so the single advance() fires no
            //   interrupt — handler delivery positions are untouched
            //   (the chunk that would cross the tick runs below);
            // * the batch ends on a slow-path iteration boundary, and
            //   retire_clean_run replicates the per-chunk breakpoint
            //   probes, so every observability counter matches;
            // * trap state only mutates inside miss/VM handlers, which
            //   cannot run mid-batch, so the span measured at the batch
            //   head stays valid for the whole batch.
            // TLB mode never reaches machine.access here (and a chunk is
            // a whole page); the trace buffer pays per reference by
            // design. Both are excluded.
            if self.fast_enabled && !matches!(self.sim, Sim::Tlb(_) | Sim::Buffer(_)) {
                let chunk_words = self.chunk_bytes / tapeworm_mem::WORD_BYTES;
                let page_words =
                    ((vpn + 1) * self.page_bytes - va.raw()) / tapeworm_mem::WORD_BYTES;
                let cpi = self.cfg.base_cpi_milli;
                // Span first, tick budget second: the trap-free span
                // decides between the clean batch and the miss burst,
                // and a chunk headed for a miss skips the tick-budget
                // division entirely. A clean frame (the
                // unsimulated-component case) answers in one per-frame
                // count load; a partially trapped frame costs a short
                // chunked bitmap scan that ends at the first trapped
                // granule.
                let max_words = remaining.min(page_words);
                let span_words = if self.machine.frame_clean(pa) {
                    max_words
                } else {
                    self.machine
                        .clean_span(pa, max_words * tapeworm_mem::WORD_BYTES)
                        / tapeworm_mem::WORD_BYTES
                };
                if span_words >= w {
                    // Largest word count whose cycles stay short of the
                    // tick: acc + n·cpi < until·1000. The accumulator is
                    // < 1000 and until ≥ 1, so the budget is ≥ 1.
                    let budget_milli = self
                        .machine
                        .cycles_until_tick()
                        .saturating_mul(1000)
                        .saturating_sub(self.cpi_acc_milli);
                    // min(remaining, page, span) then min(tick) equals
                    // the stepwise min(remaining, page, tick) clipped to
                    // the span: clean_span already clips to max_words.
                    // When the whole span fits under the tick
                    // (span·cpi < budget, so span·cpi ≤ budget − 1 and
                    // span ≤ ⌊(budget − 1)/cpi⌋; always so for cpi = 0)
                    // the tick bound cannot clip and the division is
                    // skipped. The product saturates, so an overflow
                    // only sends the chunk to the division.
                    let cap = if span_words.saturating_mul(cpi) < budget_milli {
                        span_words
                    } else {
                        span_words.min((budget_milli - 1) / cpi)
                    };
                    if cap >= w {
                        // Align the batch end to a slow-path iteration
                        // boundary: the first (possibly partial) chunk
                        // plus whole chunks only. A chunk is one line,
                        // a power of two, so the quotient is a shift.
                        debug_assert!(chunk_words.is_power_of_two());
                        let chunks = 1 + ((cap - w) >> chunk_words.trailing_zeros());
                        let batch = w + (chunks - 1) * chunk_words;
                        if !self
                            .machine
                            .breakpoints_in(va, batch * tapeworm_mem::WORD_BYTES)
                        {
                            self.machine.retire_clean_run(batch, chunks);
                            self.cpi_acc_milli += batch * cpi;
                            let workload_cycles = self.cpi_acc_milli / 1000;
                            self.cpi_acc_milli %= 1000;
                            self.monster.record(component, batch, workload_cycles);
                            self.advance(workload_cycles, 0)?;
                            self.fast_runs += 1;
                            self.fast_words += batch;
                            va += batch * tapeworm_mem::WORD_BYTES;
                            remaining -= batch;
                            continue;
                        }
                    }
                } else if self.batch_enabled {
                    // Batched miss burst: the probe point sits short of
                    // a trapped granule, so this chunk (and typically a
                    // run of successors — cold pages trap every line)
                    // takes the miss path. `service_burst` serves the
                    // whole trapped run through the handler's own table
                    // steps, and the engine flushes retire/phase/clock
                    // bookkeeping once. Bit-exactness by construction:
                    // * every trap-bit transition, victim and random
                    //   draw is the stepwise sequence (see
                    //   `Tapeworm::service_burst`), and every probed
                    //   chunk is a proven trap, so the batched retire
                    //   replays exactly the per-chunk counter updates;
                    // * the burst ends at the first chunk whose granule
                    //   is clean, so the fast path above commits
                    //   exactly the batches (and counts exactly the
                    //   fast_runs/fast_words) it would have stepwise;
                    // * every chunk's worst-case dilated cost is
                    //   strictly pre-checked against the remaining tick
                    //   budget, so the single deferred advance() fires
                    //   no interrupt — handler delivery positions are
                    //   untouched;
                    // * the burst never crosses the page, so the memo
                    //   translation covers it;
                    // * ring events carry the virtual timestamp the
                    //   stepwise clock would show at that trap — the
                    //   base clock plus exactly the workload/dilated
                    //   overhead cycles the deferred advance() will
                    //   apply for the chunks already burst.
                    //
                    // The kernel's statement of how far one trap-service
                    // pass may run: the live mapping's remaining page
                    // span (a counting-free page-table read). Also
                    // cross-checks the page memo against the real page
                    // table.
                    let page_end = match self.os.trap_service_span(tid, va) {
                        Some((span_pa, span_bytes)) => {
                            debug_assert_eq!(
                                span_pa.raw(),
                                pa.raw(),
                                "page memo agrees with the page table"
                            );
                            va.raw() + span_bytes
                        }
                        None => (vpn + 1) * self.page_bytes,
                    };
                    // Only constant-cost handlers qualify (the budget
                    // pre-check must bound the charge): the single
                    // cache and the split icache — the two-level
                    // hierarchy's L2-dependent cost stays stepwise.
                    let tw = match &mut self.sim {
                        Sim::Cache(tw) | Sim::Split { icache: tw, .. } => Some(tw),
                        _ => None,
                    };
                    if let Some(tw) =
                        tw.filter(|_| !self.machine.breakpoints_in(va, page_end - va.raw()))
                    {
                        let ring_on = self.ring.enabled();
                        let miss_ov = tw.miss_overhead_cycles();
                        let req = BurstRequest {
                            component,
                            tid,
                            va,
                            pa,
                            rem_words: remaining,
                            page_end_va: page_end,
                            budget_milli: self
                                .machine
                                .cycles_until_tick()
                                .saturating_mul(1000)
                                .saturating_sub(self.cpi_acc_milli),
                            cpi_milli: cpi,
                            dilate_ov_milli: if self.cfg.dilate {
                                miss_ov.saturating_mul(1000)
                            } else {
                                0
                            },
                            masked: !self.machine.interrupts_enabled(),
                            want_victims: ring_on,
                        };
                        if let Some(s) =
                            tw.service_burst(self.machine.traps_mut(), &mut self.sched, &req)
                        {
                            if ring_on && !req.masked {
                                // Re-derive each miss's stepwise virtual
                                // timestamp from the CPI telescoping
                                // identity: the cycles burst before
                                // chunk i are floor((acc0 + prefix_i) /
                                // 1000), plus i dilated miss overheads.
                                let now = self.machine.now();
                                let mut prefix_milli = self.cpi_acc_milli;
                                let mut rem_w = remaining;
                                let mut cva = va;
                                for (i, victim) in self.sched.last_burst_victims().enumerate() {
                                    let dilated = if self.cfg.dilate {
                                        i as u64 * miss_ov
                                    } else {
                                        0
                                    };
                                    self.ring.record(TrapEvent {
                                        cycle: now + prefix_milli / 1000 + dilated,
                                        tid: tid.raw(),
                                        vpn,
                                        kind: TrapKind::IFetch,
                                        victim,
                                    });
                                    let cend = cva.line_base(self.chunk_bytes) + self.chunk_bytes;
                                    let cw = rem_w.min((cend - cva) / tapeworm_mem::WORD_BYTES);
                                    prefix_milli += cw * cpi;
                                    rem_w -= cw;
                                    cva += cw * tapeworm_mem::WORD_BYTES;
                                }
                            }
                            // Machine-side flush: one batched retire +
                            // trap/breakpoint counters, one deferred
                            // advance (the budget pre-check inside
                            // service_burst guarantees it fires no
                            // tick).
                            self.machine.retire_trapped_burst(s.words, s.chunks);
                            self.cpi_acc_milli += s.words * cpi;
                            let burst_cycles = self.cpi_acc_milli / 1000;
                            self.cpi_acc_milli %= 1000;
                            self.monster.record(component, s.words, burst_cycles);
                            self.miss_batch_flushes += 1;
                            self.advance(burst_cycles, s.overhead_cycles)?;
                            va += s.words * tapeworm_mem::WORD_BYTES;
                            remaining -= s.words;
                            continue;
                        }
                    }
                }
            }

            let mut overhead = 0u64;
            if let Sim::Buffer(kt) = &mut self.sim {
                // The annotated system records every fetch (all
                // components), paying per reference.
                for i in 0..w {
                    kt.reference(component, va + i * tapeworm_mem::WORD_BYTES);
                }
            } else if !matches!(self.sim, Sim::Tlb(_)) {
                match self.machine.access(AccessKind::IFetch, va, pa) {
                    FetchOutcome::Run => {}
                    FetchOutcome::EccTrap => {
                        overhead = match &mut self.sim {
                            Sim::Cache(tw) => {
                                tw.handle_miss(self.machine.traps_mut(), component, tid, va, pa)
                            }
                            Sim::TwoLevel(tw) => {
                                tw.handle_miss(self.machine.traps_mut(), component, tid, va, pa)
                            }
                            Sim::Split { icache, .. } => {
                                icache.handle_miss(self.machine.traps_mut(), component, tid, va, pa)
                            }
                            Sim::Tlb(_) | Sim::Buffer(_) => unreachable!(),
                        };
                        if self.ring.enabled() {
                            self.record_trap(TrapKind::IFetch, tid, va);
                        }
                    }
                    FetchOutcome::MaskedEccSkipped => match &mut self.sim {
                        Sim::Cache(tw) => tw.note_masked_miss(),
                        Sim::Split { icache, .. } => icache.note_masked_miss(),
                        _ => {}
                    },
                    FetchOutcome::WriteTrapDestroyed | FetchOutcome::Breakpoint => {
                        unreachable!("instruction fetches with no breakpoints armed")
                    }
                }
            }

            self.machine.retire(w);
            self.cpi_acc_milli += w * self.cfg.base_cpi_milli;
            let workload_cycles = self.cpi_acc_milli / 1000;
            self.cpi_acc_milli %= 1000;
            self.monster.record(component, w, workload_cycles);
            self.advance(workload_cycles, overhead)?;

            va += w * tapeworm_mem::WORD_BYTES;
            remaining -= w;
        }
        Ok(())
    }

    /// Advances wall-clock time and services any clock interrupts. At
    /// most four ticks are delivered per interval (the hardware's
    /// pending-interrupt latch depth); extras are discarded — but no
    /// longer silently: the loss is tallied in `ticks_dropped` and
    /// surfaced as the `clock_ticks_dropped` counter.
    fn advance(&mut self, workload_cycles: u64, overhead_cycles: u64) -> Result<(), TrialError> {
        let dilated = workload_cycles + if self.cfg.dilate { overhead_cycles } else { 0 };
        let fired = self.machine.advance(dilated);
        if fired > 0 && !self.in_interrupt {
            let deliverable = fired.min(4);
            self.ticks_dropped += fired - deliverable;
            for _ in 0..deliverable {
                self.run_interrupt_handler()?;
            }
        }
        Ok(())
    }

    /// The clock-interrupt handler: kernel code that runs on every
    /// tick, polluting the cache — the Figure 4 dilation mechanism.
    /// Its prefix runs with interrupts masked, losing any ECC traps
    /// there (the §4.2 masked-trap bias).
    #[cold]
    fn run_interrupt_handler(&mut self) -> Result<(), TrialError> {
        self.in_interrupt = true;
        let total = self.cfg.interrupt_handler_words;
        let masked = self.cfg.masked_prefix_words.min(total);
        let mut executed = 0u32;
        self.machine.set_interrupts_enabled(false);
        while executed < total {
            let run = self.irq_stream.next_run();
            let w = run.words.min(total - executed);
            if executed < masked && executed + w > masked {
                // Split the run at the unmask boundary.
                let head = masked - executed;
                self.exec_words(Component::Kernel, Tid::KERNEL, run.va, head)?;
                self.machine.set_interrupts_enabled(true);
                self.exec_words(
                    Component::Kernel,
                    Tid::KERNEL,
                    run.va + u64::from(head) * tapeworm_mem::WORD_BYTES,
                    w - head,
                )?;
            } else {
                self.exec_words(Component::Kernel, Tid::KERNEL, run.va, w)?;
                if executed + w >= masked {
                    self.machine.set_interrupts_enabled(true);
                }
            }
            executed += w;
        }
        self.machine.set_interrupts_enabled(true);
        self.in_interrupt = false;
        Ok(())
    }

    /// Runs one block of the schedule: each pick's fetches, then its
    /// data references, then (user tasks) its exit, with the
    /// per-quantum counter and window sample after each.
    fn run_block(&mut self, block: &QuantumBlock) -> Result<(), TrialError> {
        let mut data_start = 0;
        for q in &block.quanta {
            let data_end = q.data_end as usize;
            self.sched_quanta += 1;
            self.run_quantum(q, &block.data[data_start..data_end])?;
            data_start = data_end;
            if self.window.is_some() {
                self.sample_windows();
            }
        }
        Ok(())
    }

    /// Runs one scheduling quantum: `q`'s fetches and `refs`, its data
    /// references (split-cache simulations only).
    fn run_quantum(&mut self, q: &Quantum, refs: &[DataRef]) -> Result<(), TrialError> {
        if q.words == 0 {
            return Ok(());
        }
        let tid = match q.component {
            Component::Kernel => Tid::KERNEL,
            Component::BsdServer => self.os.bsd_server(),
            Component::XServer => self.os.x_server(),
            Component::User => self.user_tids[q.task as usize],
        };
        self.exec_words(q.component, tid, q.va(), q.words)?;
        self.exec_data_refs(q.component, tid, refs)?;
        if q.exits {
            self.exit_user(tid)?;
        }
        Ok(())
    }

    fn current_raw_misses(&self) -> u64 {
        match &self.sim {
            Sim::Buffer(kt) => kt.total_misses(),
            Sim::Cache(tw) => tw.stats().raw_total(),
            Sim::TwoLevel(tw) => tw.l1_stats().raw_total(),
            Sim::Split { icache, dcache } => {
                icache.stats().raw_total() + dcache.stats().raw_total()
            }
            Sim::Tlb(ts) => ts.stats().raw_total(),
        }
    }

    fn sample_windows(&mut self) {
        let misses_now = self.current_raw_misses();
        let instr_now = self.monster.total_instructions();
        if let Some((period, samples)) = &mut self.window {
            let boundary = (samples.len() as u64 + 1) * *period;
            if instr_now >= boundary {
                let prev: u64 = samples.iter().map(|s| s.misses).sum();
                samples.push(crate::system::WindowSample {
                    end_instructions: instr_now,
                    misses: misses_now - prev,
                });
            }
        }
    }

    /// Assembles the trial's observability metrics: counters from every
    /// layer, the per-phase cycle account, and the drained event ring.
    fn collect_metrics(&mut self) -> TrialMetrics {
        let mut counters = Counters::new();
        counters.add(CounterId::TrapEntries, self.machine.trap_entries());
        counters.add(CounterId::TrapsSet, self.machine.traps().set_events());
        counters.add(CounterId::TrapsCleared, self.machine.traps().clear_events());
        counters.add(CounterId::TcacheHits, self.os.vm().tc_hits());
        counters.add(CounterId::TcacheMisses, self.os.vm().tc_misses());
        counters.add(CounterId::PageWalks, self.os.vm().walks());
        counters.add(
            CounterId::BreakpointChecks,
            self.machine.breakpoint_checks(),
        );
        counters.add(CounterId::SchedQuanta, self.sched_quanta);
        counters.add(CounterId::ClockTicksDropped, self.ticks_dropped);
        counters.add(CounterId::FastRuns, self.fast_runs);
        counters.add(CounterId::FastWords, self.fast_words);
        counters.add(CounterId::MissBatchFlushes, self.miss_batch_flushes);
        let sparse = self
            .machine
            .sparse_stats()
            .merge(self.os.vm().sparse_stats());
        counters.add(CounterId::SparseChunksAllocated, sparse.chunks_allocated);
        counters.add(CounterId::ZeroChunksDeduped, sparse.zero_chunks_deduped);
        counters.add(CounterId::ChunkFaults, sparse.chunk_faults);
        // Every flush is one served burst. VictimMemoHits, SchedReplays
        // and SchedSigMisses are retired slots (always 0).
        counters.add(CounterId::SchedRecords, self.miss_batch_flushes);

        let mut phases = PhaseCycles::new();
        phases.add(Phase::Kernel, self.monster.cycles(Component::Kernel));
        phases.add(
            Phase::User,
            self.monster.cycles(Component::BsdServer)
                + self.monster.cycles(Component::XServer)
                + self.monster.cycles(Component::User),
        );
        let (handler, replacement) = match &self.sim {
            Sim::Cache(tw) => (tw.handler_cycles(), tw.replacement_cycles()),
            Sim::Split { icache, dcache } => (
                icache.handler_cycles() + dcache.handler_cycles(),
                icache.replacement_cycles() + dcache.replacement_cycles(),
            ),
            // These simulators model no handler/replacement split; all
            // their overhead is booked as handler time.
            Sim::TwoLevel(tw) => (tw.overhead_cycles(), 0),
            Sim::Tlb(ts) => (ts.overhead_cycles(), 0),
            Sim::Buffer(kt) => (kt.overhead_cycles(), 0),
        };
        phases.add(Phase::Handler, handler);
        phases.add(Phase::Replacement, replacement);

        let events_recorded = self.ring.recorded();
        let events_dropped = self.ring.dropped();
        TrialMetrics {
            counters,
            phases,
            events: self.ring.drain(),
            events_recorded,
            events_dropped,
        }
    }

    /// Runs `source`'s whole schedule (on a helper thread when
    /// `helper`) and assembles the trial's result, windows and metrics.
    fn run_collect(
        &mut self,
        source: QuantumSource,
        blocks: &mut Vec<QuantumBlock>,
        helper: bool,
    ) -> Result<(TrialResult, Vec<crate::system::WindowSample>, TrialMetrics), TrialError> {
        quanta::drive(source, blocks, helper, |block| self.run_block(block))?;

        let (misses, raw, overhead, masked, l2_misses, data_misses) = match &self.sim {
            Sim::Cache(tw) => (
                Component::ALL.map(|c| tw.stats().estimated_misses(c)),
                Component::ALL.map(|c| tw.stats().raw_misses(c)),
                tw.overhead_cycles(),
                tw.stats().masked(),
                None,
                None,
            ),
            Sim::TwoLevel(tw) => (
                Component::ALL.map(|c| tw.l1_stats().estimated_misses(c)),
                Component::ALL.map(|c| tw.l1_stats().raw_misses(c)),
                tw.overhead_cycles(),
                0,
                Some(Component::ALL.map(|c| tw.l2_stats().estimated_misses(c))),
                None,
            ),
            Sim::Split { icache, dcache } => (
                Component::ALL.map(|c| icache.stats().estimated_misses(c)),
                Component::ALL.map(|c| icache.stats().raw_misses(c)),
                icache.overhead_cycles() + dcache.overhead_cycles(),
                icache.stats().masked() + dcache.stats().masked(),
                None,
                Some(Component::ALL.map(|c| dcache.stats().estimated_misses(c))),
            ),
            Sim::Tlb(ts) => (
                Component::ALL.map(|c| ts.stats().estimated_misses(c)),
                Component::ALL.map(|c| ts.stats().raw_misses(c)),
                ts.overhead_cycles(),
                0,
                None,
                None,
            ),
            Sim::Buffer(kt) => (
                Component::ALL.map(|c| kt.misses(c) as f64),
                Component::ALL.map(|c| kt.misses(c)),
                kt.overhead_cycles(),
                0,
                None,
                None,
            ),
        };
        let result = TrialResult::new(
            misses,
            raw,
            l2_misses,
            data_misses,
            self.machine.write_traps_destroyed(),
            self.monster.total_instructions(),
            self.monster.total_cycles(),
            overhead,
            self.machine.clock_interrupts(),
            masked,
            self.os.vm().faults(),
            self.user_tids.len() as u64,
        );
        let metrics = self.collect_metrics();
        let windows = self.window.take().map(|(_, s)| s).unwrap_or_default();
        Ok((result, windows, metrics))
    }
}

/// Whether a virtual address lies in a data segment. Every component's
/// data segment sits [`DATA_SEGMENT_OFFSET`] above its text base, and
/// all text footprints are far smaller than that offset.
fn is_data_va(va: u64) -> bool {
    let off = if va >= KERNEL_TEXT_BASE {
        va - KERNEL_TEXT_BASE
    } else {
        va
    };
    off >= DATA_SEGMENT_OFFSET
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workload", &self.spec.name)
            .field("users_created", &self.user_tids.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ComponentSet;
    use tapeworm_core::{CacheConfig, TlbSimConfig};
    use tapeworm_workload::Workload;

    fn small_cfg() -> SystemConfig {
        let cache = CacheConfig::new(4096, 16, 1).expect("valid geometry");
        SystemConfig::cache(Workload::Espresso, cache).with_scale(20_000)
    }

    #[test]
    fn observed_trial_matches_plain_and_collects_metrics() {
        let cfg = small_cfg();
        let (base, trial) = (SeedSeq::new(1), SeedSeq::new(2));
        let plain = run_trial(&cfg, base, trial);
        let (observed, metrics) = run_trial_observed(&cfg, base, trial, ObsConfig::with_ring(64));
        // Observation never perturbs the simulation.
        assert_eq!(plain, observed);
        // Every handler entry produced exactly one ring event.
        assert_eq!(
            metrics.events_recorded,
            metrics.counters.get(CounterId::TrapEntries)
        );
        assert!(metrics.events_recorded > 0);
        assert_eq!(
            metrics.events.len() as u64 + metrics.events_dropped,
            metrics.events_recorded
        );
        // The phase account books every cycle of the trial.
        assert_eq!(metrics.phases.overhead(), observed.overhead_cycles);
        assert_eq!(metrics.phases.workload(), observed.workload_cycles);
        // A disabled ring records nothing but counts stay on.
        let (_, quiet) = run_trial_observed(&cfg, base, trial, ObsConfig::default());
        assert_eq!(quiet.events_recorded, 0);
        assert!(quiet.events.is_empty());
        assert_eq!(quiet.counters, metrics.counters);
        assert_eq!(quiet.phases, metrics.phases);
    }

    #[test]
    fn ring_events_are_ordered_and_well_formed() {
        let cfg = small_cfg();
        let (_, metrics) = run_trial_observed(
            &cfg,
            SeedSeq::new(1),
            SeedSeq::new(2),
            ObsConfig::with_ring(128),
        );
        let cycles: Vec<u64> = metrics.events.iter().map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "events in time order"
        );
        assert!(metrics
            .events
            .iter()
            .all(|e| matches!(e.kind, TrapKind::IFetch)));
    }

    type Collected = (TrialResult, Vec<WindowSample>, TrialMetrics);

    fn run_forced(
        cfg: &SystemConfig,
        ring: usize,
        window: Option<u64>,
        dispatch: Dispatch,
    ) -> Result<Collected, TrialError> {
        let (base, trial) = (SeedSeq::new(1994), SeedSeq::new(7));
        let mut scratch = TrialScratch::new();
        run_trial_core(cfg, base, trial, ring, window, &mut scratch, dispatch)
    }

    /// The helper thread builds the schedule the engine would have
    /// built itself: every result field, counter, phase account, ring
    /// event and window sample matches the inline run, on every model
    /// the engine drives.
    #[test]
    fn helper_and_inline_schedules_are_bit_identical() {
        let dm4k = CacheConfig::new(4096, 16, 1).expect("valid geometry");
        let big = CacheConfig::new(64 * 1024, 16, 1).expect("valid geometry");
        let configs = [
            (
                "mpeg_play dm4k user-only",
                SystemConfig::cache(Workload::MpegPlay, dm4k)
                    .with_components(ComponentSet::user_only()),
            ),
            (
                "ousterhout (task exits and forks)",
                SystemConfig::cache(Workload::Ousterhout, dm4k),
            ),
            (
                "split cache (data refs)",
                SystemConfig::split(Workload::Espresso, dm4k, dm4k),
            ),
            (
                "two-level",
                SystemConfig::two_level(Workload::MpegPlay, dm4k, big),
            ),
            (
                "tlb r3000",
                SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()),
            ),
            (
                "kernel trace buffer",
                SystemConfig::kernel_trace_buffer(Workload::Espresso, dm4k),
            ),
        ];
        for (name, cfg) in configs {
            let cfg = cfg.with_scale(2_000);
            for (ring, window) in [(0, None), (256, Some(50_000))] {
                let inline = run_forced(&cfg, ring, window, Dispatch::Inline).expect("feasible");
                let helper = run_forced(&cfg, ring, window, Dispatch::Helper).expect("feasible");
                assert!(
                    inline.2.counters.get(CounterId::SchedQuanta) > 2 * quanta::BLOCK_QUANTA as u64,
                    "{name}: the schedule spans several blocks"
                );
                assert_eq!(inline.0, helper.0, "{name}: trial result");
                assert_eq!(
                    inline.2, helper.2,
                    "{name}: metrics (counters, phases, ring)"
                );
                assert_eq!(inline.1, helper.1, "{name}: window samples");
                if ring > 0 {
                    assert!(!helper.1.is_empty(), "{name}: windows were sampled");
                }
            }
        }
    }

    /// A trial that fails mid-run while the helper waits for a free
    /// block returns its typed error instead of hanging on the join.
    #[test]
    fn helper_mode_surfaces_out_of_frames_without_hanging() {
        let mut cfg = SystemConfig::cache(
            Workload::MpegPlay,
            CacheConfig::new(4096, 16, 1).expect("valid geometry"),
        )
        .with_scale(2_000);
        cfg.frames = 8;
        for dispatch in [Dispatch::Helper, Dispatch::Inline] {
            match run_forced(&cfg, 0, None, dispatch) {
                Err(TrialError::OutOfFrames { frames, .. }) => assert_eq!(frames, 8),
                Ok(_) => panic!("{dispatch:?}: 8 frames cannot hold the workload"),
            }
        }
    }
}
