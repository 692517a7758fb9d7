//! The Tapeworm simulator: Table 1 primitives and the miss handler.

use tapeworm_machine::Component;
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr, WORD_BYTES};
use tapeworm_os::{Tid, VmEvent};
use tapeworm_stats::SeedSeq;

use crate::cache::{CacheLine, SimCache};
use crate::config::{CacheConfig, Indexing, Replacement};
use crate::cost::CostModel;
use crate::sampling::SetSample;
use crate::schedule::{BurstRequest, BurstServed, MissSchedule};
use crate::stats::MissStats;

/// The trap-driven cache simulator.
///
/// A `Tapeworm` owns the simulated cache (software state), the set
/// sample and the cost model; the host trap map is passed in by the
/// caller because it belongs to the machine, exactly as the real
/// Tapeworm manipulated the DECstation's ECC bits rather than owning
/// them.
///
/// The invariant maintained for registered pages: **a line is trapped
/// if and only if it is in a sampled set and not resident in the
/// simulated cache.** Hits therefore never trap, and every trap is a
/// simulated miss — the core idea of the paper.
///
/// # Examples
///
/// ```
/// use tapeworm_core::{CacheConfig, Tapeworm};
/// use tapeworm_machine::Component;
/// use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr};
/// use tapeworm_os::Tid;
/// use tapeworm_stats::SeedSeq;
///
/// let cfg = CacheConfig::new(1024, 16, 1)?;
/// let mut traps = TrapMap::new(64 * 1024, 16);
/// let mut tw = Tapeworm::new(cfg, 4096, SeedSeq::new(1));
///
/// // The VM system registers a freshly mapped page:
/// let tid = Tid::new(1);
/// tw.tw_register_page(&mut traps, tid, Pfn::new(3), 0);
/// let pa = Pfn::new(3).base(4096);
/// assert!(traps.is_trapped(pa)); // not yet "cached" -> trapped
///
/// // First reference traps; the handler caches the line:
/// let cycles = tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(0), pa);
/// assert_eq!(cycles, 246);
/// assert!(!traps.is_trapped(pa)); // subsequent hits run at full speed
/// # Ok::<(), tapeworm_core::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct Tapeworm {
    cfg: CacheConfig,
    cache: SimCache,
    sample: SetSample,
    cost: CostModel,
    stats: MissStats,
    page_bytes: u64,
    /// `page_bytes.trailing_zeros()`: frame lookup on the per-miss
    /// path is a shift, not a divide.
    page_shift: u32,
    /// Registration refcounts indexed by frame number (grown on
    /// demand): the miss handler probes this per displaced line, so it
    /// must be an array load, not a hash lookup.
    page_refs: Vec<u32>,
    /// Frames with a non-zero refcount.
    live_pages: usize,
    overhead_cycles: u64,
    /// Trap-entry + miss-bookkeeping share of `overhead_cycles`.
    handler_cycles: u64,
    /// Victim-selection/re-trap + page registration share.
    replacement_cycles: u64,
    /// Victim displaced by the most recent `handle_miss`, if any.
    last_victim: Option<PhysAddr>,
    /// `cost.cycles_per_miss_split(&cfg)`, memoized: geometry and cost
    /// model are fixed for the simulator's lifetime, and the float
    /// math does not belong on the per-miss path.
    miss_cost: (u64, u64),
}

impl Tapeworm {
    /// Creates a simulator for the given cache geometry over pages of
    /// `page_bytes`, with no sampling and the optimized cost model.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a multiple of the line size (a
    /// page must hold whole lines).
    pub fn new(cfg: CacheConfig, page_bytes: u64, seed: SeedSeq) -> Self {
        assert!(
            page_bytes % cfg.line_bytes() == 0,
            "page size must be a whole number of cache lines"
        );
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let cost = CostModel::optimized();
        Tapeworm {
            cache: SimCache::new(cfg, seed),
            sample: SetSample::full(),
            stats: MissStats::new(1.0),
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            page_refs: Vec::new(),
            live_pages: 0,
            overhead_cycles: 0,
            handler_cycles: 0,
            replacement_cycles: 0,
            last_victim: None,
            miss_cost: cost.cycles_per_miss_split(&cfg),
            cost,
            cfg,
        }
    }

    /// Current registration refcount of a frame.
    #[inline]
    fn refs_of(&self, pfn: Pfn) -> u32 {
        self.page_refs.get(pfn.raw() as usize).copied().unwrap_or(0)
    }

    /// Enables set sampling (must be set before any pages are
    /// registered).
    ///
    /// # Panics
    ///
    /// Panics if pages have already been registered.
    pub fn with_sampling(mut self, sample: SetSample) -> Self {
        assert!(
            self.live_pages == 0,
            "sampling must be configured before registration"
        );
        self.sample = sample;
        self.stats = MissStats::new(sample.expansion_factor());
        self
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.miss_cost = cost.cycles_per_miss_split(&self.cfg);
        self.cost = cost;
        self
    }

    /// The simulated cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The active set sample.
    pub fn sample(&self) -> &SetSample {
        &self.sample
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The simulated cache (resident lines, for diagnostics and
    /// differential tests).
    pub fn cache(&self) -> &SimCache {
        &self.cache
    }

    /// Miss statistics.
    pub fn stats(&self) -> &MissStats {
        &self.stats
    }

    /// Total simulator overhead charged so far, in cycles.
    pub fn overhead_cycles(&self) -> u64 {
        self.overhead_cycles
    }

    /// The trap-entry + miss-bookkeeping share of
    /// [`Tapeworm::overhead_cycles`] (per-phase accounting).
    pub fn handler_cycles(&self) -> u64 {
        self.handler_cycles
    }

    /// The victim-selection, re-trap and page registration share of
    /// [`Tapeworm::overhead_cycles`]. Together with
    /// [`Tapeworm::handler_cycles`] it accounts for every overhead
    /// cycle.
    pub fn replacement_cycles(&self) -> u64 {
        self.replacement_cycles
    }

    /// The victim line displaced by the most recent
    /// [`Tapeworm::handle_miss`], if that miss evicted one.
    pub fn last_victim(&self) -> Option<PhysAddr> {
        self.last_victim
    }

    /// Pages currently registered (live refcounts).
    pub fn registered_pages(&self) -> usize {
        self.live_pages
    }

    /// `tw_set_trap(pa, size)` — arm traps over a physical range.
    pub fn tw_set_trap(&mut self, traps: &mut TrapMap, pa: PhysAddr, size: u64) {
        traps.set_range(pa, size);
    }

    /// `tw_clear_trap(pa, size)` — disarm traps over a physical range.
    pub fn tw_clear_trap(&mut self, traps: &mut TrapMap, pa: PhysAddr, size: u64) {
        traps.clear_range(pa, size);
    }

    /// `tw_register_page(tid, p, v)` — bring a page into the Tapeworm
    /// domain. The first registration of a physical page sets traps on
    /// its (sampled) lines; additional registrations of a shared page
    /// only bump the reference count so sharers "benefit from shared
    /// entries brought into the cache by another task" (§3.2).
    ///
    /// Returns the cycles charged for trap setting.
    pub fn tw_register_page(&mut self, traps: &mut TrapMap, tid: Tid, pfn: Pfn, vpn: u64) -> u64 {
        let i = pfn.raw() as usize;
        if i >= self.page_refs.len() {
            self.page_refs.resize(i + 1, 0);
        }
        self.page_refs[i] += 1;
        if self.page_refs[i] > 1 {
            return 0;
        }
        self.live_pages += 1;
        let base_pa = pfn.base(self.page_bytes);
        let line = self.cfg.line_bytes();
        let lines = self.page_bytes / line;
        // Which set a line maps to depends on the indexing mode; under
        // virtual indexing use the registering task's virtual lines.
        let first_pa_line = base_pa.line_index(line);
        let first_va_line = vpn * (self.page_bytes / line);
        let sample = self.sample;
        let cfg = self.cfg;
        let mut set_count = 0u64;
        if sample.denominator() == 1 {
            // Full sample: every line traps regardless of its set, so
            // arm the whole page in one word-masked rewrite instead of
            // a per-line walk. Same granule transitions, same event
            // counts — bit-identical to the loop below.
            traps.set_range(base_pa, self.page_bytes);
            set_count = lines;
        } else {
            for i in 0..lines {
                let set = match cfg.indexing() {
                    Indexing::Physical => cfg.set_of_line(first_pa_line + i),
                    Indexing::Virtual => cfg.set_of_line(first_va_line + i),
                };
                if sample.is_sampled(set) {
                    traps.set_range(PhysAddr::new((first_pa_line + i) * line), line);
                    set_count += 1;
                }
            }
        }
        let _ = tid;
        let fraction = if lines == 0 {
            0.0
        } else {
            set_count as f64 / lines as f64
        };
        let cycles = self.cost.cycles_per_register(self.page_bytes, fraction);
        self.overhead_cycles += cycles;
        self.replacement_cycles += cycles;
        cycles
    }

    /// `tw_remove_page(tid, p, v)` — remove a page from the Tapeworm
    /// domain. Only the last unmapping flushes the page from the
    /// simulated cache and clears its traps (shared-page reference
    /// counting, §3.2). Returns the cycles charged.
    ///
    /// # Panics
    ///
    /// Panics if the page was never registered (a VM bookkeeping bug).
    pub fn tw_remove_page(&mut self, traps: &mut TrapMap, tid: Tid, pfn: Pfn, vpn: u64) -> u64 {
        let refs = self
            .page_refs
            .get_mut(pfn.raw() as usize)
            .filter(|r| **r > 0)
            .unwrap_or_else(|| panic!("removing unregistered page {pfn}"));
        *refs -= 1;
        if *refs > 0 {
            return 0;
        }
        self.live_pages -= 1;
        let base_pa = pfn.base(self.page_bytes);
        self.cache.flush_physical_page(base_pa, self.page_bytes);
        traps.clear_range(base_pa, self.page_bytes);
        let _ = (tid, vpn);
        let cycles = self
            .cost
            .cycles_per_register(self.page_bytes, self.sample.fraction());
        self.overhead_cycles += cycles;
        self.replacement_cycles += cycles;
        cycles
    }

    /// `tw_replace(tid, pa, va)` — insert a missing line into the
    /// simulated cache and return the displaced line, if any.
    pub fn tw_replace(&mut self, tid: Tid, va: VirtAddr, pa: PhysAddr) -> Option<CacheLine> {
        self.cache.insert(tid, va, pa)
    }

    /// The constant cycle charge of one [`Tapeworm::handle_miss`]
    /// (handler + replacement shares of the memoized cost model). The
    /// burst loop pre-budgets tick headroom with this.
    #[inline]
    pub fn miss_overhead_cycles(&self) -> u64 {
        self.miss_cost.0 + self.miss_cost.1
    }

    /// The optimized miss handler (Figure 1, right side): count the
    /// miss, clear the trap on the missing line, insert it, re-trap the
    /// displaced line. Returns the cycles charged.
    #[inline]
    pub fn handle_miss(
        &mut self,
        traps: &mut TrapMap,
        component: Component,
        tid: Tid,
        va: VirtAddr,
        pa: PhysAddr,
    ) -> u64 {
        self.stats.count_miss(component);
        let line = self.cfg.line_bytes();
        traps.clear_range(pa.line_base(line), line);
        self.insert_and_rearm(traps, tid, va, pa);
        let (handler, replacement) = self.miss_cost;
        self.handler_cycles += handler;
        self.replacement_cycles += replacement;
        let cycles = handler + replacement;
        self.overhead_cycles += cycles;
        cycles
    }

    /// The table half of one miss, after its trap is cleared: insert
    /// the line and re-arm the displaced line's trap. Sets
    /// `last_victim`.
    #[inline]
    fn insert_and_rearm(&mut self, traps: &mut TrapMap, tid: Tid, va: VirtAddr, pa: PhysAddr) {
        self.last_victim = self.tw_replace(tid, va, pa).map(|displaced| displaced.pa);
        if let Some(v) = self.last_victim.map(PhysAddr::raw) {
            let line = self.cfg.line_bytes();
            rearm(&self.page_refs, self.page_shift, traps, v, v + line);
        }
    }

    /// The table half of a merged-eligible run of `n` misses from the
    /// line at `(va, pa)`, after the whole run's traps are cleared.
    /// A run never leaves its service span, one page in the engine, so
    /// with sets × line ≥ page its lines sit in consecutive sets from
    /// the first one's and go in through one [`SimCache::insert_run`].
    /// Victims are re-armed last, coalesced: address-contiguous victims
    /// within one frame take one word-masked `set_range` and one
    /// registration probe. Exact because victims of one run sit in
    /// distinct sets, hence are distinct granules, and `set_range`
    /// counts transitions, so the trap bits, `count`, `set_events` and
    /// per-frame counts equal the per-victim re-arms'. A victim inside the run can only be the
    /// missing line's own alias, and re-arming it after the merged
    /// clear is exactly the handler's clear-then-re-arm. Pushes one
    /// victim slot per miss to `victims` when given; sets
    /// `last_victim`.
    #[inline]
    fn insert_run_and_rearm(
        &mut self,
        traps: &mut TrapMap,
        tid: Tid,
        va: u64,
        pa: u64,
        n: u64,
        mut victims: Option<&mut Vec<u64>>,
    ) {
        let line = self.cfg.line_bytes();
        let frame_mask = self.page_bytes - 1;
        let first_set = self.cfg.set_of_line(pa >> line.trailing_zeros());
        let first = CacheLine {
            tid,
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
        };
        let (page_refs, page_shift) = (&self.page_refs, self.page_shift);
        // The pending re-arm: victim lines [lo, hi) of one frame.
        let (mut lo, mut hi) = (0, 0);
        let mut last = None;
        // Inlined into both of `insert_run`'s loops, the pending stretch
        // stays in registers instead of behind a call per miss.
        self.cache.insert_run(
            first_set,
            first,
            n,
            #[inline(always)]
            |displaced| {
                last = displaced.map(|l| l.pa);
                if let Some(v) = last.map(PhysAddr::raw) {
                    if v == hi && v & frame_mask != 0 {
                        hi += line;
                    } else {
                        rearm(page_refs, page_shift, traps, lo, hi);
                        (lo, hi) = (v, v + line);
                    }
                }
                if let Some(out) = victims.as_deref_mut() {
                    out.push(last.map_or(0, |p| p.raw() + 1));
                }
            },
        );
        rearm(page_refs, page_shift, traps, lo, hi);
        self.last_victim = last;
    }

    /// Records a miss that was lost because interrupts were masked.
    pub fn note_masked_miss(&mut self) {
        self.stats.count_masked();
    }

    /// `true` when a burst's victims can never land in the frame being
    /// serviced: a physically indexed FIFO cache whose set span covers
    /// at least a page, so every granule of a page maps to a distinct
    /// set, the page's sets are consecutive, and each set's only granule
    /// of that frame is the missing one itself. [`Tapeworm::service_burst`]
    /// then serves a whole run at word cost: one merged `clear_range`,
    /// one run insert over the run's consecutive sets (a single
    /// slot-slice walk when direct-mapped), and the victims re-armed
    /// after the clear as coalesced `set_range`s, one per
    /// address-contiguous stretch within a frame. On every other
    /// geometry it clears one granule just before each insert and
    /// re-arms each victim at once, in [`Tapeworm::handle_miss`]'s
    /// order, which is exact everywhere: with sets × line below a page
    /// a victim can lie ahead in the run, re-arming a granule the
    /// merged clear already passed, or displacing a re-trapped resident
    /// line before its own miss. (Random replacement and virtual
    /// indexing with a page-wide set span cannot do that either; the
    /// gate leaves them out conservatively.)
    #[inline]
    pub fn sched_eligible(&self) -> bool {
        self.cfg.indexing() == Indexing::Physical
            && self.cfg.replacement() == Replacement::Fifo
            && self.cfg.sets() * self.cfg.line_bytes() >= self.page_bytes
    }

    /// Services one whole trap burst: the run of trapped granules from
    /// the request's entry, clipped by the remaining words and the live
    /// tick budget exactly as the per-chunk pre-checks of stepwise
    /// execution would be, in closed form (see `clip`). The run is
    /// sized from a handful of bitmap word loads
    /// ([`TrapMap::trapped_run`]). Geometry alone decides how it is
    /// served (see [`Tapeworm::sched_eligible`]): where no
    /// victim can land in the run, as one merged clear, a walk over the
    /// run's consecutive sets and coalesced victim re-arms; else one
    /// granule at a time with [`Tapeworm::handle_miss`]'s clear and
    /// insert-and-re-arm steps, re-measuring the run where it ends in
    /// case a victim of this burst re-armed the next granule.
    ///
    /// Returns `None` when the burst is not serviceable here — clean
    /// entry granule, or budget-starved before the first chunk — and
    /// the caller falls back to stepwise execution. Every produced
    /// outcome (counters, cycles, trap transitions, set state, victims,
    /// random draws) is bit-identical to stepwise miss handling;
    /// `crates/core/tests/burst_differential.rs` and
    /// `tests/stepwise/mod.rs` pin this.
    pub fn service_burst(
        &mut self,
        traps: &mut TrapMap,
        sched: &mut MissSchedule,
        req: &BurstRequest,
    ) -> Option<BurstServed> {
        let line = self.cfg.line_bytes();
        debug_assert_eq!(traps.granule(), line);
        let line_words = line / WORD_BYTES;
        let shift = line.trailing_zeros();
        // Granule window covering [va, page_end): the run never looks
        // past the contiguously-mapped service span.
        let g_count = ((req.page_end_va - 1) >> shift) - (req.va.raw() >> shift) + 1;
        let base_va = req.va.line_base(line).raw();
        let base_pa = req.pa.line_base(line).raw();
        let merged = self.sched_eligible();
        let head_words = line_words - (req.va.raw() & (line - 1)) / WORD_BYTES;
        let mut k = 0u64;
        let mut words = 0u64;
        let mut rem = req.rem_words;
        let mut budget = req.budget_milli;
        if req.want_victims {
            sched.victims.clear();
        }
        loop {
            let run = k + traps.trapped_run(PhysAddr::new(base_pa + k * line), g_count - k);
            let start = k;
            let first_words = if k == 0 { head_words } else { line_words };
            let (chunks, chunk_words) = clip(req, run - k, rem, budget, first_words, line_words);
            k += chunks;
            words += chunk_words;
            rem -= chunk_words;
            if req.masked || k == start {
                // Masked bursts change no simulator state, so their
                // run never grows; the stepwise loop only counts them.
                break;
            }
            budget -= chunk_words * req.cpi_milli + chunks * req.dilate_ov_milli;
            if merged {
                // The same k - start transitions as the per-miss
                // clears; every re-arm comes after it.
                let pa = base_pa + start * line;
                traps.clear_range(PhysAddr::new(pa), (k - start) * line);
                let victims = req.want_victims.then_some(&mut sched.victims);
                let va = base_va + start * line;
                self.insert_run_and_rearm(traps, req.tid, va, pa, k - start, victims);
                // No victim re-arms the granule past the run.
                break;
            }
            for i in start..k {
                let pa = PhysAddr::new(base_pa + i * line);
                traps.clear_range(pa, line);
                self.insert_and_rearm(traps, req.tid, VirtAddr::new(base_va + i * line), pa);
                if req.want_victims {
                    sched
                        .victims
                        .push(self.last_victim.map_or(0, |p| p.raw() + 1));
                }
            }
            // Only a victim re-armed at the run's end can extend it.
            if k < run || rem == 0 || k == g_count {
                break;
            }
        }
        if k == 0 {
            return None; // clean entry or budget-starved: stepwise delivers it
        }
        let overhead_cycles = if req.masked {
            self.stats.count_masked_n(k);
            0
        } else {
            self.stats.count_misses(req.component, k);
            let (handler, replacement) = self.miss_cost;
            self.handler_cycles += handler * k;
            self.replacement_cycles += replacement * k;
            (handler + replacement) * k
        };
        self.overhead_cycles += overhead_cycles;
        Some(BurstServed {
            chunks: k,
            words,
            overhead_cycles,
        })
    }

    /// Dispatches a VM-system event to the matching primitive,
    /// returning the cycles charged.
    pub fn on_vm_event(&mut self, traps: &mut TrapMap, event: VmEvent) -> u64 {
        match event {
            VmEvent::PageRegistered { tid, pfn, vpn } => {
                self.tw_register_page(traps, tid, pfn, vpn)
            }
            VmEvent::PageRemoved { tid, pfn, vpn } => self.tw_remove_page(traps, tid, pfn, vpn),
        }
    }

    /// Verifies the core invariant for every registered page under
    /// physical indexing: each line is trapped iff sampled and not
    /// resident. Test/diagnostic aid (O(pages × lines)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated line.
    pub fn validate_invariant(&self, traps: &TrapMap) -> Result<(), String> {
        if self.cfg.indexing() != Indexing::Physical {
            return Ok(()); // virtual aliasing makes the pa-level check inapplicable
        }
        let line = self.cfg.line_bytes();
        for pfn in (0..self.page_refs.len() as u64)
            .map(Pfn::new)
            .filter(|p| self.refs_of(*p) > 0)
        {
            let base = pfn.base(self.page_bytes);
            for i in 0..self.page_bytes / line {
                let pa = PhysAddr::new(base.raw() + i * line);
                let sampled = self
                    .sample
                    .is_sampled(self.cfg.set_of_line(pa.line_index(line)));
                let trapped = traps.is_trapped(pa);
                let resident = self.cache.contains_physical(pa);
                let expect_trap = sampled && !resident;
                if trapped != expect_trap {
                    return Err(format!(
                        "line {pa}: trapped={trapped} but sampled={sampled}, resident={resident}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Clips a trapped run of `avail` chunks by the remaining words `rem`
/// and the tick budget in closed form, returning the chunks and words
/// that stepwise execution's per-chunk pre-checks accept. The first
/// chunk holds up to `first_words` words, the rest up to `line_words`,
/// and the last may stop short where `rem` runs out.
///
/// Stepwise execution takes chunk j only while its worst-case cost,
/// its words × CPI plus the dilation overhead, is below what is left
/// of the budget; an unmasked chunk then spends that whole cost, a
/// masked one only its fetch cost. Costs are non-negative, so chunk j
/// passes exactly when the prefix total through j is below the budget:
/// words × CPI + chunks × dilation unmasked, words × CPI + one dilation
/// masked. That total grows with the prefix, so the accepted count is
/// the longest prefix under the budget. Over whole chunks the total is
/// affine in the count; only a short last chunk can fall below that
/// line, and it is checked on its own.
#[inline]
fn clip(
    req: &BurstRequest,
    avail: u64,
    rem: u64,
    budget: u64,
    first_words: u64,
    line_words: u64,
) -> (u64, u64) {
    if avail == 0 || rem == 0 {
        return (0, 0);
    }
    let (cpi, dilation) = (req.cpi_milli, req.dilate_ov_milli);
    // Chunks until `rem` runs out: the first, then whole lines, the
    // last of which may be short.
    debug_assert!(line_words.is_power_of_two());
    let by_words =
        1 + ((rem.saturating_sub(first_words) + line_words - 1) >> line_words.trailing_zeros());
    let most = avail.min(by_words);
    // Prefixes of whole chunks under the budget: the first costs
    // `head`, each further one `step` more.
    let head = first_words * cpi + dilation;
    let step = line_words * cpi + if req.masked { 0 } else { dilation };
    let whole = match budget.checked_sub(head + 1) {
        None => 0,
        // The common case, a run well short of the tick: no division.
        Some(slack) if (most - 1).saturating_mul(step) <= slack => most,
        Some(slack) => 1 + slack / step,
    };
    let chunks = if whole >= most {
        most
    } else {
        // Chunk `whole + 1` fails at a whole chunk's cost; only the
        // short last chunk can still pass, at its true cost.
        let n = whole + 1;
        let extra = if req.masked {
            dilation
        } else {
            n.saturating_mul(dilation)
        };
        let short_cost = rem.saturating_mul(cpi).saturating_add(extra);
        if n == by_words && short_cost < budget {
            n
        } else {
            whole
        }
    };
    let words = match chunks {
        0 => 0,
        n => rem.min(first_words + (n - 1) * line_words),
    };
    (chunks, words)
}

/// Re-arms the traps of displaced lines `[lo, hi)`, all in one frame,
/// while that frame is still registered in `page_refs` (it always is —
/// removal flushes — but shared teardown ordering makes the check cheap
/// insurance). An empty range is a no-op.
#[inline]
fn rearm(page_refs: &[u32], page_shift: u32, traps: &mut TrapMap, lo: u64, hi: u64) {
    if hi > lo
        && page_refs
            .get((lo >> page_shift) as usize)
            .is_some_and(|&r| r > 0)
    {
        traps.set_range(PhysAddr::new(lo), hi - lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 4096;

    fn setup(cache_bytes: u64) -> (Tapeworm, TrapMap) {
        let cfg = CacheConfig::new(cache_bytes, 16, 1).unwrap();
        (
            Tapeworm::new(cfg, PAGE, SeedSeq::new(1)),
            TrapMap::new(1 << 20, 16),
        )
    }

    #[test]
    fn register_sets_traps_on_whole_page() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(2), 0);
        assert_eq!(traps.count(), PAGE / 16);
        assert!(traps.is_trapped(PhysAddr::new(2 * PAGE)));
        assert!(traps.is_trapped(PhysAddr::new(3 * PAGE - 1)));
        assert!(!traps.is_trapped(PhysAddr::new(PAGE)));
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn miss_clears_trap_and_retraps_displaced() {
        let (mut tw, mut traps) = setup(1024); // 64 lines
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        let a = PhysAddr::new(0);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(0), a);
        assert!(!traps.is_trapped(a), "cached line must not trap");
        // Line 64 lines later conflicts with line 0 in a 1K DM cache.
        let b = PhysAddr::new(1024);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(1024), b);
        assert!(!traps.is_trapped(b));
        assert!(traps.is_trapped(a), "displaced line must trap again");
        assert_eq!(tw.stats().raw_total(), 2);
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn shared_page_registration_refcounts() {
        let (mut tw, mut traps) = setup(1024);
        let pfn = Pfn::new(5);
        tw.tw_register_page(&mut traps, Tid::new(1), pfn, 0);
        let before = traps.count();
        // Second sharer: no new traps ("benefit from shared entries").
        let cycles = tw.tw_register_page(&mut traps, Tid::new(2), pfn, 7);
        assert_eq!(cycles, 0);
        assert_eq!(traps.count(), before);
        // First removal keeps traps; second clears.
        tw.tw_remove_page(&mut traps, Tid::new(1), pfn, 0);
        assert_eq!(traps.count(), before);
        tw.tw_remove_page(&mut traps, Tid::new(2), pfn, 7);
        assert_eq!(traps.count(), 0);
        assert_eq!(tw.registered_pages(), 0);
    }

    #[test]
    fn remove_page_flushes_simulated_cache() {
        let (mut tw, mut traps) = setup(64 * 1024); // big cache: no displacement
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        tw.handle_miss(
            &mut traps,
            Component::User,
            tid,
            VirtAddr::new(0),
            PhysAddr::new(0),
        );
        tw.tw_remove_page(&mut traps, tid, Pfn::new(0), 0);
        // Re-register: the page returns fully trapped (it was flushed).
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        assert!(traps.is_trapped(PhysAddr::new(0)));
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn sampling_registers_only_sampled_sets() {
        let cfg = CacheConfig::new(1024, 16, 1).unwrap(); // 64 sets
        let sample = SetSample::new(8, SeedSeq::new(2));
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1)).with_sampling(sample);
        let mut traps = TrapMap::new(1 << 20, 16);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        // 256 lines per page, 1/8 sampled -> exactly 32 traps.
        assert_eq!(traps.count(), 32);
        assert_eq!(tw.stats().expansion(), 8.0);
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn sampled_misses_expand_in_estimates() {
        let cfg = CacheConfig::new(1024, 16, 1).unwrap();
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1))
            .with_sampling(SetSample::new(4, SeedSeq::new(0)));
        let mut traps = TrapMap::new(1 << 20, 16);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        // Miss on the first trapped line we can find.
        let g = traps.iter_trapped().next().unwrap();
        let pa = PhysAddr::new(g * 16);
        tw.handle_miss(
            &mut traps,
            Component::User,
            Tid::new(1),
            VirtAddr::new(pa.raw()),
            pa,
        );
        assert_eq!(tw.stats().raw_total(), 1);
        assert_eq!(tw.stats().estimated_total(), 4.0);
    }

    #[test]
    fn overhead_accumulates_per_table5() {
        let (mut tw, mut traps) = setup(1024);
        let tid = Tid::new(1);
        let reg = tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        let miss = tw.handle_miss(
            &mut traps,
            Component::User,
            tid,
            VirtAddr::new(0),
            PhysAddr::new(0),
        );
        assert_eq!(miss, 246);
        assert_eq!(tw.overhead_cycles(), reg + miss);
    }

    #[test]
    fn phase_split_accounts_for_every_overhead_cycle() {
        let (mut tw, mut traps) = setup(1024); // 64 lines
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        let a = PhysAddr::new(0);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(0), a);
        assert_eq!(tw.last_victim(), None, "cold miss displaces nothing");
        // Conflicting line in a 1K DM cache evicts line 0.
        let b = PhysAddr::new(1024);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(1024), b);
        assert_eq!(tw.last_victim(), Some(a));
        assert_eq!(
            tw.handler_cycles() + tw.replacement_cycles(),
            tw.overhead_cycles(),
            "phase split must account for every overhead cycle"
        );
        assert!(tw.handler_cycles() > 0 && tw.replacement_cycles() > 0);
    }

    #[test]
    fn vm_event_dispatch_matches_primitives() {
        let (mut tw, mut traps) = setup(1024);
        let ev = VmEvent::PageRegistered {
            tid: Tid::new(1),
            pfn: Pfn::new(3),
            vpn: 9,
        };
        tw.on_vm_event(&mut traps, ev);
        assert_eq!(tw.registered_pages(), 1);
        let ev = VmEvent::PageRemoved {
            tid: Tid::new(1),
            pfn: Pfn::new(3),
            vpn: 9,
        };
        tw.on_vm_event(&mut traps, ev);
        assert_eq!(tw.registered_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "unregistered page")]
    fn removing_unregistered_page_panics() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_remove_page(&mut traps, Tid::new(1), Pfn::new(9), 0);
    }

    #[test]
    #[should_panic(expected = "before registration")]
    fn late_sampling_configuration_panics() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        let _ = tw.with_sampling(SetSample::new(2, SeedSeq::new(0)));
    }

    #[test]
    fn masked_misses_recorded() {
        let (mut tw, _) = setup(1024);
        tw.note_masked_miss();
        assert_eq!(tw.stats().masked(), 1);
    }
}
