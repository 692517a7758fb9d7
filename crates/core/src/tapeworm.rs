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
    pages_registered: u64,
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
            pages_registered: 0,
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
        self.pages_registered += 1;
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
        if let Some(v) = self.last_victim {
            self.rearm(traps, v.raw(), v.raw() + self.cfg.line_bytes());
        }
    }

    /// The table half of a merged-eligible run of `n` misses from the
    /// line at `(va, pa)`, after the whole run's traps are cleared.
    /// A run never leaves its service span, one page in the engine, so
    /// with sets × line ≥ page its lines sit in consecutive sets from
    /// the first one's and each insert goes straight to its set. Victims are re-armed last,
    /// coalesced: address-contiguous victims within one frame take one
    /// word-masked `set_range` and one registration probe. Exact
    /// because victims of one run sit in distinct sets, hence are
    /// distinct granules, and `set_range` counts transitions, so the
    /// trap bits, `count`, `set_events` and per-frame counts equal the
    /// per-victim re-arms'. A victim inside the run can only be the
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
        debug_assert!(first_set + n <= self.cfg.sets(), "a run's sets wrapped");
        // The pending re-arm: victim lines [lo, hi) of one frame.
        let (mut lo, mut hi) = (0, 0);
        let mut last = None;
        for i in 0..n {
            let entry = CacheLine {
                tid,
                va: VirtAddr::new(va + i * line),
                pa: PhysAddr::new(pa + i * line),
            };
            last = self.cache.insert_in_set(first_set + i, entry).map(|l| l.pa);
            if let Some(v) = last.map(PhysAddr::raw) {
                if v == hi && v & frame_mask != 0 {
                    hi += line;
                } else {
                    self.rearm(traps, lo, hi);
                    (lo, hi) = (v, v + line);
                }
            }
            if let Some(out) = victims.as_deref_mut() {
                out.push(last.map_or(0, |p| p.raw() + 1));
            }
        }
        self.rearm(traps, lo, hi);
        self.last_victim = last;
    }

    /// Re-arms the traps of displaced lines `[lo, hi)`, all in one
    /// frame, while that frame is still registered (it always is —
    /// removal flushes — but shared teardown ordering makes the check
    /// cheap insurance). An empty range is a no-op.
    #[inline]
    fn rearm(&self, traps: &mut TrapMap, lo: u64, hi: u64) {
        if hi > lo && self.refs_of(Pfn::new(lo >> self.page_shift)) > 0 {
            traps.set_range(PhysAddr::new(lo), hi - lo);
        }
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
    /// then serves a whole run at slice cost: one merged `clear_range`,
    /// one insert per line straight into its set, and the victims
    /// re-armed after the clear as coalesced `set_range`s, one per
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
    /// execution would be. The run is sized from a handful of bitmap
    /// word loads ([`TrapMap::trapped_run`]). Geometry alone decides
    /// how it is served (see [`Tapeworm::sched_eligible`]): where no
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
    /// `tests/miss_batch.rs` pin this.
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
        let head_words = line_words - (req.va.raw() % line) / WORD_BYTES;
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
            // Clip the run by remaining words and the tick budget,
            // replicating the stepwise per-chunk pre-checks exactly:
            // the budget check always prices the dilation overhead,
            // masked chunks then deduct only the undilated fetch cost.
            while k < run && rem > 0 {
                let bw = rem.min(if k == 0 { head_words } else { line_words });
                let cost = bw * req.cpi_milli + req.dilate_ov_milli;
                if cost >= budget {
                    break;
                }
                budget -= if req.masked { bw * req.cpi_milli } else { cost };
                words += bw;
                rem -= bw;
                k += 1;
            }
            if req.masked || k == start {
                // Masked bursts change no simulator state, so their
                // run never grows; the stepwise loop only counts them.
                break;
            }
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

    /// Resets the counters and simulated cache, keeping geometry,
    /// sampling and registrations (between measurement windows).
    pub fn reset_counters(&mut self) {
        self.stats.reset();
        self.overhead_cycles = 0;
        self.handler_cycles = 0;
        self.replacement_cycles = 0;
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

    #[test]
    fn reset_counters_keeps_registrations() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        tw.handle_miss(
            &mut traps,
            Component::User,
            Tid::new(1),
            VirtAddr::new(0),
            PhysAddr::new(0),
        );
        tw.reset_counters();
        assert_eq!(tw.stats().raw_total(), 0);
        assert_eq!(tw.overhead_cycles(), 0);
        assert_eq!(tw.registered_pages(), 1);
    }
}
