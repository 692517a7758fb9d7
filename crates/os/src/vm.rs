//! The virtual memory system.
//!
//! Tapeworm "requires assistance from the OS virtual memory system":
//! when a task first faults on a page the VM maps it and registers it
//! with Tapeworm; when a page is unmapped (task exit, pageout) it is
//! removed from the Tapeworm domain (paper §3.2). The VM here emits
//! those registration events as values — [`VmEvent`] — which the
//! experiment loop forwards to the simulator, keeping this crate
//! independent of the simulator implementation.
//!
//! # Hot-path layout
//!
//! Translation sits on the hit path of every simulated reference, so
//! page tables are flat and index-addressed rather than hashed:
//!
//! * Each task owns a `PageTable`: a dense `Vec` of PTEs indexed by
//!   VPN offset from the table's base, plus a small sorted overflow
//!   list for mappings too far away to widen the dense window over
//!   (bounded by `MAX_DENSE_SPAN`, 2^16 pages). Real tasks touch one
//!   compact text+data range, so in practice every lookup is one
//!   bounds check and one array load.
//! * A direct-mapped software translation cache
//!   ([`Vm::translate_cached`]) short-circuits the walk entirely for
//!   repeat translations. Entries are tagged with `(tid, vpn)` (so no
//!   flush is needed on task switch) and only fully valid mappings are
//!   cached; [`Vm::unmap`] and [`Vm::set_valid`] invalidate the
//!   matching slot, keeping TLB-mode valid-bit traps and pageout
//!   semantics bit-exact.

use std::cell::Cell;
use std::error::Error;
use std::fmt;

use tapeworm_mem::{
    FrameAllocator, PageSize, Pfn, PhysAddr, Pte, SparseStats, SparseVec, VirtAddr,
};

use crate::task::Tid;

/// Widest VPN span a task's dense page table may cover; mappings
/// farther out fall back to the sorted overflow list.
const MAX_DENSE_SPAN: u64 = 1 << 16;

/// Translation-cache slots (direct-mapped, power of two).
const TCACHE_SLOTS: usize = 1024;

/// A page was needed but physical memory is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemoryError {
    /// The task that faulted.
    pub tid: Tid,
    /// The virtual page that could not be mapped.
    pub vpn: u64,
}

impl fmt::Display for OutOfMemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of physical memory mapping vpn {:#x} for {}",
            self.vpn, self.tid
        )
    }
}

impl Error for OutOfMemoryError {}

/// Result of a hardware address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// Valid mapping; the access proceeds at `PhysAddr`.
    Mapped(PhysAddr),
    /// The PTE is invalid but the page is resident — a Tapeworm
    /// page-valid-bit trap (TLB simulation), not a real fault.
    TapewormPageTrap(PhysAddr),
    /// No (resident) mapping: a genuine page fault.
    NotMapped,
}

/// A VM-system event corresponding to a Tapeworm registration call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmEvent {
    /// The VM mapped `(tid, vpn) → pfn`; Tapeworm's
    /// `tw_register_page(tid, p, v)` should run.
    PageRegistered {
        /// Owning task.
        tid: Tid,
        /// Physical frame.
        pfn: Pfn,
        /// Virtual page number.
        vpn: u64,
    },
    /// The VM unmapped `(tid, vpn)`; Tapeworm's
    /// `tw_remove_page(tid, p, v)` should run.
    PageRemoved {
        /// Owning task.
        tid: Tid,
        /// Physical frame.
        pfn: Pfn,
        /// Virtual page number.
        vpn: u64,
    },
}

/// One task's page table: a dense VPN-indexed window plus a sorted
/// overflow list for far-away mappings.
///
/// Invariant: no overflow entry's VPN ever lies inside the dense
/// window, so a lookup probes exactly one of the two.
#[derive(Debug, Default)]
struct PageTable {
    /// First VPN covered by `dense`.
    base_vpn: u64,
    dense: Vec<Option<Pte>>,
    /// Sorted `(vpn, pte)` pairs outside the dense window.
    sparse: Vec<(u64, Pte)>,
    /// Mapped pages across both parts.
    live: usize,
}

impl PageTable {
    #[inline]
    fn get(&self, vpn: u64) -> Option<Pte> {
        if vpn >= self.base_vpn {
            if let Some(slot) = self.dense.get((vpn - self.base_vpn) as usize) {
                return *slot;
            }
        }
        self.sparse
            .binary_search_by_key(&vpn, |&(v, _)| v)
            .ok()
            .map(|i| self.sparse[i].1)
    }

    fn get_mut(&mut self, vpn: u64) -> Option<&mut Pte> {
        if vpn >= self.base_vpn && vpn < self.base_vpn + self.dense.len() as u64 {
            return self.dense[(vpn - self.base_vpn) as usize].as_mut();
        }
        match self.sparse.binary_search_by_key(&vpn, |&(v, _)| v) {
            Ok(i) => Some(&mut self.sparse[i].1),
            Err(_) => None,
        }
    }

    /// Inserts a mapping for an unmapped VPN, widening the dense window
    /// when the span stays within [`MAX_DENSE_SPAN`].
    fn insert(&mut self, vpn: u64, pte: Pte) {
        self.live += 1;
        if self.dense.is_empty() && self.sparse.is_empty() {
            self.base_vpn = vpn;
            self.dense.push(Some(pte));
            return;
        }
        let end = self.base_vpn + self.dense.len() as u64;
        if self.dense.is_empty() || (vpn >= self.base_vpn && vpn < end) {
            // An empty dense window (all-sparse table) adopts this VPN.
            if self.dense.is_empty() {
                self.base_vpn = vpn;
                self.dense.push(Some(pte));
                self.absorb_sparse();
                return;
            }
            self.dense[(vpn - self.base_vpn) as usize] = Some(pte);
            return;
        }
        if vpn >= end && vpn - self.base_vpn < MAX_DENSE_SPAN {
            self.dense.resize((vpn - self.base_vpn + 1) as usize, None);
            self.dense[(vpn - self.base_vpn) as usize] = Some(pte);
            self.absorb_sparse();
            return;
        }
        if vpn < self.base_vpn && end - vpn <= MAX_DENSE_SPAN {
            let pad = (self.base_vpn - vpn) as usize;
            let mut widened = vec![None; pad];
            widened.append(&mut self.dense);
            self.dense = widened;
            self.base_vpn = vpn;
            self.dense[0] = Some(pte);
            self.absorb_sparse();
            return;
        }
        let i = self
            .sparse
            .binary_search_by_key(&vpn, |&(v, _)| v)
            .expect_err("inserting an already-mapped page");
        self.sparse.insert(i, (vpn, pte));
    }

    /// Moves overflow entries that a widened dense window now covers
    /// into it, restoring the disjointness invariant.
    fn absorb_sparse(&mut self) {
        let (base, end) = (self.base_vpn, self.base_vpn + self.dense.len() as u64);
        if self.sparse.iter().all(|&(v, _)| v < base || v >= end) {
            return;
        }
        let dense = &mut self.dense;
        self.sparse.retain(|&(v, pte)| {
            if v >= base && v < end {
                dense[(v - base) as usize] = Some(pte);
                false
            } else {
                true
            }
        });
    }

    fn remove(&mut self, vpn: u64) -> Option<Pte> {
        let removed = if vpn >= self.base_vpn && vpn < self.base_vpn + self.dense.len() as u64 {
            self.dense[(vpn - self.base_vpn) as usize].take()
        } else {
            match self.sparse.binary_search_by_key(&vpn, |&(v, _)| v) {
                Ok(i) => Some(self.sparse.remove(i).1),
                Err(_) => None,
            }
        };
        if removed.is_some() {
            self.live -= 1;
        }
        removed
    }

    /// Mapped `(vpn, pte)` pairs in ascending VPN order. Overflow
    /// entries never overlap the dense window, so chaining the three
    /// sorted runs (below / window / above) preserves global order.
    fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let base = self.base_vpn;
        let end = base + self.dense.len() as u64;
        let below = self
            .sparse
            .iter()
            .take_while(move |&&(v, _)| v < base)
            .copied();
        let within = self
            .dense
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.map(|pte| (base + i as u64, pte)));
        let above = self
            .sparse
            .iter()
            .skip_while(move |&&(v, _)| v < end)
            .copied();
        below.chain(within).chain(above)
    }
}

/// One translation-cache slot; `vpn == u64::MAX` marks it empty (no
/// virtual address translates to that page).
#[derive(Debug, Clone, Copy)]
struct TcEntry {
    tid: u16,
    vpn: u64,
    pa_base: u64,
}

impl TcEntry {
    const EMPTY: TcEntry = TcEntry {
        tid: 0,
        vpn: u64::MAX,
        pa_base: 0,
    };
}

/// Per-task page tables over a pluggable frame allocator.
///
/// # Examples
///
/// ```
/// use tapeworm_mem::{PageSize, RandomAllocator};
/// use tapeworm_os::{Tid, Translation, Vm};
/// use tapeworm_mem::VirtAddr;
/// use tapeworm_stats::SeedSeq;
///
/// let alloc = Box::new(RandomAllocator::new(256, SeedSeq::new(1)));
/// let mut vm = Vm::new(PageSize::DEFAULT, alloc);
/// let tid = Tid::new(1);
/// let va = VirtAddr::new(0x4_2000);
/// assert_eq!(vm.translate(tid, va), Translation::NotMapped);
/// let (_pfn, _ev) = vm.map_new(tid, va.page_number(4096))?;
/// assert!(matches!(vm.translate(tid, va), Translation::Mapped(_)));
/// // The caching walk agrees with the plain one.
/// assert_eq!(vm.translate_cached(tid, va), vm.translate(tid, va));
/// # Ok::<(), tapeworm_os::OutOfMemoryError>(())
/// ```
#[derive(Debug)]
pub struct Vm {
    page_size: PageSize,
    page_bytes: u64,
    allocator: Box<dyn FrameAllocator>,
    /// Page tables indexed by raw task id.
    tables: Vec<PageTable>,
    /// Mapping refcounts indexed by frame number, on demand-allocated
    /// chunked backing so huge physical memories cost only the frames
    /// actually mapped.
    frame_refs: SparseVec<u32>,
    tcache: Vec<TcEntry>,
    faults: u64,
    tc_hits: u64,
    tc_misses: u64,
    /// Full walks; a `Cell` because [`Vm::translate`] is `&self`.
    walks: Cell<u64>,
}

impl Vm {
    /// Creates a VM with the given page size and frame allocator. The
    /// frame refcount vector commits chunks only as frames are mapped.
    pub fn new(page_size: PageSize, allocator: Box<dyn FrameAllocator>) -> Self {
        Vm {
            page_size,
            page_bytes: page_size.bytes(),
            frame_refs: SparseVec::new(allocator.capacity(), 0),
            allocator,
            tables: Vec::new(),
            tcache: vec![TcEntry::EMPTY; TCACHE_SLOTS],
            faults: 0,
            tc_hits: 0,
            tc_misses: 0,
            walks: Cell::new(0),
        }
    }

    /// Allocation statistics of the frame refcount vector's chunked
    /// backing (materialized chunks, zero-chunk dedups, demand faults).
    pub fn sparse_stats(&self) -> SparseStats {
        self.frame_refs.stats()
    }

    /// The configured page size.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Real page faults handled so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Software translation-cache hits so far.
    pub fn tc_hits(&self) -> u64 {
        self.tc_hits
    }

    /// Software translation-cache misses so far.
    pub fn tc_misses(&self) -> u64 {
        self.tc_misses
    }

    /// Full page-table walks performed so far.
    pub fn walks(&self) -> u64 {
        self.walks.get()
    }

    /// Free physical frames remaining.
    pub fn free_frames(&self) -> usize {
        self.allocator.available()
    }

    #[inline]
    fn tc_index(tid: Tid, vpn: u64) -> usize {
        (vpn as usize ^ ((tid.raw() as usize) << 3)) & (TCACHE_SLOTS - 1)
    }

    /// Drops the cached translation for `(tid, vpn)`, if present.
    #[inline]
    fn tc_invalidate(&mut self, tid: Tid, vpn: u64) {
        let slot = &mut self.tcache[Self::tc_index(tid, vpn)];
        if slot.vpn == vpn && slot.tid == tid.raw() {
            *slot = TcEntry::EMPTY;
        }
    }

    /// Hardware translation of `(tid, va)` through the software
    /// translation cache. Behaviourally identical to
    /// [`Vm::translate`]; only fully valid mappings are cached, so
    /// valid-bit traps and faults always take the full walk.
    #[inline]
    pub fn translate_cached(&mut self, tid: Tid, va: VirtAddr) -> Translation {
        let vpn = va.page_number(self.page_bytes);
        let idx = Self::tc_index(tid, vpn);
        let entry = self.tcache[idx];
        if entry.vpn == vpn && entry.tid == tid.raw() {
            self.tc_hits += 1;
            return Translation::Mapped(PhysAddr::new(
                entry.pa_base + va.page_offset(self.page_bytes),
            ));
        }
        self.tc_misses += 1;
        let t = self.translate(tid, va);
        if let Translation::Mapped(pa) = t {
            self.tcache[idx] = TcEntry {
                tid: tid.raw(),
                vpn,
                pa_base: pa.raw() - va.page_offset(self.page_bytes),
            };
        }
        t
    }

    /// Hardware translation of `(tid, va)` (full page-table walk).
    pub fn translate(&self, tid: Tid, va: VirtAddr) -> Translation {
        self.walks.set(self.walks.get() + 1);
        let vpn = va.page_number(self.page_bytes);
        match self.pte(tid, vpn) {
            Some(pte) if pte.valid => Translation::Mapped(self.frame_addr(pte.pfn, va)),
            Some(pte) if pte.faults_as_tapeworm_trap() => {
                Translation::TapewormPageTrap(self.frame_addr(pte.pfn, va))
            }
            _ => Translation::NotMapped,
        }
    }

    fn frame_addr(&self, pfn: Pfn, va: VirtAddr) -> PhysAddr {
        pfn.base(self.page_bytes) + va.page_offset(self.page_bytes)
    }

    /// The PTE for `(tid, vpn)`, if any.
    #[inline]
    pub fn pte(&self, tid: Tid, vpn: u64) -> Option<Pte> {
        self.tables.get(tid.raw() as usize).and_then(|t| t.get(vpn))
    }

    fn table_mut(&mut self, tid: Tid) -> &mut PageTable {
        let i = tid.raw() as usize;
        if i >= self.tables.len() {
            self.tables.resize_with(i + 1, PageTable::default);
        }
        &mut self.tables[i]
    }

    /// Maps a fresh physical frame at `(tid, vpn)` (the page-fault
    /// path). Returns the frame and the registration event.
    ///
    /// # Errors
    ///
    /// [`OutOfMemoryError`] when no frame is free.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped (the kernel must not
    /// double-fault a mapping).
    pub fn map_new(&mut self, tid: Tid, vpn: u64) -> Result<(Pfn, VmEvent), OutOfMemoryError> {
        assert!(
            self.pte(tid, vpn).is_none(),
            "page {vpn:#x} already mapped for {tid}"
        );
        let pfn = self
            .allocator
            .allocate(vpn)
            .ok_or(OutOfMemoryError { tid, vpn })?;
        self.table_mut(tid).insert(vpn, Pte::mapped(pfn));
        let i = pfn.raw() as usize;
        self.frame_refs.store(i, self.frame_refs.load(i) + 1);
        self.faults += 1;
        Ok((pfn, VmEvent::PageRegistered { tid, pfn, vpn }))
    }

    /// Maps an *existing* frame at `(tid, vpn)` — a shared mapping.
    /// "If the VM system maps more than one virtual page to a given
    /// physical page, it must still register the mapping with Tapeworm"
    /// (§3.2); Tapeworm reference-counts it.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped or the frame is not live.
    pub fn map_shared(&mut self, tid: Tid, vpn: u64, pfn: Pfn) -> VmEvent {
        assert!(
            self.pte(tid, vpn).is_none(),
            "page {vpn:#x} already mapped for {tid}"
        );
        let i = pfn.raw() as usize;
        let refs = self
            .frame_refs
            .get(i)
            .filter(|&r| r > 0)
            .unwrap_or_else(|| panic!("sharing an unmapped frame {pfn}"));
        self.frame_refs.store(i, refs + 1);
        self.table_mut(tid).insert(vpn, Pte::mapped(pfn));
        VmEvent::PageRegistered { tid, pfn, vpn }
    }

    /// Unmaps `(tid, vpn)` (task exit or pageout), freeing the frame
    /// when its last mapping disappears. Returns the removal event.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped.
    pub fn unmap(&mut self, tid: Tid, vpn: u64) -> VmEvent {
        let pte = self
            .tables
            .get_mut(tid.raw() as usize)
            .and_then(|t| t.remove(vpn))
            .unwrap_or_else(|| panic!("unmapping absent page {vpn:#x} of {tid}"));
        self.tc_invalidate(tid, vpn);
        let i = pte.pfn.raw() as usize;
        let refs = self.frame_refs.load(i) - 1;
        self.frame_refs.store(i, refs);
        if refs == 0 {
            self.allocator.free(pte.pfn);
        }
        VmEvent::PageRemoved {
            tid,
            pfn: pte.pfn,
            vpn,
        }
    }

    /// Unmaps every page of a task (exit path) in ascending VPN order,
    /// returning the removal events.
    pub fn unmap_all(&mut self, tid: Tid) -> Vec<VmEvent> {
        let vpns: Vec<u64> = self
            .tables
            .get(tid.raw() as usize)
            .map(|t| t.iter().map(|(vpn, _)| vpn).collect())
            .unwrap_or_default();
        vpns.into_iter().map(|vpn| self.unmap(tid, vpn)).collect()
    }

    /// Sets the hardware valid bit of a mapped page — the TLB-simulation
    /// trap mechanism (`tw_set_trap`/`tw_clear_trap` at page
    /// granularity). The software `resident` bit is untouched, which is
    /// what lets [`Translation::TapewormPageTrap`] be told apart from a
    /// real fault.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped.
    pub fn set_valid(&mut self, tid: Tid, vpn: u64, valid: bool) {
        let pte = self
            .tables
            .get_mut(tid.raw() as usize)
            .and_then(|t| t.get_mut(vpn))
            .unwrap_or_else(|| panic!("setting valid bit of absent page {vpn:#x} of {tid}"));
        pte.valid = valid;
        self.tc_invalidate(tid, vpn);
    }

    /// Number of pages currently mapped for `tid`.
    pub fn resident_pages(&self, tid: Tid) -> usize {
        self.tables
            .get(tid.raw() as usize)
            .map(|t| t.live)
            .unwrap_or(0)
    }

    /// Iterates over `(vpn, pte)` for a task, in ascending VPN order.
    pub fn pages(&self, tid: Tid) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.tables
            .get(tid.raw() as usize)
            .into_iter()
            .flat_map(|t| t.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeworm_mem::SequentialAllocator;

    fn vm(frames: usize) -> Vm {
        Vm::new(
            PageSize::DEFAULT,
            Box::new(SequentialAllocator::new(frames)),
        )
    }

    const T1: Tid = Tid::new(1);
    const T2: Tid = Tid::new(2);

    #[test]
    fn fault_map_translate_roundtrip() {
        let mut vm = vm(8);
        let va = VirtAddr::new(0x5432);
        assert_eq!(vm.translate(T1, va), Translation::NotMapped);
        let (pfn, ev) = vm.map_new(T1, va.page_number(4096)).unwrap();
        assert_eq!(
            ev,
            VmEvent::PageRegistered {
                tid: T1,
                pfn,
                vpn: 5
            }
        );
        match vm.translate(T1, va) {
            Translation::Mapped(pa) => {
                assert_eq!(pa.page_offset(4096), 0x432);
                assert_eq!(pa.page_number(4096), pfn.raw());
            }
            other => panic!("expected mapping, got {other:?}"),
        }
        assert_eq!(vm.faults(), 1);
    }

    #[test]
    fn tasks_have_independent_address_spaces() {
        let mut vm = vm(8);
        let (pfn1, _) = vm.map_new(T1, 5).unwrap();
        let (pfn2, _) = vm.map_new(T2, 5).unwrap();
        assert_ne!(pfn1, pfn2);
        assert_eq!(vm.resident_pages(T1), 1);
        assert_eq!(vm.resident_pages(T2), 1);
    }

    #[test]
    fn shared_mapping_keeps_frame_alive_until_last_unmap() {
        let mut vm = vm(8);
        let (pfn, _) = vm.map_new(T1, 0).unwrap();
        let free_before = vm.free_frames();
        vm.map_shared(T2, 9, pfn);
        vm.unmap(T1, 0);
        // Frame still referenced by T2; not freed.
        assert_eq!(vm.free_frames(), free_before);
        vm.unmap(T2, 9);
        assert_eq!(vm.free_frames(), free_before + 1);
    }

    #[test]
    fn valid_bit_trap_is_distinguished_from_real_fault() {
        let mut vm = vm(8);
        let va = VirtAddr::new(0x2000);
        vm.map_new(T1, va.page_number(4096)).unwrap();
        vm.set_valid(T1, va.page_number(4096), false);
        assert!(matches!(
            vm.translate(T1, va),
            Translation::TapewormPageTrap(_)
        ));
        vm.set_valid(T1, va.page_number(4096), true);
        assert!(matches!(vm.translate(T1, va), Translation::Mapped(_)));
        // An unmapped address is a *real* fault, not a trap.
        assert_eq!(
            vm.translate(T1, VirtAddr::new(0x9_0000)),
            Translation::NotMapped
        );
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut vm = vm(1);
        vm.map_new(T1, 0).unwrap();
        let err = vm.map_new(T1, 1).unwrap_err();
        assert_eq!(err, OutOfMemoryError { tid: T1, vpn: 1 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn unmap_all_emits_every_removal() {
        let mut vm = vm(8);
        for vpn in 0..3 {
            vm.map_new(T1, vpn).unwrap();
        }
        let events = vm.unmap_all(T1);
        assert_eq!(events.len(), 3);
        assert_eq!(vm.resident_pages(T1), 0);
        assert_eq!(vm.free_frames(), 8);
        assert!(events
            .iter()
            .all(|e| matches!(e, VmEvent::PageRemoved { tid, .. } if *tid == T1)));
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut vm = vm(4);
        vm.map_new(T1, 0).unwrap();
        vm.map_new(T1, 0).unwrap();
    }

    #[test]
    #[should_panic(expected = "absent page")]
    fn unmap_absent_panics() {
        let mut vm = vm(4);
        vm.unmap(T1, 7);
    }

    #[test]
    fn pages_iterator_reports_mappings() {
        let mut vm = vm(4);
        vm.map_new(T1, 3).unwrap();
        vm.map_new(T1, 9).unwrap();
        let vpns: Vec<u64> = vm.pages(T1).map(|(v, _)| v).collect();
        assert_eq!(vpns, vec![3, 9], "pages iterate in ascending VPN order");
    }

    #[test]
    fn sparse_fallback_handles_far_apart_mappings() {
        let mut vm = vm(16);
        // A compact low range plus mappings far outside MAX_DENSE_SPAN
        // of it, inserted out of order.
        let far = MAX_DENSE_SPAN * 4;
        for vpn in [10, far + 2, 11, far, far + MAX_DENSE_SPAN * 2, 12] {
            vm.map_new(T1, vpn).unwrap();
        }
        for vpn in [10, 11, 12, far, far + 2, far + MAX_DENSE_SPAN * 2] {
            assert!(vm.pte(T1, vpn).is_some(), "vpn {vpn:#x} must be mapped");
            let va = VirtAddr::new(vpn * 4096 + 8);
            assert_eq!(vm.translate_cached(T1, va), vm.translate(T1, va));
        }
        assert_eq!(vm.resident_pages(T1), 6);
        let vpns: Vec<u64> = vm.pages(T1).map(|(v, _)| v).collect();
        assert_eq!(
            vpns,
            vec![10, 11, 12, far, far + 2, far + MAX_DENSE_SPAN * 2]
        );
        assert_eq!(vm.unmap_all(T1).len(), 6);
        assert_eq!(vm.free_frames(), 16);
    }

    #[test]
    fn dense_window_widens_downwards_and_absorbs_overflow() {
        let mut vm = vm(8);
        vm.map_new(T1, 1000).unwrap();
        vm.map_new(T1, 500).unwrap(); // within span: window rebases down
        vm.map_new(T1, 700).unwrap();
        let vpns: Vec<u64> = vm.pages(T1).map(|(v, _)| v).collect();
        assert_eq!(vpns, vec![500, 700, 1000]);
        for vpn in [500, 700, 1000] {
            assert!(matches!(
                vm.translate(T1, VirtAddr::new(vpn * 4096)),
                Translation::Mapped(_)
            ));
        }
    }

    #[test]
    fn translation_cache_agrees_after_unmap_and_valid_clear() {
        let mut vm = vm(8);
        let va = VirtAddr::new(0x3000);
        let vpn = va.page_number(4096);
        vm.map_new(T1, vpn).unwrap();
        // Prime the cache.
        assert!(matches!(
            vm.translate_cached(T1, va),
            Translation::Mapped(_)
        ));
        // Valid-bit clear must not be hidden by the cache (TLB mode).
        vm.set_valid(T1, vpn, false);
        assert!(matches!(
            vm.translate_cached(T1, va),
            Translation::TapewormPageTrap(_)
        ));
        vm.set_valid(T1, vpn, true);
        assert!(matches!(
            vm.translate_cached(T1, va),
            Translation::Mapped(_)
        ));
        // Unmap (pageout) must not be hidden either.
        vm.unmap(T1, vpn);
        assert_eq!(vm.translate_cached(T1, va), Translation::NotMapped);
    }

    #[test]
    fn translation_counters_track_hits_misses_and_walks() {
        let mut vm = vm(8);
        let va = VirtAddr::new(0x3000);
        vm.map_new(T1, va.page_number(4096)).unwrap();
        assert_eq!(vm.translate_cached(T1, va), vm.translate(T1, va));
        vm.translate_cached(T1, va);
        vm.translate_cached(T1, va);
        assert_eq!(vm.tc_misses(), 1, "first caching lookup walks");
        assert_eq!(vm.tc_hits(), 2, "repeat lookups hit the cache");
        // Walks: the caching miss, the direct translate() above.
        assert_eq!(vm.walks(), 2);
    }

    /// O(1) bump allocator so a huge-capacity test does not pay
    /// [`SequentialAllocator`]'s eager free list (or its per-free
    /// re-sort).
    #[derive(Debug)]
    struct BumpAllocator {
        next: u64,
        freed: usize,
        capacity: usize,
    }

    impl tapeworm_mem::FrameAllocator for BumpAllocator {
        fn allocate(&mut self, _vpn: u64) -> Option<Pfn> {
            if (self.next as usize) < self.capacity {
                self.next += 1;
                Some(Pfn::new(self.next - 1))
            } else {
                None
            }
        }
        fn free(&mut self, _pfn: Pfn) {
            self.freed += 1;
        }
        fn available(&self) -> usize {
            self.capacity - self.next as usize + self.freed
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
    }

    #[test]
    fn huge_frame_table_commits_only_mapped_chunks() {
        // 64 GiB of 4 KiB frames = 16M refcounts; a sparse VM must not
        // materialize them. Map and unmap a handful of pages and check
        // only the touched refcount chunks got backing.
        let frames = (64u64 << 30) / 4096;
        let mut vm = Vm::new(
            PageSize::DEFAULT,
            Box::new(BumpAllocator {
                next: 0,
                freed: 0,
                capacity: frames as usize,
            }),
        );
        for vpn in 0..8 {
            vm.map_new(T1, vpn).unwrap();
        }
        let stats = vm.sparse_stats();
        assert!(
            stats.chunks_allocated <= 1,
            "8 sequential frames live in one refcount chunk, got {stats:?}"
        );
        assert!(stats.zero_chunks_deduped > 10_000);
        vm.unmap_all(T1);
        assert_eq!(vm.free_frames(), frames as usize);
    }

    /// Map, share and unmap against a plain model: an array of frame
    /// refcounts and a `Vec` of `(task, vpn, frame)` mappings.
    #[test]
    fn vm_matches_a_plain_vec_model() {
        let mut vm = Vm::new(PageSize::DEFAULT, Box::new(SequentialAllocator::new(32)));
        let mut refs = [0u32; 32];
        let mut maps: Vec<(Tid, u64, u64)> = Vec::new();
        let (pfn, _) = vm.map_new(T1, 3).unwrap();
        refs[pfn.raw() as usize] += 1;
        maps.push((T1, 3, pfn.raw()));
        vm.map_shared(T2, 9, pfn);
        refs[pfn.raw() as usize] += 1;
        maps.push((T2, 9, pfn.raw()));
        let (other, _) = vm.map_new(T1, 100).unwrap();
        refs[other.raw() as usize] += 1;
        maps.push((T1, 100, other.raw()));
        vm.unmap(T1, 3);
        refs[pfn.raw() as usize] -= 1;
        maps.retain(|&(tid, vpn, _)| (tid, vpn) != (T1, 3));

        assert_eq!(vm.free_frames(), refs.iter().filter(|&&r| r == 0).count());
        for &(tid, vpn, frame) in &maps {
            assert_eq!(
                vm.translate(tid, VirtAddr::new(vpn * 4096)),
                Translation::Mapped(PhysAddr::new(frame * 4096))
            );
        }
        assert_eq!(
            vm.translate(T1, VirtAddr::new(3 * 4096)),
            Translation::NotMapped
        );
        let resident = |t: Tid| maps.iter().filter(|&&(tid, _, _)| tid == t).count();
        assert_eq!(vm.resident_pages(T1), resident(T1));
        assert_eq!(vm.resident_pages(T2), resident(T2));
    }

    #[test]
    fn translation_cache_is_task_tagged() {
        let mut vm = vm(8);
        let va = VirtAddr::new(0x7000);
        let vpn = va.page_number(4096);
        let (pfn1, _) = vm.map_new(T1, vpn).unwrap();
        let (pfn2, _) = vm.map_new(T2, vpn).unwrap();
        assert_ne!(pfn1, pfn2);
        let pa1 = match vm.translate_cached(T1, va) {
            Translation::Mapped(pa) => pa,
            other => panic!("expected mapping, got {other:?}"),
        };
        // Same VPN, other task: must see its own frame, not T1's entry.
        let pa2 = match vm.translate_cached(T2, va) {
            Translation::Mapped(pa) => pa,
            other => panic!("expected mapping, got {other:?}"),
        };
        assert_ne!(pa1.page_number(4096), pa2.page_number(4096));
        assert_eq!(pa1.page_number(4096), pfn1.raw());
        assert_eq!(pa2.page_number(4096), pfn2.raw());
    }
}
