//! The software data structure behind `tw_replace`.

use tapeworm_mem::{PhysAddr, VirtAddr};
use tapeworm_os::Tid;
use tapeworm_stats::{Rng, SeedSeq};

use crate::config::{CacheConfig, Indexing, Replacement};

/// One resident line of the simulated cache.
///
/// Both addresses are retained: the physical line locates the trap to
/// re-arm on displacement; the virtual line plus `tid` form the tag
/// under virtual indexing ("the tid is used to form part of the cache
/// tag", Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Owning task (tag component under virtual indexing).
    pub tid: Tid,
    /// Line-aligned virtual address.
    pub va: VirtAddr,
    /// Line-aligned physical address.
    pub pa: PhysAddr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Slot {
    line: Option<CacheLine>,
}

/// A set-associative simulated cache.
///
/// Tapeworm never *searches* this structure on the hot path — hardware
/// filters hits — so the only operations are insert-with-displacement
/// (`tw_replace`), page flush (`tw_remove_page`) and invariant probes
/// for tests.
///
/// # Examples
///
/// ```
/// use tapeworm_core::{CacheConfig, SimCache};
/// use tapeworm_os::Tid;
/// use tapeworm_mem::{PhysAddr, VirtAddr};
/// use tapeworm_stats::{Rng, SeedSeq};
///
/// let cfg = CacheConfig::new(1024, 16, 1)?;
/// let mut cache = SimCache::new(cfg, SeedSeq::new(1));
/// let displaced = cache.insert(Tid::new(1), VirtAddr::new(0x100), PhysAddr::new(0x900));
/// assert!(displaced.is_none()); // cold cache
/// # Ok::<(), tapeworm_core::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct SimCache {
    cfg: CacheConfig,
    slots: Vec<Slot>,
    /// Per-set FIFO cursor.
    cursors: Vec<u32>,
    rng: Rng,
    resident: u64,
}

impl SimCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig, seed: SeedSeq) -> Self {
        let n = (cfg.sets() * u64::from(cfg.associativity())) as usize;
        SimCache {
            cfg,
            slots: vec![Slot::default(); n],
            cursors: vec![0; cfg.sets() as usize],
            rng: seed.derive("simcache", cfg.size_bytes()).rng(),
            resident: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of lines currently resident.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let ways = self.cfg.associativity() as usize;
        let start = set as usize * ways;
        start..start + ways
    }

    /// Inserts the line for `(tid, va, pa)` (which just missed),
    /// displacing and returning a victim if its set is full
    /// (`tw_replace` in Table 1).
    ///
    /// Addresses are line-aligned internally; callers may pass any
    /// address within the line.
    #[inline]
    pub fn insert(&mut self, tid: Tid, va: VirtAddr, pa: PhysAddr) -> Option<CacheLine> {
        let line_bytes = self.cfg.line_bytes();
        let entry = CacheLine {
            tid,
            va: va.line_base(line_bytes),
            pa: pa.line_base(line_bytes),
        };
        let set = self.cfg.set_of(entry.va, entry.pa);
        self.insert_in_set(set, entry)
    }

    /// [`SimCache::insert`] of a line-aligned `entry` whose set the
    /// caller already knows: set-state burst service walks a run's
    /// consecutive sets without a per-line `set_of`.
    #[inline]
    pub(crate) fn insert_in_set(&mut self, set: u64, entry: CacheLine) -> Option<CacheLine> {
        debug_assert_eq!(set, self.cfg.set_of(entry.va, entry.pa));
        let ways = self.cfg.associativity() as usize;
        if ways == 1 {
            // Direct-mapped: the lone way is the whole search, and the
            // victim when it holds another line. The FIFO cursor never
            // moves ((0 + 1) % 1 == 0); Random still spends its one
            // draw per displacement.
            let slot = &mut self.slots[set as usize];
            return match slot.line {
                Some(l) if l == entry => None,
                None => {
                    slot.line = Some(entry);
                    self.resident += 1;
                    None
                }
                Some(_) => {
                    if self.cfg.replacement() == Replacement::Random {
                        let _: usize = self.rng.gen_range(0..1);
                    }
                    slot.line.replace(entry)
                }
            };
        }
        let range = self.set_range(set);

        // One pass over the set: a duplicate (a shared line that
        // re-misses under virtual or physical aliasing) is a refresh
        // with no displacement wherever it sits, even behind an empty
        // way; otherwise the first empty way takes the line.
        let mut empty = None;
        for i in range.clone() {
            match self.slots[i].line {
                Some(l) if l == entry => return None,
                None if empty.is_none() => empty = Some(i),
                _ => {}
            }
        }
        if let Some(i) = empty {
            self.slots[i].line = Some(entry);
            self.resident += 1;
            return None;
        }
        let victim_way = match self.cfg.replacement() {
            Replacement::Fifo => {
                let c = &mut self.cursors[set as usize];
                let way = *c as usize;
                *c = (*c + 1) % self.cfg.associativity();
                way
            }
            Replacement::Random => self.rng.gen_range(0..ways),
        };
        let i = range.start + victim_way;
        self.slots[i].line.replace(entry)
    }

    /// Removes and returns every line whose physical address lies in
    /// `[page_pa, page_pa + page_bytes)` — the flush performed by
    /// `tw_remove_page`.
    pub fn flush_physical_page(&mut self, page_pa: PhysAddr, page_bytes: u64) -> Vec<CacheLine> {
        let mut flushed = Vec::new();
        for slot in &mut self.slots {
            if let Some(line) = slot.line {
                let off = line.pa.raw().wrapping_sub(page_pa.raw());
                if off < page_bytes {
                    flushed.push(line);
                    slot.line = None;
                    self.resident -= 1;
                }
            }
        }
        flushed
    }

    /// `true` when the physical line containing `pa` is resident (for
    /// any task/virtual alias). Test/diagnostic use only — the real
    /// simulator never searches.
    pub fn contains_physical(&self, pa: PhysAddr) -> bool {
        let pa = pa.line_base(self.cfg.line_bytes());
        self.slots
            .iter()
            .any(|s| matches!(s.line, Some(l) if l.pa == pa))
    }

    /// Removes the line holding physical address `pa`, if resident
    /// (first alias only). Used by multi-level simulation to enforce
    /// inclusion: an L2 eviction must invalidate the L1 copy.
    pub fn remove_physical_line(&mut self, pa: PhysAddr) -> Option<CacheLine> {
        let pa = pa.line_base(self.cfg.line_bytes());
        for slot in &mut self.slots {
            if matches!(slot.line, Some(l) if l.pa == pa) {
                self.resident -= 1;
                return slot.line.take();
            }
        }
        None
    }

    /// Searches for the physical line and reports it without mutating
    /// state (the software L2 lookup inside a multi-level handler —
    /// legitimate because it runs *in the miss handler*, not per
    /// reference).
    pub fn lookup_physical(&self, pa: PhysAddr) -> Option<&CacheLine> {
        let pa = pa.line_base(self.cfg.line_bytes());
        self.slots
            .iter()
            .filter_map(|s| s.line.as_ref())
            .find(|l| l.pa == pa)
    }

    /// Iterates over resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        self.slots.iter().filter_map(|s| s.line.as_ref())
    }

    /// Empties the cache (between trials).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.line = None;
        }
        self.cursors.fill(0);
        self.resident = 0;
    }

    /// The indexing mode (convenience passthrough).
    pub fn indexing(&self) -> Indexing {
        self.cfg.indexing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64, line: u64, ways: u32) -> SimCache {
        SimCache::new(CacheConfig::new(size, line, ways).unwrap(), SeedSeq::new(3))
    }

    fn line(tid: u16, addr: u64) -> (Tid, VirtAddr, PhysAddr) {
        (Tid::new(tid), VirtAddr::new(addr), PhysAddr::new(addr))
    }

    #[test]
    fn cold_inserts_do_not_displace() {
        let mut c = cache(256, 16, 1); // 16 sets
        for i in 0..16u64 {
            let (t, va, pa) = line(1, i * 16);
            assert!(c.insert(t, va, pa).is_none());
        }
        assert_eq!(c.resident(), 16);
    }

    #[test]
    fn direct_mapped_conflict_displaces_same_set() {
        let mut c = cache(256, 16, 1); // 16 sets
        let (t, va0, pa0) = line(1, 0);
        c.insert(t, va0, pa0);
        // Address 256 maps to set 0 again.
        let (t, va1, pa1) = line(1, 256);
        let displaced = c.insert(t, va1, pa1).expect("conflict must displace");
        assert_eq!(displaced.pa, pa0);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn two_way_set_holds_two_conflicting_lines() {
        let mut c = cache(512, 16, 2); // 16 sets, 2 ways
        let (t, va0, pa0) = line(1, 0);
        let (_, va1, pa1) = line(1, 256);
        let (_, va2, pa2) = line(1, 512);
        assert!(c.insert(t, va0, pa0).is_none());
        assert!(c.insert(t, va1, pa1).is_none());
        // Third conflicting line displaces FIFO victim = first inserted.
        let d = c.insert(t, va2, pa2).unwrap();
        assert_eq!(d.pa, pa0);
        // Fourth displaces the second.
        let (_, va3, pa3) = line(1, 768);
        let d = c.insert(t, va3, pa3).unwrap();
        assert_eq!(d.pa, pa1);
    }

    #[test]
    fn unaligned_addresses_are_line_aligned() {
        let mut c = cache(256, 16, 1);
        let t = Tid::new(1);
        c.insert(t, VirtAddr::new(0x13), PhysAddr::new(0x27));
        assert!(c.contains_physical(PhysAddr::new(0x20)));
        assert!(c.contains_physical(PhysAddr::new(0x2F)));
        assert!(!c.contains_physical(PhysAddr::new(0x30)));
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut c = cache(256, 16, 2);
        let (t, va, pa) = line(1, 0x40);
        assert!(c.insert(t, va, pa).is_none());
        assert!(c.insert(t, va, pa).is_none());
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn virtual_indexing_tags_by_task() {
        let cfg = CacheConfig::new(256, 16, 2)
            .unwrap()
            .with_indexing(Indexing::Virtual);
        let mut c = SimCache::new(cfg, SeedSeq::new(1));
        // Same VA in two tasks: distinct lines, same set.
        let va = VirtAddr::new(0x40);
        let pa = PhysAddr::new(0x40);
        assert!(c.insert(Tid::new(1), va, pa).is_none());
        assert!(c.insert(Tid::new(2), va, pa).is_none());
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn flush_physical_page_removes_only_that_page() {
        let mut c = cache(4096, 16, 1);
        let t = Tid::new(1);
        // Lines in page 0 (0..4096 is the whole cache; use 2 pages of 256B).
        c.insert(t, VirtAddr::new(0x000), PhysAddr::new(0x000));
        c.insert(t, VirtAddr::new(0x010), PhysAddr::new(0x010));
        c.insert(t, VirtAddr::new(0x100), PhysAddr::new(0x100));
        let flushed = c.flush_physical_page(PhysAddr::new(0), 0x100);
        assert_eq!(flushed.len(), 2);
        assert!(!c.contains_physical(PhysAddr::new(0x000)));
        assert!(c.contains_physical(PhysAddr::new(0x100)));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn random_replacement_displaces_something_in_the_set() {
        let cfg = CacheConfig::new(512, 16, 2)
            .unwrap()
            .with_replacement(Replacement::Random);
        let mut c = SimCache::new(cfg, SeedSeq::new(9));
        let t = Tid::new(1);
        c.insert(t, VirtAddr::new(0), PhysAddr::new(0));
        c.insert(t, VirtAddr::new(256), PhysAddr::new(256));
        let d = c.insert(t, VirtAddr::new(512), PhysAddr::new(512)).unwrap();
        assert!(d.pa == PhysAddr::new(0) || d.pa == PhysAddr::new(256));
    }

    #[test]
    fn insert_refreshes_duplicates_fills_first_empty_and_displaces_last() {
        // 4 sets × 4 ways; lines 64 bytes apart share a set.
        let mut c = cache(256, 16, 4);
        let t = Tid::new(1);
        let at = |a: u64| (VirtAddr::new(a), PhysAddr::new(a));
        for a in [0x000, 0x040, 0x080, 0x0C0] {
            let (va, pa) = at(a);
            assert!(c.insert(t, va, pa).is_none(), "cold way {a:#x}");
        }
        // Empty way 1 (line 0x040) with a flush: the duplicate of 0x080
        // now sits behind an empty way and must refresh in place.
        assert_eq!(c.flush_physical_page(PhysAddr::new(0x040), 0x10).len(), 1);
        let (cursor, rng) = (c.cursors.clone(), c.rng.clone());
        let (va, pa) = at(0x080);
        assert!(c.insert(t, va, pa).is_none());
        assert!(c.slots[1].line.is_none(), "refresh filled the empty way");
        assert_eq!(c.resident(), 3);
        // A new line takes the first empty way, still without moving
        // the FIFO cursor.
        let (va, pa) = at(0x100);
        assert!(c.insert(t, va, pa).is_none());
        assert_eq!(c.slots[1].line.map(|l| l.pa), Some(pa));
        assert_eq!((c.cursors.clone(), c.rng.clone()), (cursor, rng));
        // Only a full set displaces, at the cursor, which then moves.
        let (va, pa) = at(0x140);
        assert_eq!(c.insert(t, va, pa).map(|l| l.pa.raw()), Some(0x000));
        assert_eq!(c.cursors[0], 1);

        // Random replacement draws only on displacement too.
        let cfg = CacheConfig::new(256, 16, 4)
            .unwrap()
            .with_replacement(Replacement::Random);
        let mut r = SimCache::new(cfg, SeedSeq::new(9));
        for a in [0x000, 0x040, 0x080, 0x0C0, 0x080] {
            let (va, pa) = at(a);
            let before = r.rng.clone();
            assert!(r.insert(t, va, pa).is_none());
            assert_eq!(r.rng, before, "no displacement, no draw ({a:#x})");
        }
        let mut expect = r.rng.clone();
        let way = expect.gen_range(0..4usize);
        let (va, pa) = at(0x100);
        let victim = r.insert(t, va, pa).expect("full set displaces");
        assert_eq!(victim.pa.raw(), way as u64 * 0x40);
        assert_eq!(r.rng, expect, "one draw per displacement");
    }

    /// The direct-mapped short-circuit in [`SimCache::insert`] against
    /// a plain one-line-per-set model over a SplitMix64 stream of lines
    /// drawn from a pool small enough to revisit sets and repeat lines,
    /// with the odd page flush to empty slots again: a duplicate
    /// refreshes without displacing, an empty slot fills (`resident` +
    /// 1), anything else displaces the lone way. The FIFO cursor never
    /// moves; Random spends exactly one draw per displacement and none
    /// otherwise.
    #[test]
    fn direct_mapped_insert_matches_a_slot_per_set_model() {
        for replacement in [Replacement::Fifo, Replacement::Random] {
            let cfg = CacheConfig::new(256, 16, 1)
                .unwrap()
                .with_replacement(replacement);
            let sets = cfg.sets() as usize;
            let mut c = SimCache::new(cfg, SeedSeq::new(5));
            let mut model: Vec<Option<CacheLine>> = vec![None; sets];
            let mut stream = Rng::from_seed(0xd1_2ec7);
            let mut seen = [0u32; 3]; // refreshes, fills, displacements
            for _ in 0..4096 {
                let r = stream.next_u64();
                let pa = (r % 64) * 16;
                // Two tasks share the pool: the same physical line
                // under another tag is a distinct line in its set.
                let tid = Tid::new(1 + (r >> 32) as u16 % 2);
                let entry = CacheLine {
                    tid,
                    va: VirtAddr::new(pa + u64::from(tid.raw()) * 0x1000),
                    pa: PhysAddr::new(pa),
                };
                let set = (pa / 16) as usize % sets;
                if r >> 60 == 0 {
                    // Empty some slots again: flush a 256-byte "page".
                    let base = pa & !0xff;
                    c.flush_physical_page(PhysAddr::new(base), 0x100);
                    for slot in &mut model {
                        if slot.is_some_and(|l| l.pa.raw() & !0xff == base) {
                            *slot = None;
                        }
                    }
                }
                let (resident, mut draws) = (c.resident(), c.rng.clone());
                let got = c.insert(entry.tid, entry.va + 7, entry.pa + 3);
                let want = match model[set] {
                    Some(l) if l == entry => {
                        seen[0] += 1;
                        assert_eq!(c.resident(), resident);
                        None
                    }
                    None => {
                        seen[1] += 1;
                        assert_eq!(c.resident(), resident + 1);
                        model[set] = Some(entry);
                        None
                    }
                    old @ Some(_) => {
                        seen[2] += 1;
                        assert_eq!(c.resident(), resident);
                        if replacement == Replacement::Random {
                            let _: usize = draws.gen_range(0..1);
                        }
                        model[set] = Some(entry);
                        old
                    }
                };
                assert_eq!(got, want);
                assert_eq!(c.rng, draws, "{replacement:?}: one draw per displacement");
                assert!(c.cursors.iter().all(|&k| k == 0));
                let lines: Vec<_> = c.slots.iter().map(|s| s.line).collect();
                assert_eq!(lines, model);
            }
            assert!(seen.iter().all(|&n| n > 100), "{replacement:?}: {seen:?}");
        }
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = cache(256, 16, 1);
        c.insert(Tid::new(1), VirtAddr::new(0), PhysAddr::new(0));
        c.clear();
        assert_eq!(c.resident(), 0);
        assert_eq!(c.iter().count(), 0);
    }
}
