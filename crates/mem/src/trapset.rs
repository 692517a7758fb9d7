//! Fast trap bitmap — the simulator's hot-path view of which memory
//! granules carry traps.
//!
//! Semantically a [`TrapMap`] is the projection of
//! [`EccMemory`](crate::EccMemory) trap state down to one bit per
//! *granule* (a cache line for cache simulation, a page for TLB
//! simulation). Integration tests assert the two models agree; the
//! simulator uses this one so that the hit path costs a couple of shifts
//! and a load, mirroring how the real hardware filters hits at full
//! speed.
//!
//! Both the bitmap and the per-frame counts live on demand-allocated
//! [`SparseVec`] chunks (see [`crate::sparse`]): a map over a 64 GiB
//! simulated memory commits host RAM only for the frames that ever
//! carry traps, and chunks that never did share one canonical zero
//! chunk.

use crate::addr::PhysAddr;
use crate::sparse::{SparseStats, SparseVec};

/// A bitmap of trapped granules over a physical memory.
///
/// # Examples
///
/// ```
/// use tapeworm_mem::{PhysAddr, TrapMap};
///
/// let mut traps = TrapMap::new(4096, 16);
/// traps.set_range(PhysAddr::new(0), 64);
/// assert_eq!(traps.count(), 4);
/// // Only granules selected by a predicate (set sampling):
/// traps.clear_range(PhysAddr::new(0), 64);
/// traps.set_range_filtered(PhysAddr::new(0), 64, |line| line % 2 == 0);
/// assert_eq!(traps.count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TrapMap {
    /// One bit per granule, on chunked sparse backing: untouched
    /// 512-word chunks share the canonical zero chunk.
    bits: SparseVec<u64>,
    granule: u64,
    /// `granule.trailing_zeros()`: granule indexing is a shift, not a
    /// divide, on the per-access and per-miss paths.
    shift: u32,
    granules: u64,
    count: u64,
    /// Trapped-granule count per [`TrapMap::FRAME_BYTES`] frame, kept in
    /// lockstep with `bits` so "is this whole frame clean?" is one load
    /// instead of a bitmap scan. A granule larger than a frame
    /// contributes to every frame it overlaps. Derivable from `bits`, so
    /// excluded from equality.
    frame_counts: SparseVec<u32>,
    set_events: u64,
    clear_events: u64,
}

/// Equality is over trap *state* (geometry and armed granules), not
/// the lifetime set/clear event counters — two maps that arrived at
/// the same state along different paths compare equal. The bitmap
/// comparison is logical, so a chunk that was written and cleared
/// again equals one that was never touched.
impl PartialEq for TrapMap {
    fn eq(&self, other: &Self) -> bool {
        self.granule == other.granule
            && self.granules == other.granules
            && self.count == other.count
            && self.bits == other.bits
    }
}

impl Eq for TrapMap {}

impl TrapMap {
    /// Creates an all-clear map over `mem_bytes` of memory at `granule`
    /// byte granularity, on sparse (demand-allocated) backing.
    ///
    /// # Panics
    ///
    /// Panics if `granule` is zero or not a power of two, or if
    /// `mem_bytes` is not a multiple of `granule`.
    pub fn new(mem_bytes: u64, granule: u64) -> Self {
        assert!(
            granule.is_power_of_two(),
            "trap granule must be a power of two"
        );
        assert!(
            mem_bytes % granule == 0,
            "memory size must be a whole number of granules"
        );
        let granules = mem_bytes / granule;
        TrapMap {
            bits: SparseVec::new(granules.div_ceil(64) as usize, 0),
            granule,
            shift: granule.trailing_zeros(),
            granules,
            count: 0,
            frame_counts: SparseVec::new(mem_bytes.div_ceil(Self::FRAME_BYTES) as usize, 0),
            set_events: 0,
            clear_events: 0,
        }
    }

    /// Trap granule in bytes.
    pub fn granule(&self) -> u64 {
        self.granule
    }

    /// Total number of granules covered.
    pub fn granules(&self) -> u64 {
        self.granules
    }

    /// Number of granules currently trapped.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Aggregated allocation counters of the bitmap and the per-frame
    /// counts — the source of the `sparse_chunks_allocated` /
    /// `zero_chunks_deduped` / `chunk_faults` observability counters.
    pub fn sparse_stats(&self) -> SparseStats {
        self.bits.stats().merge(self.frame_counts.stats())
    }

    /// Frame size of the per-frame trapped-granule counts, matching the
    /// default page size: the hot path asks "is the frame backing this
    /// page clean?" and a frame is exactly one page.
    pub const FRAME_BYTES: u64 = 4096;

    /// Number of trapped granules overlapping the frame containing
    /// `pa`. Out-of-range frames hold no traps.
    #[inline]
    pub fn frame_trapped(&self, pa: PhysAddr) -> u32 {
        let f = (pa.raw() / Self::FRAME_BYTES) as usize;
        self.frame_counts.get(f).unwrap_or(0)
    }

    /// `true` when the frame containing `pa` carries no traps at all —
    /// one O(1) load, the clean-run filter of the fast path.
    #[inline]
    pub fn frame_clean(&self, pa: PhysAddr) -> bool {
        self.frame_trapped(pa) == 0
    }

    /// Frames a granule index overlaps (one frame when the granule is
    /// no larger than a frame, several when it is).
    fn frames_of(&self, g: u64) -> std::ops::Range<usize> {
        let first = ((g << self.shift) / Self::FRAME_BYTES) as usize;
        let last = ((((g + 1) << self.shift) - 1) / Self::FRAME_BYTES) as usize;
        first..(last + 1).min(self.frame_counts.len())
    }

    /// `true` when the granule containing `pa` is trapped.
    ///
    /// Out-of-range addresses are never trapped.
    #[inline]
    pub fn is_trapped(&self, pa: PhysAddr) -> bool {
        let g = pa.raw() >> self.shift;
        if g >= self.granules {
            return false;
        }
        self.bits.load((g / 64) as usize) & (1 << (g % 64)) != 0
    }

    /// Recomputes the trapped-granule count from the bitmap itself —
    /// one popcount pass per materialized storage chunk, with shared
    /// (all-zero) chunks skipped on a single table load each. The
    /// result always equals [`TrapMap::count`] (the incremental tally);
    /// this is the verification/microbenchmark primitive that pins the
    /// bookkeeping and measures the full-sweep cost directly.
    pub fn recount(&self) -> u64 {
        let mut total = 0u64;
        for c in 0..self.bits.chunks() {
            if self.bits.chunk_is_canonical(c) {
                continue;
            }
            total += self
                .bits
                .chunk_slice(c)
                .iter()
                .map(|x| u64::from(x.count_ones()))
                .sum::<u64>();
        }
        total
    }

    /// How many `u64` bitmap words a wide scan folds per iteration.
    /// Eight words (512 granules) per OR-reduction keeps the loop in
    /// SIMD range for LLVM's auto-vectorizer while the single-word
    /// tail preserves exact boundary semantics.
    pub const SCAN_CHUNK_WORDS: usize = 8;

    /// Length in bytes of the trap-free span starting at `pa`: the
    /// largest `n <= max_bytes` such that no granule overlapping
    /// `[pa, pa + n)` is trapped (so `n == 0` when `pa`'s own granule
    /// is trapped). Scans the bitmap in [`TrapMap::SCAN_CHUNK_WORDS`]
    /// `u64` chunks — one OR-reduction covers 512 granules — and skips
    /// whole storage chunks still sharing the canonical zero chunk on
    /// one table load (32768 granules at a time), so the fast path can
    /// size a resident-run batch without probing granule by granule.
    /// Out-of-range granules are never trapped and extend the span.
    #[inline]
    pub fn clean_span(&self, pa: PhysAddr, max_bytes: u64) -> u64 {
        if max_bytes == 0 {
            return 0;
        }
        let g_last = (pa.raw() + max_bytes - 1) >> self.shift;
        let g0 = pa.raw() >> self.shift;
        if g0 >= self.granules {
            return max_bytes;
        }
        // First (possibly mid-word) position: mask off granules below
        // the start and test the remainder of the word.
        let w0 = (g0 / 64) as usize;
        let rest = self.bits.load(w0) >> (g0 % 64);
        if rest != 0 {
            let first_trapped = g0 + u64::from(rest.trailing_zeros());
            return self.span_until(pa, first_trapped, g_last, max_bytes);
        }
        // Whole-word region: bits past `granules` are never set, so the
        // final partial word is safe to scan in full.
        let w_end = ((g_last.min(self.granules - 1)) / 64) as usize + 1;
        let cshift = self.bits.chunk_shift();
        let mut w = w0 + 1;
        while w < w_end {
            let c = w >> cshift;
            let c_end = ((c + 1) << cshift).min(w_end);
            if self.bits.chunk_is_canonical(c) {
                // Still sharing the canonical zero chunk: all clean.
                w = c_end;
                continue;
            }
            let base = c << cshift;
            let slice = self.bits.chunk_slice(c);
            let mut i = w - base;
            let end = c_end - base;
            while i + Self::SCAN_CHUNK_WORDS <= end {
                let s = &slice[i..i + Self::SCAN_CHUNK_WORDS];
                if (s[0] | s[1] | s[2] | s[3] | s[4] | s[5] | s[6] | s[7]) != 0 {
                    break;
                }
                i += Self::SCAN_CHUNK_WORDS;
            }
            while i < end {
                let word = slice[i];
                if word != 0 {
                    let first_trapped = (base + i) as u64 * 64 + u64::from(word.trailing_zeros());
                    return self.span_until(pa, first_trapped, g_last, max_bytes);
                }
                i += 1;
            }
            w = c_end;
        }
        max_bytes
    }

    /// Span length from `pa` up to (not including) granule
    /// `first_trapped`, clipped to the request.
    #[inline]
    fn span_until(&self, pa: PhysAddr, first_trapped: u64, g_last: u64, max_bytes: u64) -> u64 {
        if first_trapped > g_last {
            max_bytes
        } else {
            (first_trapped << self.shift)
                .saturating_sub(pa.raw())
                .min(max_bytes)
        }
    }

    /// Length of the run of consecutive trapped granules starting at
    /// `pa`'s granule, capped at `max_granules`. The dual of
    /// [`TrapMap::clean_span`]: where the resident-run fast path asks
    /// "how far is everything clean?", set-state burst service asks
    /// "how many granules in a row would trap?" so a whole miss burst
    /// can be sized from a handful of word loads instead of one bitmap
    /// probe per granule. Granules past the end of the map are never
    /// trapped and end the run.
    #[inline]
    pub fn trapped_run(&self, pa: PhysAddr, max_granules: u64) -> u64 {
        let g0 = pa.raw() >> self.shift;
        if max_granules == 0 || g0 >= self.granules {
            return 0;
        }
        let limit = g0.saturating_add(max_granules).min(self.granules);
        let mut g = g0;
        while g < limit {
            // Ones where a granule is *clear*, shifted so bit 0 is `g`.
            let clear = !self.bits.load((g / 64) as usize) >> (g % 64);
            if clear == 0 {
                // Trapped through the end of this word: keep scanning.
                g = (g / 64 + 1) * 64;
            } else {
                g += u64::from(clear.trailing_zeros());
                break;
            }
        }
        g.min(limit) - g0
    }

    /// Sets the trap on one granule by index. Returns `true` if it was
    /// previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn set_granule(&mut self, g: u64) -> bool {
        assert!(g < self.granules, "granule index out of range");
        let (w, b) = ((g / 64) as usize, g % 64);
        let old = self.bits.load(w);
        let was_clear = old & (1 << b) == 0;
        if was_clear {
            self.bits.store(w, old | (1 << b));
            self.count += 1;
            self.set_events += 1;
            for f in self.frames_of(g) {
                self.frame_counts.store(f, self.frame_counts.load(f) + 1);
            }
        }
        was_clear
    }

    /// Clears the trap on one granule by index. Returns `true` if it was
    /// previously set.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn clear_granule(&mut self, g: u64) -> bool {
        assert!(g < self.granules, "granule index out of range");
        let (w, b) = ((g / 64) as usize, g % 64);
        let old = self.bits.load(w);
        let was_set = old & (1 << b) != 0;
        if was_set {
            self.bits.store(w, old & !(1 << b));
            self.count -= 1;
            self.clear_events += 1;
            for f in self.frames_of(g) {
                self.frame_counts.store(f, self.frame_counts.load(f) - 1);
            }
        }
        was_set
    }

    /// Sets traps on every granule overlapping `[pa, pa + size)`
    /// (`tw_set_trap` in Table 1). Idempotent. Out-of-range granules are
    /// ignored. Runs word-masked — transitions come from
    /// `count_ones` over the flipped bits rather than a per-granule
    /// loop — so page-sized rewrites (registration, removal, miss
    /// re-arm) touch each bitmap word once.
    #[inline]
    pub fn set_range(&mut self, pa: PhysAddr, size: u64) {
        let r = self.range_granules(pa, size);
        if r.is_empty() {
            return;
        }
        if self.granule > Self::FRAME_BYTES {
            // A granule overlaps several frames: keep the per-granule
            // walk whose frame bookkeeping handles the overlap.
            for g in r {
                self.set_granule(g);
            }
            return;
        }
        self.edit(r.start, r.end - 1, true);
    }

    /// Sets or clears the traps on the inclusive, in-range granule span
    /// `[first, last]` (`granule <= FRAME_BYTES` required, as for
    /// [`TrapMap::apply_bulk`]). A span inside one bitmap word — the
    /// per-miss clear, a victim re-arm, most merged burst clears — is
    /// one masked load and store, one popcount of the flipped bits and
    /// one frame-count update; wider spans take the bulk loop. Always
    /// inlined: it is the whole per-miss trap edit.
    #[inline(always)]
    fn edit(&mut self, first: u64, last: u64, set: bool) {
        let w = (first / 64) as usize;
        if w != (last / 64) as usize {
            self.apply_bulk(first, last, set);
            return;
        }
        let transitions = self.flip_word(w, first % 64, last % 64, set);
        self.tally(transitions, set);
    }

    /// Sets (or clears) bits `lo..=hi` of bitmap word `w` and moves the
    /// per-frame counts with them; returns how many bits flipped. When
    /// every bit of the span flips, the usual case, the count is the
    /// span's width; only a partly flipped span pays for a popcount. A
    /// span that flips nothing stores nothing, so clearing untouched
    /// memory never materializes a chunk.
    #[inline(always)]
    fn flip_word(&mut self, w: usize, lo: u64, hi: u64, set: bool) -> u64 {
        let mask = word_mask(lo, hi);
        let old = self.bits.load(w);
        let flipped = if set { mask & !old } else { mask & old };
        if flipped == 0 {
            return 0;
        }
        self.bits.store(w, old ^ flipped);
        let n = if flipped == mask {
            hi - lo + 1
        } else {
            u64::from(flipped.count_ones())
        };
        self.bump_frame_counts(w, flipped, n as u32, set);
        n
    }

    /// Adds `transitions` granule flips to `count` and the matching
    /// event counter.
    #[inline]
    fn tally(&mut self, transitions: u64, set: bool) {
        if set {
            self.count += transitions;
            self.set_events += transitions;
        } else {
            self.count -= transitions;
            self.clear_events += transitions;
        }
    }

    /// Word-masked bulk set/clear over the inclusive, in-range granule
    /// span `[first, last]` when it crosses a bitmap word (registration,
    /// removal, long burst clears). Requires `granule <= FRAME_BYTES` so
    /// each bitmap word's flipped bits map onto whole frame-count
    /// groups.
    fn apply_bulk(&mut self, first: u64, last: u64, set: bool) {
        let wf = (first / 64) as usize;
        let wl = (last / 64) as usize;
        let mut transitions = 0u64;
        for w in wf..=wl {
            let lo = if w == wf { first % 64 } else { 0 };
            let hi = if w == wl { last % 64 } else { 63 };
            transitions += self.flip_word(w, lo, hi, set);
        }
        self.tally(transitions, set);
    }

    /// Applies `flipped`, the `n` changed bits of bitmap word `w`, to
    /// the per-frame counts. Only called when `granule <= FRAME_BYTES`,
    /// so a frame holds a whole number of granules.
    #[inline(always)]
    fn bump_frame_counts(&mut self, w: usize, flipped: u64, n: u32, set: bool) {
        // log2 of the granules per frame: frame indices are shifts.
        let frame_shift = Self::FRAME_BYTES.trailing_zeros() - self.shift;
        if frame_shift >= 6 {
            // One or more whole words per frame: the whole word's
            // population count lands in a single frame.
            let f = w >> (frame_shift - 6);
            let old = self.frame_counts.load(f);
            self.frame_counts
                .store(f, if set { old + n } else { old - n });
        } else {
            self.bump_frame_groups(w, flipped, frame_shift, set);
        }
    }

    /// [`TrapMap::bump_frame_counts`] when several frames share a
    /// bitmap word (`1 << frame_shift` granules each): split the
    /// flipped bits into per-frame groups, one population count each.
    /// Kept out of line so the one-frame case inlines small.
    #[inline(never)]
    fn bump_frame_groups(&mut self, w: usize, flipped: u64, frame_shift: u32, set: bool) {
        let per_frame = 1u32 << frame_shift;
        let group_mask = (1u64 << per_frame) - 1;
        let base = w << (6 - frame_shift);
        let mut rest = flipped;
        let mut i = 0usize;
        while rest != 0 {
            let n = (rest & group_mask).count_ones();
            if n != 0 {
                let f = base + i;
                let old = self.frame_counts.load(f);
                self.frame_counts
                    .store(f, if set { old + n } else { old - n });
            }
            rest >>= per_frame;
            i += 1;
        }
    }

    /// Sets traps only on granules in the range whose index satisfies
    /// `pred` — the mechanism behind hardware-filtered set sampling
    /// (paper §3.2): unsampled granules never trap and are filtered from
    /// the simulation at zero cost.
    pub fn set_range_filtered<F>(&mut self, pa: PhysAddr, size: u64, mut pred: F)
    where
        F: FnMut(u64) -> bool,
    {
        for g in self.range_granules(pa, size) {
            if pred(g) {
                self.set_granule(g);
            }
        }
    }

    /// Clears traps on every granule overlapping `[pa, pa + size)`
    /// (`tw_clear_trap` in Table 1). Idempotent. Word-masked like
    /// [`TrapMap::set_range`].
    #[inline]
    pub fn clear_range(&mut self, pa: PhysAddr, size: u64) {
        let r = self.range_granules(pa, size);
        if r.is_empty() {
            return;
        }
        if self.granule > Self::FRAME_BYTES {
            for g in r {
                self.clear_granule(g);
            }
            return;
        }
        self.edit(r.start, r.end - 1, false);
    }

    #[inline]
    fn range_granules(&self, pa: PhysAddr, size: u64) -> std::ops::Range<u64> {
        if size == 0 {
            return 0..0;
        }
        let first = pa.raw() >> self.shift;
        let last = (pa.raw() + size - 1) >> self.shift;
        first.min(self.granules)..(last + 1).min(self.granules)
    }

    /// Iterates over the indices of all trapped granules (ascending).
    /// Storage chunks still sharing the canonical zero chunk are
    /// skipped whole.
    pub fn iter_trapped(&self) -> impl Iterator<Item = u64> + '_ {
        let cshift = self.bits.chunk_shift();
        (0..self.bits.chunks()).flat_map(move |c| {
            let base = (c << cshift) as u64;
            let slice: &[u64] = if self.bits.chunk_is_canonical(c) {
                &[]
            } else {
                self.bits.chunk_slice(c)
            };
            slice.iter().enumerate().flat_map(move |(w, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        None
                    } else {
                        let b = rest.trailing_zeros() as u64;
                        rest &= rest - 1;
                        Some((base + w as u64) * 64 + b)
                    }
                })
            })
        })
    }

    /// Lifetime clear→set granule transitions (`tw_set_trap` events).
    pub fn set_events(&self) -> u64 {
        self.set_events
    }

    /// Lifetime set→clear granule transitions (`tw_clear_trap` events).
    pub fn clear_events(&self) -> u64 {
        self.clear_events
    }
}

/// Bits `lo..=hi` of a bitmap word.
#[inline]
fn word_mask(lo: u64, hi: u64) -> u64 {
    (!0u64 >> (63 - hi)) & (!0u64 << lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_clear_single_granule() {
        let mut t = TrapMap::new(1024, 16);
        assert!(!t.is_trapped(PhysAddr::new(32)));
        t.set_range(PhysAddr::new(32), 16);
        assert!(t.is_trapped(PhysAddr::new(32)));
        assert!(t.is_trapped(PhysAddr::new(47)));
        assert!(!t.is_trapped(PhysAddr::new(48)));
        assert_eq!(t.count(), 1);
        t.clear_range(PhysAddr::new(32), 16);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn unaligned_range_covers_partial_granules() {
        let mut t = TrapMap::new(1024, 16);
        // Bytes 20..52 touch granules 1, 2 and 3.
        t.set_range(PhysAddr::new(20), 32);
        assert_eq!(t.count(), 3);
        assert!(t.is_trapped(PhysAddr::new(16)));
        assert!(t.is_trapped(PhysAddr::new(48)));
        assert!(!t.is_trapped(PhysAddr::new(0)));
        assert!(!t.is_trapped(PhysAddr::new(64)));
    }

    #[test]
    fn idempotent_set_and_clear_keep_count_consistent() {
        let mut t = TrapMap::new(256, 16);
        t.set_range(PhysAddr::new(0), 64);
        t.set_range(PhysAddr::new(0), 64);
        assert_eq!(t.count(), 4);
        t.clear_range(PhysAddr::new(0), 32);
        t.clear_range(PhysAddr::new(0), 32);
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn filtered_set_implements_sampling() {
        let mut t = TrapMap::new(1024, 16);
        t.set_range_filtered(PhysAddr::new(0), 1024, |g| g % 8 == 0);
        assert_eq!(t.count(), 8);
        assert!(t.is_trapped(PhysAddr::new(0)));
        assert!(!t.is_trapped(PhysAddr::new(16)));
        assert!(t.is_trapped(PhysAddr::new(128)));
    }

    #[test]
    fn out_of_range_access_is_untrapped_and_range_is_clamped() {
        let mut t = TrapMap::new(128, 16);
        t.set_range(PhysAddr::new(96), 512); // extends past the end
        assert_eq!(t.count(), 2); // granules 6 and 7 only
        assert!(!t.is_trapped(PhysAddr::new(4096)));
    }

    #[test]
    fn iter_trapped_yields_sorted_indices() {
        let mut t = TrapMap::new(4096, 16);
        for g in [3u64, 77, 200, 255] {
            t.set_granule(g);
        }
        let got: Vec<u64> = t.iter_trapped().collect();
        assert_eq!(got, vec![3, 77, 200, 255]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_granule_panics() {
        let _ = TrapMap::new(100, 10);
    }

    #[test]
    fn event_counters_track_transitions_only() {
        let mut t = TrapMap::new(256, 16);
        t.set_range(PhysAddr::new(0), 64); // 4 transitions
        t.set_range(PhysAddr::new(0), 64); // idempotent: no new events
        assert_eq!(t.set_events(), 4);
        t.clear_range(PhysAddr::new(0), 32); // 2 transitions
        t.clear_range(PhysAddr::new(0), 32);
        assert_eq!(t.clear_events(), 2);
        t.clear_range(PhysAddr::new(0), 256); // remaining 2 armed granules
        assert_eq!(t.clear_events(), 4);
        assert_eq!(t.set_events(), 4);
    }

    #[test]
    fn equality_ignores_event_history() {
        let mut a = TrapMap::new(256, 16);
        let mut b = TrapMap::new(256, 16);
        a.set_range(PhysAddr::new(0), 16);
        b.set_range(PhysAddr::new(0), 16);
        b.clear_range(PhysAddr::new(0), 16);
        b.set_range(PhysAddr::new(0), 16);
        assert_ne!(a.set_events(), b.set_events());
        assert_eq!(a, b, "same armed state must compare equal");
    }

    #[test]
    fn zero_size_range_is_noop() {
        let mut t = TrapMap::new(256, 16);
        t.set_range(PhysAddr::new(0), 0);
        assert_eq!(t.count(), 0);
    }

    /// Recounts a frame's trapped granules straight from the bitmap —
    /// the ground truth the incremental `frame_counts` must match.
    fn recount_frame(t: &TrapMap, frame: u64) -> u32 {
        t.iter_trapped()
            .filter(|&g| {
                let lo = g * t.granule();
                let hi = lo + t.granule();
                lo < (frame + 1) * TrapMap::FRAME_BYTES && hi > frame * TrapMap::FRAME_BYTES
            })
            .count() as u32
    }

    fn assert_frame_counts_match(t: &TrapMap, mem_bytes: u64) {
        for frame in 0..mem_bytes.div_ceil(TrapMap::FRAME_BYTES) {
            let pa = PhysAddr::new(frame * TrapMap::FRAME_BYTES);
            assert_eq!(
                t.frame_trapped(pa),
                recount_frame(t, frame),
                "frame {frame} count diverged from bitmap"
            );
        }
    }

    #[test]
    fn frame_counts_track_set_and_clear() {
        let mut t = TrapMap::new(16 * 4096, 16);
        assert!(t.frame_clean(PhysAddr::new(0)));
        t.set_range(PhysAddr::new(4096), 64);
        assert_eq!(t.frame_trapped(PhysAddr::new(4096)), 4);
        assert_eq!(t.frame_trapped(PhysAddr::new(8192)), 0);
        assert!(t.frame_clean(PhysAddr::new(0)));
        assert!(!t.frame_clean(PhysAddr::new(4096 + 2000)));
        t.clear_range(PhysAddr::new(4096), 32);
        assert_eq!(t.frame_trapped(PhysAddr::new(4096)), 2);
        t.clear_range(PhysAddr::new(0), 16 * 4096);
        assert!(t.frame_clean(PhysAddr::new(4096)));
        assert_frame_counts_match(&t, 16 * 4096);
    }

    #[test]
    fn frame_counts_with_granule_larger_than_frame() {
        // An 8 KiB granule spans two 4 KiB frames: arming it must make
        // both frames dirty, clearing it must clean both.
        let mut t = TrapMap::new(4 * 8192, 8192);
        t.set_granule(1);
        assert!(t.frame_clean(PhysAddr::new(0)));
        assert!(!t.frame_clean(PhysAddr::new(8192)));
        assert!(!t.frame_clean(PhysAddr::new(8192 + 4096)));
        assert!(t.frame_clean(PhysAddr::new(16384)));
        t.clear_granule(1);
        assert!(t.frame_clean(PhysAddr::new(8192)));
    }

    #[test]
    fn clean_span_measures_the_trap_free_prefix() {
        let mut t = TrapMap::new(4096, 16);
        // Nothing trapped: the whole request is clean.
        assert_eq!(t.clean_span(PhysAddr::new(0), 4096), 4096);
        t.set_range(PhysAddr::new(128), 16);
        // Span ends at the first trapped granule's start byte.
        assert_eq!(t.clean_span(PhysAddr::new(0), 4096), 128);
        assert_eq!(t.clean_span(PhysAddr::new(64), 4096), 64);
        // A request entirely short of the trap is unclipped.
        assert_eq!(t.clean_span(PhysAddr::new(0), 100), 100);
        // Starting inside the trapped granule: zero-length span.
        assert_eq!(t.clean_span(PhysAddr::new(128), 64), 0);
        assert_eq!(t.clean_span(PhysAddr::new(140), 64), 0);
        // Starting after it: clean through to the end.
        assert_eq!(t.clean_span(PhysAddr::new(144), 512), 512);
        // A start mid-granule measures from pa, not the granule base.
        t.set_range(PhysAddr::new(256), 16);
        assert_eq!(t.clean_span(PhysAddr::new(148), 4096), 108);
        assert_eq!(t.clean_span(PhysAddr::new(0), 0), 0);
    }

    #[test]
    fn clean_span_crosses_bitmap_words_and_range_end() {
        let mut t = TrapMap::new(64 * 4096, 16);
        // First trap far enough out that the scan must skip whole
        // 64-granule bitmap words.
        t.set_range(PhysAddr::new(40_000), 16);
        assert_eq!(t.clean_span(PhysAddr::new(0), 64 * 4096), 40_000);
        // Out-of-range addresses are never trapped: spans extend past
        // the covered region.
        assert_eq!(t.clean_span(PhysAddr::new(63 * 4096), 8 * 4096), 8 * 4096);
    }

    #[test]
    fn trapped_run_measures_the_trapped_prefix() {
        let mut t = TrapMap::new(64 * 4096, 16);
        // Nothing trapped: zero-length run.
        assert_eq!(t.trapped_run(PhysAddr::new(0), 256), 0);
        // Granules 8..12 trapped.
        t.set_range(PhysAddr::new(128), 64);
        assert_eq!(t.trapped_run(PhysAddr::new(128), 256), 4);
        assert_eq!(t.trapped_run(PhysAddr::new(144), 256), 3);
        // Mid-granule starts count the containing granule.
        assert_eq!(t.trapped_run(PhysAddr::new(130), 256), 4);
        // The cap clips the run.
        assert_eq!(t.trapped_run(PhysAddr::new(128), 2), 2);
        assert_eq!(t.trapped_run(PhysAddr::new(128), 0), 0);
        // A clear granule at the start means no run at all.
        assert_eq!(t.trapped_run(PhysAddr::new(112), 256), 0);
        // Runs crossing bitmap-word boundaries are walked word by word
        // (granules 60..140 span three u64 words).
        t.set_range(PhysAddr::new(60 * 16), 80 * 16);
        assert_eq!(t.trapped_run(PhysAddr::new(60 * 16), 4096), 80);
        assert_eq!(t.trapped_run(PhysAddr::new(64 * 16), 4096), 76);
        // Exhaustive cross-check against a per-granule probe loop.
        for g0 in 0..160u64 {
            let pa = PhysAddr::new(g0 * 16);
            let mut want = 0;
            while g0 + want < t.granules() && t.is_trapped(PhysAddr::new((g0 + want) * 16)) {
                want += 1;
            }
            assert_eq!(t.trapped_run(pa, u64::MAX), want, "run at granule {g0}");
        }
        // Out-of-range granules are never trapped.
        assert_eq!(t.trapped_run(PhysAddr::new(1 << 40), 256), 0);
    }

    #[test]
    fn out_of_range_frame_reads_clean() {
        let t = TrapMap::new(4096, 16);
        assert!(t.frame_clean(PhysAddr::new(1 << 40)));
        assert_eq!(t.frame_trapped(PhysAddr::new(1 << 40)), 0);
    }

    /// The wide scan must agree with a granule-by-granule reference at
    /// every boundary class: spans ending exactly at bitmap-word edges
    /// (64 granules), scan-chunk edges (512 granules), frame edges, and
    /// unaligned starts inside all of those.
    #[test]
    fn clean_span_multi_word_boundaries_match_reference() {
        fn reference_span(t: &TrapMap, pa: PhysAddr, max_bytes: u64) -> u64 {
            if max_bytes == 0 {
                return 0;
            }
            let g_last = (pa.raw() + max_bytes - 1) >> t.granule().trailing_zeros();
            let g0 = pa.raw() >> t.granule().trailing_zeros();
            for g in g0..=g_last {
                if g < t.granules() && t.is_trapped(PhysAddr::new(g * t.granule())) {
                    return (g * t.granule()).saturating_sub(pa.raw()).min(max_bytes);
                }
            }
            max_bytes
        }
        let granule = 16u64;
        let mem_bytes = 64 * 4096u64; // 16384 granules = 256 words = 32 chunks
        let word_g = 64u64;
        let chunk_g = word_g * TrapMap::SCAN_CHUNK_WORDS as u64;
        let frame_g = TrapMap::FRAME_BYTES / granule;
        // Arm traps exactly at each boundary class (first granule of a
        // word, of a chunk, of a frame) and just before each.
        for &edge in &[word_g, chunk_g, frame_g] {
            for &g in &[edge, 3 * edge, 3 * edge - 1, 7 * edge + 1] {
                let mut t = TrapMap::new(mem_bytes, granule);
                t.set_granule(g);
                for &start in &[
                    0u64,
                    1,
                    granule - 1,
                    granule,
                    (g - 1) * granule,
                    g * granule - 1,
                    g * granule,
                    g * granule + 1,
                    (g + 1) * granule,
                ] {
                    for &max in &[
                        0u64,
                        1,
                        granule,
                        granule + 1,
                        edge * granule,
                        edge * granule - 1,
                        mem_bytes,
                        2 * mem_bytes,
                    ] {
                        let pa = PhysAddr::new(start);
                        assert_eq!(
                            t.clean_span(pa, max),
                            reference_span(&t, pa, max),
                            "granule {g} start {start} max {max}"
                        );
                    }
                }
            }
        }
        // A fully clean map: every request is returned unclipped even
        // when it ends exactly on word/chunk/frame edges or past the
        // covered region.
        let t = TrapMap::new(mem_bytes, granule);
        for &max in &[
            word_g * granule,
            chunk_g * granule,
            frame_g * granule,
            mem_bytes,
            mem_bytes + granule,
        ] {
            assert_eq!(t.clean_span(PhysAddr::new(0), max), max);
            assert_eq!(t.clean_span(PhysAddr::new(granule / 2), max), max);
        }
    }

    /// Property: the word-masked bulk `set_range`/`clear_range` are
    /// bit-identical — state, count, frame counts, and event
    /// transitions — to the per-granule reference walk, across random
    /// unaligned ranges and all granule geometries. Half the ranges span
    /// at most one bitmap word's worth of granules, so the one-word
    /// edit is driven as hard as the multi-word loop.
    #[test]
    fn bulk_range_ops_match_per_granule_reference() {
        let mut s = 0x51ed_270b_89ac_4c52u64;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mem_bytes = 24 * 4096u64;
        for &granule in &[16u64, 64, 128, 4096, 8192] {
            let mut bulk = TrapMap::new(mem_bytes, granule);
            let mut reference = TrapMap::new(mem_bytes, granule);
            for _ in 0..300 {
                let pa = PhysAddr::new(next() % (mem_bytes + 4096));
                let size = if next() % 2 == 0 {
                    next() % 12_000
                } else {
                    next() % (64 * granule)
                };
                if next() % 2 == 0 {
                    bulk.set_range(pa, size);
                    for g in reference.range_granules(pa, size) {
                        reference.set_granule(g);
                    }
                } else {
                    bulk.clear_range(pa, size);
                    for g in reference.range_granules(pa, size) {
                        reference.clear_granule(g);
                    }
                }
                assert_eq!(bulk, reference, "granule {granule} state diverged");
                assert_eq!(bulk.count(), reference.count());
                assert_eq!(bulk.set_events(), reference.set_events());
                assert_eq!(bulk.clear_events(), reference.clear_events());
                assert_frame_counts_match(&bulk, mem_bytes);
            }
        }
    }

    /// Property: after an arbitrary interleaving of `set_range`,
    /// `clear_range`, `set_range_filtered` (sampling) and whole-map
    /// clears, every per-frame count equals a recount from the raw
    /// bitmap.
    /// SplitMix64-driven so the sequence is deterministic.
    #[test]
    fn frame_counts_always_equal_bitmap_recount() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mem_bytes = 32 * 4096u64;
        for &granule in &[16u64, 64, 4096] {
            let mut t = TrapMap::new(mem_bytes, granule);
            for _ in 0..400 {
                let pa = PhysAddr::new(next() % mem_bytes);
                let size = next() % 9000;
                match next() % 8 {
                    0..=2 => t.set_range(pa, size),
                    3..=4 => t.clear_range(pa, size),
                    5..=6 => {
                        let m = 1 + next() % 7;
                        t.set_range_filtered(pa, size, |g| g % m == 0);
                    }
                    _ => t.clear_range(PhysAddr::new(0), mem_bytes),
                }
                assert_frame_counts_match(&t, mem_bytes);
            }
        }
    }

    /// A plain `Vec<bool>` of granules: the independent reference the
    /// random-op property below drives beside a real map.
    struct PlainTrapModel {
        granule: u64,
        trapped: Vec<bool>,
        set_events: u64,
        clear_events: u64,
    }

    impl PlainTrapModel {
        fn new(mem_bytes: u64, granule: u64) -> Self {
            PlainTrapModel {
                granule,
                trapped: vec![false; (mem_bytes / granule) as usize],
                set_events: 0,
                clear_events: 0,
            }
        }

        /// Granules overlapping `[pa, pa + size)`, clipped to the map.
        fn range(&self, pa: u64, size: u64) -> std::ops::Range<usize> {
            if size == 0 {
                return 0..0;
            }
            let n = self.trapped.len();
            let first = (pa / self.granule) as usize;
            let last = ((pa + size - 1) / self.granule) as usize;
            first.min(n)..(last + 1).min(n)
        }

        fn apply(&mut self, r: std::ops::Range<usize>, set: bool) {
            for g in r {
                if self.trapped[g] != set {
                    self.trapped[g] = set;
                    if set {
                        self.set_events += 1;
                    } else {
                        self.clear_events += 1;
                    }
                }
            }
        }

        fn count(&self) -> u64 {
            self.trapped.iter().filter(|&&t| t).count() as u64
        }

        fn clean_span(&self, pa: u64, max_bytes: u64) -> u64 {
            for g in self.range(pa, max_bytes) {
                if self.trapped[g] {
                    return (g as u64 * self.granule).saturating_sub(pa).min(max_bytes);
                }
            }
            max_bytes
        }

        fn frame_trapped(&self, pa: u64) -> u32 {
            let frame = pa / TrapMap::FRAME_BYTES;
            (0..self.trapped.len())
                .filter(|&g| {
                    let lo = g as u64 * self.granule;
                    let hi = lo + self.granule - 1;
                    self.trapped[g]
                        && lo / TrapMap::FRAME_BYTES <= frame
                        && frame <= hi / TrapMap::FRAME_BYTES
                })
                .count() as u32
        }
    }

    /// Property: a map driven through a random op sequence stays
    /// identical to a plain `Vec<bool>` model in every observable —
    /// trapped granules, counts, events, frame counts, clean spans.
    #[test]
    fn trap_map_matches_a_plain_vec_model() {
        let mut s = 0x0123_4567_89ab_cdefu64;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mem_bytes = 48 * 4096u64;
        for &granule in &[16u64, 4096] {
            let mut map = TrapMap::new(mem_bytes, granule);
            let mut model = PlainTrapModel::new(mem_bytes, granule);
            for _ in 0..300 {
                let pa = PhysAddr::new(next() % mem_bytes);
                let size = next() % 20_000;
                match next() % 4 {
                    0..=1 => {
                        map.set_range(pa, size);
                        model.apply(model.range(pa.raw(), size), true);
                    }
                    2 => {
                        map.clear_range(pa, size);
                        model.apply(model.range(pa.raw(), size), false);
                    }
                    _ => {
                        map.clear_range(PhysAddr::new(0), mem_bytes);
                        model.apply(0..model.trapped.len(), false);
                    }
                }
                let armed: Vec<u64> = (0..model.trapped.len() as u64)
                    .filter(|&g| model.trapped[g as usize])
                    .collect();
                assert_eq!(map.iter_trapped().collect::<Vec<_>>(), armed);
                assert_eq!(map.count(), model.count());
                assert_eq!(map.set_events(), model.set_events);
                assert_eq!(map.clear_events(), model.clear_events);
                let probe = PhysAddr::new(next() % mem_bytes);
                let max = next() % (2 * mem_bytes);
                assert_eq!(
                    map.clean_span(probe, max),
                    model.clean_span(probe.raw(), max)
                );
                assert_eq!(map.frame_trapped(probe), model.frame_trapped(probe.raw()));
            }
        }
    }

    /// A map over a simulated memory far beyond host RAM costs only
    /// what it touches: table metadata plus the few chunks written.
    #[test]
    fn huge_sparse_map_commits_only_touched_chunks() {
        let mem_bytes = 64u64 << 30; // 64 GiB simulated
        let mut t = TrapMap::new(mem_bytes, 4096);
        assert_eq!(t.sparse_stats().chunks_allocated, 0);
        let far = PhysAddr::new(mem_bytes - 8 * 4096);
        t.set_range(far, 4096);
        assert!(t.is_trapped(far));
        assert!(!t.frame_clean(far));
        assert!(t.frame_clean(PhysAddr::new(0)));
        assert_eq!(t.count(), 1);
        // Clean spans skip the untouched middle via the chunk table.
        assert_eq!(t.clean_span(PhysAddr::new(0), far.raw()), far.raw());
        let stats = t.sparse_stats();
        assert!(
            stats.chunks_allocated <= 4,
            "one trap must not commit more than a few chunks, got {stats:?}"
        );
        assert!(stats.chunk_faults >= 1);
        // Clearing the one trap leaves none armed.
        t.clear_range(far, 4096);
        assert_eq!(t.recount(), 0);
    }

    /// Bulk clears over untouched memory must not materialize chunks:
    /// the flipped-bits-zero skip runs before any store.
    #[test]
    fn clearing_untouched_memory_allocates_nothing() {
        let mut t = TrapMap::new(1u64 << 30, 16);
        t.clear_range(PhysAddr::new(0), 1u64 << 30);
        assert_eq!(t.sparse_stats().chunks_allocated, 0);
        assert_eq!(t.sparse_stats().chunk_faults, 0);
    }
}
