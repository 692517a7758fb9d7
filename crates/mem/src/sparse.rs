//! Demand-allocated chunked backing for physical-memory state.
//!
//! Tapeworm's workloads are *data-oblivious*: the simulator's results
//! depend on which addresses are touched, never on how much backing
//! store the host really commits (0sim's observation, Mansi & Swift,
//! ASPLOS 2020). A [`SparseVec`] exploits that: logically it is a
//! `Vec<T>` of a fixed fill value, physically it is a table of
//! fixed-size chunks ([`CHUNK_BYTES`] of payload each) that are
//! materialized the first time a store actually changes one. Chunks
//! that were never written all share one canonical read-only fill
//! chunk (zero-page dedup), so a 64 GiB simulated memory whose trap
//! state touches a few hundred frames costs a few hundred chunks of
//! host RAM.
//!
//! Loads are branch-free — two dependent indexed reads (chunk table,
//! then arena) — so the trap bitmap's hit path keeps its
//! couple-of-shifts-and-a-load shape. Stores of the fill value into an
//! unmaterialized chunk are no-ops, which is what keeps bulk *clears*
//! over untouched memory from faulting anything in.
//!
//! This is the only layout: results depend on which elements hold
//! what, never on how the host stores them, so an eagerly materialized
//! twin would only cost memory (DESIGN §14).

use std::fmt;

/// Payload bytes per chunk. 4 KiB matches the frame size, so one
/// chunk of `u64` bitmap words covers 512 words = 32768 granules.
pub const CHUNK_BYTES: usize = 4096;

/// Element types a [`SparseVec`] can hold: small plain old data.
pub trait SparseElem: Copy + PartialEq + fmt::Debug + 'static {}

impl SparseElem for u8 {}
impl SparseElem for u32 {}
impl SparseElem for u64 {}

/// Allocation counters of one or more sparse vectors, the source of
/// the `sparse_chunks_allocated` / `zero_chunks_deduped` /
/// `chunk_faults` observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Chunks currently privately materialized (host RAM actually
    /// committed, in units of [`CHUNK_BYTES`] payloads).
    pub chunks_allocated: u64,
    /// Chunks still sharing the canonical fill chunk — memory the
    /// dense representation would have committed but this one dedups.
    pub zero_chunks_deduped: u64,
    /// Lifetime demand-materialization events (first changing store
    /// into a shared chunk).
    pub chunk_faults: u64,
}

impl SparseStats {
    /// Sums the counters of two vectors (e.g. a bitmap and its
    /// per-frame counts).
    pub fn merge(self, other: Self) -> Self {
        SparseStats {
            chunks_allocated: self.chunks_allocated + other.chunks_allocated,
            zero_chunks_deduped: self.zero_chunks_deduped + other.zero_chunks_deduped,
            chunk_faults: self.chunk_faults + other.chunk_faults,
        }
    }
}

/// Heap buffers salvaged from a retired [`SparseVec`] for
/// [`SparseVec::with_storage`], mirroring the trap map's
/// scratch-reuse protocol.
#[derive(Debug)]
pub struct SparseStorage<T> {
    table: Vec<u32>,
    arena: Vec<T>,
}

/// Empty buffers regardless of `T` (a derive would wrongly require
/// `T: Default`).
impl<T> Default for SparseStorage<T> {
    fn default() -> Self {
        SparseStorage {
            table: Vec::new(),
            arena: Vec::new(),
        }
    }
}

/// A logically dense `Vec<T>` of `len` elements over demand-allocated
/// fixed-size chunks with canonical-fill-chunk dedup.
///
/// Slot 0 of the arena is the canonical chunk, permanently holding
/// `fill` and shared read-only by every chunk that has never been
/// changed; the chunk table maps each logical chunk to its arena slot
/// (0 = shared). See the module docs for the design.
///
/// # Examples
///
/// ```
/// use tapeworm_mem::SparseVec;
///
/// let mut v: SparseVec<u64> = SparseVec::new(1 << 20, 0);
/// assert_eq!(v.load(999_999), 0); // untouched: reads the fill
/// v.store(4096, 7);
/// assert_eq!(v.load(4096), 7);
/// assert_eq!(v.stats().chunks_allocated, 1); // one chunk faulted in
/// ```
#[derive(Debug, Clone)]
pub struct SparseVec<T: SparseElem> {
    len: usize,
    /// Elements per chunk: `CHUNK_BYTES / size_of::<T>()`, a power of
    /// two, so chunk indexing is a shift and a mask.
    chunk: usize,
    shift: u32,
    mask: usize,
    fill: T,
    table: Vec<u32>,
    arena: Vec<T>,
    live_chunks: u64,
    chunk_faults: u64,
}

impl<T: SparseElem> SparseVec<T> {
    /// Elements per chunk for this element type.
    pub fn chunk_elems() -> usize {
        (CHUNK_BYTES / std::mem::size_of::<T>()).max(1)
    }

    /// Creates a vector of `len` elements, all logically `fill`.
    pub fn new(len: usize, fill: T) -> Self {
        Self::with_storage(len, fill, SparseStorage::default())
    }

    /// Like [`SparseVec::new`] but reusing the heap buffers of a
    /// retired vector ([`SparseVec::into_storage`]). The result is
    /// all-`fill` regardless of what the donor held.
    pub fn with_storage(len: usize, fill: T, storage: SparseStorage<T>) -> Self {
        let chunk = Self::chunk_elems();
        let SparseStorage {
            mut table,
            mut arena,
        } = storage;
        table.clear();
        table.resize(len.div_ceil(chunk), 0);
        arena.clear();
        // Slot 0: the canonical fill chunk every untouched chunk shares.
        arena.resize(chunk, fill);
        SparseVec {
            len,
            chunk,
            shift: chunk.trailing_zeros(),
            mask: chunk - 1,
            fill,
            table,
            arena,
            live_chunks: 0,
            chunk_faults: 0,
        }
    }

    /// Tears the vector down to its reusable heap buffers.
    pub fn into_storage(self) -> SparseStorage<T> {
        SparseStorage {
            table: self.table,
            arena: self.arena,
        }
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fill value untouched elements read as.
    pub fn fill_value(&self) -> T {
        self.fill
    }

    /// Number of logical chunks.
    pub fn chunks(&self) -> usize {
        self.table.len()
    }

    /// `log2(elements per chunk)` — callers scanning chunk-at-a-time
    /// turn element indices into chunk indices with this shift.
    pub fn chunk_shift(&self) -> u32 {
        self.shift
    }

    /// `true` when chunk `c` still shares the canonical fill chunk
    /// (every element in it reads `fill`). A materialized chunk whose
    /// content happens to equal the fill reads `false` until the next
    /// [`SparseVec::reset`].
    #[inline]
    pub fn chunk_is_canonical(&self, c: usize) -> bool {
        self.table[c] == 0
    }

    /// The backing slice of chunk `c` (the canonical chunk when `c` is
    /// unmaterialized). Always a full chunk; tail elements of the last
    /// chunk past `len` hold `fill` and are never written.
    #[inline]
    pub fn chunk_slice(&self, c: usize) -> &[T] {
        let base = (self.table[c] as usize) << self.shift;
        &self.arena[base..base + self.chunk]
    }

    /// Reads element `i`. Branch-free: chunk-table load, then arena
    /// load.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (rounded up to the containing chunk).
    #[inline]
    pub fn load(&self, i: usize) -> T {
        let slot = self.table[i >> self.shift] as usize;
        self.arena[(slot << self.shift) + (i & self.mask)]
    }

    /// Reads element `i`, or `None` past the end — the clamped-probe
    /// shape of the trap map's out-of-range reads.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        if i < self.len {
            Some(self.load(i))
        } else {
            None
        }
    }

    /// Writes element `i`. Storing the fill value into an
    /// unmaterialized chunk is a no-op (the chunk keeps sharing the
    /// canonical chunk); any changing store materializes the chunk
    /// first (one chunk fault).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (rounded up to the containing chunk).
    #[inline]
    pub fn store(&mut self, i: usize, value: T) {
        let c = i >> self.shift;
        let mut slot = self.table[c] as usize;
        if slot == 0 {
            if value == self.fill {
                return;
            }
            slot = self.materialize(c) as usize;
        }
        self.arena[(slot << self.shift) + (i & self.mask)] = value;
    }

    /// Gives chunk `c` private backing initialized to `fill`.
    #[cold]
    fn materialize(&mut self, c: usize) -> u32 {
        let slot = (self.arena.len() >> self.shift) as u32;
        self.arena.resize(self.arena.len() + self.chunk, self.fill);
        self.table[c] = slot;
        self.live_chunks += 1;
        self.chunk_faults += 1;
        slot
    }

    /// Resets every element to `fill`, dropping all private chunks
    /// back to the canonical chunk.
    pub fn reset(&mut self) {
        self.table.fill(0);
        self.arena.truncate(self.chunk);
        self.live_chunks = 0;
    }

    /// Current allocation counters.
    pub fn stats(&self) -> SparseStats {
        SparseStats {
            chunks_allocated: self.live_chunks,
            zero_chunks_deduped: self.table.len() as u64 - self.live_chunks,
            chunk_faults: self.chunk_faults,
        }
    }
}

/// Logical-content equality: two vectors are equal when every element
/// reads the same, regardless of which chunks are materialized — an
/// unmaterialized chunk equals a materialized one that holds the
/// fill. Fault counters are excluded.
impl<T: SparseElem> PartialEq for SparseVec<T> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        for c in 0..self.table.len() {
            match (self.chunk_is_canonical(c), other.chunk_is_canonical(c)) {
                (true, true) => {
                    if self.fill != other.fill {
                        return false;
                    }
                }
                (true, false) => {
                    if !other.chunk_slice(c).iter().all(|&x| x == self.fill) {
                        return false;
                    }
                }
                (false, true) => {
                    if !self.chunk_slice(c).iter().all(|&x| x == other.fill) {
                        return false;
                    }
                }
                (false, false) => {
                    if self.chunk_slice(c) != other.chunk_slice(c) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl<T: SparseElem> Eq for SparseVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn untouched_elements_read_fill_without_allocating() {
        let v: SparseVec<u64> = SparseVec::new(1 << 22, 0);
        assert_eq!(v.load(0), 0);
        assert_eq!(v.load((1 << 22) - 1), 0);
        assert_eq!(v.stats().chunks_allocated, 0);
        assert_eq!(v.stats().zero_chunks_deduped, v.chunks() as u64);
        assert_eq!(v.stats().chunk_faults, 0);
    }

    #[test]
    fn fill_store_into_shared_chunk_is_free() {
        let mut v: SparseVec<u32> = SparseVec::new(1 << 20, 0);
        v.store(12345, 0);
        assert_eq!(v.stats().chunks_allocated, 0);
        assert_eq!(v.stats().chunk_faults, 0);
    }

    #[test]
    fn changing_store_faults_exactly_one_chunk() {
        let mut v: SparseVec<u64> = SparseVec::new(1 << 20, 0);
        v.store(1000, 7);
        v.store(1001, 8); // same chunk: no second fault
        assert_eq!(v.load(1000), 7);
        assert_eq!(v.load(1001), 8);
        assert_eq!(v.load(1002), 0);
        let s = v.stats();
        assert_eq!(s.chunks_allocated, 1);
        assert_eq!(s.chunk_faults, 1);
        assert_eq!(s.zero_chunks_deduped, v.chunks() as u64 - 1);
    }

    #[test]
    fn nonzero_fill_round_trips() {
        let mut v: SparseVec<u8> = SparseVec::new(10_000, 0x5a);
        assert_eq!(v.load(9_999), 0x5a);
        v.store(4, 0x5a); // fill store: free
        assert_eq!(v.stats().chunks_allocated, 0);
        v.store(4, 1);
        assert_eq!(v.load(4), 1);
        assert_eq!(v.load(5), 0x5a);
    }

    /// Property: under random stores (zeros common), every load agrees
    /// with a plain `Vec` model, and the vector equals one rebuilt
    /// from the model's contents.
    #[test]
    fn sparse_vec_matches_a_plain_vec_model_under_random_ops() {
        let mut s = 0x1234_5678_9abc_def0u64;
        let mut sparse: SparseVec<u32> = SparseVec::new(100_000, 0);
        let mut model = vec![0u32; 100_000];
        for _ in 0..5_000 {
            let i = (splitmix(&mut s) % 100_000) as usize;
            let val = (splitmix(&mut s) % 5) as u32; // zeros common
            sparse.store(i, val);
            model[i] = val;
        }
        for i in (0..100_000).step_by(7) {
            assert_eq!(sparse.load(i), model[i]);
        }
        let mut rebuilt: SparseVec<u32> = SparseVec::new(100_000, 0);
        for (i, &val) in model.iter().enumerate() {
            rebuilt.store(i, val);
        }
        assert_eq!(sparse, rebuilt, "logical equality with the model");
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let mut a: SparseVec<u64> = SparseVec::new(4096, 0);
        let b: SparseVec<u64> = SparseVec::new(4096, 0);
        a.store(10, 1);
        assert_ne!(a, b);
        a.store(10, 0); // chunk now materialized but all-zero
        assert_eq!(a.stats().chunks_allocated, 1);
        assert_eq!(a, b, "materialized-all-fill chunk equals canonical");
    }

    #[test]
    fn reset_returns_to_all_fill() {
        let mut v: SparseVec<u64> = SparseVec::new(1 << 16, 0);
        for i in 0..100 {
            v.store(i * 600, 1);
        }
        let faults = v.stats().chunk_faults;
        v.reset();
        assert_eq!(v.stats().chunks_allocated, 0);
        assert_eq!(v.stats().chunk_faults, faults, "faults are lifetime");
        assert_eq!(v.load(600), 0);
        assert_eq!(v, SparseVec::new(1 << 16, 0));
    }

    #[test]
    fn storage_reuse_yields_a_pristine_vector() {
        let mut v: SparseVec<u32> = SparseVec::new(4096, 0);
        v.store(7, 9);
        let reused: SparseVec<u32> = SparseVec::with_storage(8192, 3, v.into_storage());
        assert_eq!(reused.len(), 8192);
        assert_eq!(reused.load(7), 3);
        assert_eq!(reused.stats().chunks_allocated, 0);
        assert_eq!(reused.stats().chunk_faults, 0);
    }
}
