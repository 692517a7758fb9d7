//! Full-fidelity physical memory with per-word ECC check bits.
//!
//! Both the data words and the check bits live on demand-allocated
//! [`SparseVec`] chunks: a fresh memory of any simulated size commits
//! no host RAM beyond chunk-table metadata, because a zeroed word with
//! correct check bits is exactly the canonical fill every shared chunk
//! reads as (the check-bit fill is `encode(0)`, not zero). Writes of
//! the fill values — zero data, zero-data check bits — are free.

use std::error::Error;
use std::fmt;

use crate::addr::{PhysAddr, WORD_BYTES};
use crate::ecc::{Codec, Decoded};
use crate::sparse::{SparseStats, SparseVec};

/// A physical address fell outside the installed memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRangeError {
    /// The offending address.
    pub addr: PhysAddr,
    /// Installed memory size in bytes.
    pub size: u64,
}

impl fmt::Display for OutOfRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical address {} outside installed memory of {} bytes",
            self.addr, self.size
        )
    }
}

impl Error for OutOfRangeError {}

/// What a memory access observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryEvent {
    /// Clean access; carries the word read (or written).
    Clean(u32),
    /// The access hit a Tapeworm trap (designated-check-bit syndrome).
    /// The word's data is still intact and returned.
    TapewormTrap(u32),
    /// A genuine single-bit error was corrected; carries the corrected
    /// word.
    CorrectedTrueError(u32),
    /// An uncorrectable multi-bit error (also raised when a true error
    /// lands on a trapped word).
    Uncorrectable,
}

impl MemoryEvent {
    /// `true` when the event should vector to the Tapeworm miss handler.
    pub fn is_tapeworm_trap(self) -> bool {
        matches!(self, MemoryEvent::TapewormTrap(_))
    }

    /// `true` when the event signals a genuine memory error.
    pub fn is_true_error(self) -> bool {
        matches!(
            self,
            MemoryEvent::CorrectedTrueError(_) | MemoryEvent::Uncorrectable
        )
    }
}

/// Write-miss policy of the host cache, which governs whether a write to
/// a trapped word raises the ECC trap.
///
/// The DECstation 5000/200 uses a no-allocate-on-write policy, which
/// "causes ECC traps to be cleared without invoking the Tapeworm miss
/// handlers" (paper §4.4) — the reason data-cache simulation failed on
/// that machine. Machines that allocate on write can simulate data
/// caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Writes bypass the ECC check and regenerate check bits, silently
    /// destroying any trap (DECstation 5000/200 behaviour).
    #[default]
    NoAllocateOnWrite,
    /// Writes check ECC first, so traps fire on writes too (CM-5 / WWT
    /// behaviour, paper §2).
    AllocateOnWrite,
}

/// Word-addressed physical memory where every 32-bit word carries 7 ECC
/// check bits, plus the memory-controller diagnostic operations Tapeworm
/// uses to set and clear traps.
///
/// This is the *reference model*: exact but not fast. The simulator's hot
/// path uses [`TrapMap`](crate::TrapMap); integration tests assert the
/// two agree.
///
/// # Examples
///
/// ```
/// use tapeworm_mem::{EccMemory, MemoryEvent, PhysAddr};
///
/// let mut mem = EccMemory::new(4096);
/// let pa = PhysAddr::new(0x100);
/// mem.write_word(pa, 7)?;
/// mem.set_trap(pa, 4)?;
/// assert!(mem.read_word(pa)?.is_tapeworm_trap());
/// mem.clear_trap(pa, 4)?;
/// assert_eq!(mem.read_word(pa)?, MemoryEvent::Clean(7));
/// # Ok::<(), tapeworm_mem::OutOfRangeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EccMemory {
    words: SparseVec<u32>,
    checks: SparseVec<u8>,
    codec: Codec,
    write_policy: WritePolicy,
}

impl EccMemory {
    /// Creates `bytes` of zeroed memory with correct check bits, on
    /// sparse (demand-allocated) backing.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of the word size.
    pub fn new(bytes: u64) -> Self {
        Self::with_policy(bytes, WritePolicy::default())
    }

    /// Creates memory with an explicit [`WritePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of the word size.
    pub fn with_policy(bytes: u64, write_policy: WritePolicy) -> Self {
        assert!(
            bytes % WORD_BYTES == 0,
            "memory size must be a whole number of words"
        );
        let n = (bytes / WORD_BYTES) as usize;
        let codec = Codec::new();
        let zero_check = codec.encode(0);
        EccMemory {
            words: SparseVec::new(n, 0),
            checks: SparseVec::new(n, zero_check),
            codec,
            write_policy,
        }
    }

    /// Installed memory size in bytes.
    pub fn size(&self) -> u64 {
        self.words.len() as u64 * WORD_BYTES
    }

    /// The configured write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Aggregated allocation counters of the word and check-bit
    /// backing.
    pub fn sparse_stats(&self) -> SparseStats {
        self.words.stats().merge(self.checks.stats())
    }

    fn index(&self, pa: PhysAddr) -> Result<usize, OutOfRangeError> {
        let i = pa.word_index() as usize;
        if i < self.words.len() {
            Ok(i)
        } else {
            Err(OutOfRangeError {
                addr: pa,
                size: self.size(),
            })
        }
    }

    /// Reads the word containing `pa`, checking ECC.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when `pa` is beyond installed memory.
    pub fn read_word(&self, pa: PhysAddr) -> Result<MemoryEvent, OutOfRangeError> {
        let i = self.index(pa)?;
        let word = self.words.load(i);
        Ok(match self.codec.decode(word, self.checks.load(i)) {
            Decoded::Clean => MemoryEvent::Clean(word),
            Decoded::CorrectedData { data, .. } => MemoryEvent::CorrectedTrueError(data),
            Decoded::CorrectedCheck { index } if index == crate::ecc::TRAP_CHECK_INDEX => {
                MemoryEvent::TapewormTrap(word)
            }
            Decoded::CorrectedCheck { .. } | Decoded::CorrectedOverall => {
                MemoryEvent::CorrectedTrueError(word)
            }
            Decoded::Double => MemoryEvent::Uncorrectable,
        })
    }

    /// Writes the word containing `pa`, regenerating its check bits.
    ///
    /// Under [`WritePolicy::NoAllocateOnWrite`] a trap on the word is
    /// silently destroyed and the event is `Clean` — the DECstation
    /// hazard. Under [`WritePolicy::AllocateOnWrite`] the trap fires
    /// (event `TapewormTrap`) and the write still completes.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when `pa` is beyond installed memory.
    pub fn write_word(&mut self, pa: PhysAddr, value: u32) -> Result<MemoryEvent, OutOfRangeError> {
        let i = self.index(pa)?;
        let pre = self.codec.decode(self.words.load(i), self.checks.load(i));
        self.words.store(i, value);
        self.checks.store(i, self.codec.encode(value));
        Ok(match (self.write_policy, pre) {
            (WritePolicy::AllocateOnWrite, Decoded::CorrectedCheck { index })
                if index == crate::ecc::TRAP_CHECK_INDEX =>
            {
                MemoryEvent::TapewormTrap(value)
            }
            _ => MemoryEvent::Clean(value),
        })
    }

    /// Sets Tapeworm traps on all words overlapping `[pa, pa + size)`
    /// via the diagnostic check-bit flip. Words already trapped are left
    /// trapped (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] if the range leaves installed memory.
    pub fn set_trap(&mut self, pa: PhysAddr, size: u64) -> Result<(), OutOfRangeError> {
        self.for_each_word(pa, size, |mem, i| {
            if !mem.word_is_trapped(i) {
                mem.checks.store(i, mem.codec.set_trap(mem.checks.load(i)));
            }
        })
    }

    /// Clears Tapeworm traps on all words overlapping `[pa, pa + size)`.
    /// Untrapped words are untouched (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] if the range leaves installed memory.
    pub fn clear_trap(&mut self, pa: PhysAddr, size: u64) -> Result<(), OutOfRangeError> {
        self.for_each_word(pa, size, |mem, i| {
            if mem.word_is_trapped(i) {
                mem.checks
                    .store(i, mem.codec.clear_trap(mem.checks.load(i)));
            }
        })
    }

    /// `true` when the word containing `pa` carries a Tapeworm trap.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when `pa` is beyond installed memory.
    pub fn is_trapped(&self, pa: PhysAddr) -> Result<bool, OutOfRangeError> {
        let i = self.index(pa)?;
        Ok(self.word_is_trapped(i))
    }

    fn word_is_trapped(&self, i: usize) -> bool {
        self.codec
            .decode(self.words.load(i), self.checks.load(i))
            .is_tapeworm_trap()
    }

    fn for_each_word<F>(&mut self, pa: PhysAddr, size: u64, mut f: F) -> Result<(), OutOfRangeError>
    where
        F: FnMut(&mut Self, usize),
    {
        if size == 0 {
            return Ok(());
        }
        let first = self.index(pa)?;
        let last = self.index(PhysAddr::new(pa.raw() + size - 1))?;
        for i in first..=last {
            f(self, i);
        }
        Ok(())
    }

    /// Diagnostic read of a word's raw check bits (memory-controller
    /// ASIC diagnostic mode).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when `pa` is beyond installed memory.
    pub fn diag_check_bits(&self, pa: PhysAddr) -> Result<u8, OutOfRangeError> {
        let i = self.index(pa)?;
        Ok(self.checks.load(i))
    }

    /// Diagnostic write of a word's raw check bits.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when `pa` is beyond installed memory.
    pub fn diag_set_check_bits(&mut self, pa: PhysAddr, check: u8) -> Result<(), OutOfRangeError> {
        let i = self.index(pa)?;
        self.checks.store(i, check & 0x7F);
        Ok(())
    }

    /// Fault injection: flips data bit `bit` (0–31) of the word at `pa`,
    /// modelling a genuine memory error.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when `pa` is beyond installed memory.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn inject_data_error(&mut self, pa: PhysAddr, bit: u8) -> Result<(), OutOfRangeError> {
        assert!(bit < 32, "data bit index out of range");
        let i = self.index(pa)?;
        self.words.store(i, self.words.load(i) ^ (1 << bit));
        Ok(())
    }

    /// Fault injection: flips check bit `bit` (0–6) of the word at `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when `pa` is beyond installed memory.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 7`.
    pub fn inject_check_error(&mut self, pa: PhysAddr, bit: u8) -> Result<(), OutOfRangeError> {
        assert!(bit < 7, "check bit index out of range");
        let i = self.index(pa)?;
        self.checks.store(i, self.checks.load(i) ^ (1 << bit));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut mem = EccMemory::new(256);
        let pa = PhysAddr::new(8);
        mem.write_word(pa, 0xFEED_FACE).unwrap();
        assert_eq!(mem.read_word(pa).unwrap(), MemoryEvent::Clean(0xFEED_FACE));
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mem = EccMemory::new(64);
        let err = mem.read_word(PhysAddr::new(64)).unwrap_err();
        assert_eq!(err.size, 64);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn trap_set_and_clear_range() {
        let mut mem = EccMemory::new(256);
        mem.set_trap(PhysAddr::new(16), 16).unwrap();
        for off in (16..32).step_by(4) {
            assert!(mem.is_trapped(PhysAddr::new(off)).unwrap());
        }
        assert!(!mem.is_trapped(PhysAddr::new(12)).unwrap());
        assert!(!mem.is_trapped(PhysAddr::new(32)).unwrap());
        mem.clear_trap(PhysAddr::new(16), 16).unwrap();
        for off in (16..32).step_by(4) {
            assert!(!mem.is_trapped(PhysAddr::new(off)).unwrap());
        }
    }

    #[test]
    fn trap_set_is_idempotent() {
        let mut mem = EccMemory::new(64);
        let pa = PhysAddr::new(0);
        mem.set_trap(pa, 4).unwrap();
        mem.set_trap(pa, 4).unwrap();
        assert!(mem.is_trapped(pa).unwrap());
        mem.clear_trap(pa, 4).unwrap();
        mem.clear_trap(pa, 4).unwrap();
        assert!(!mem.is_trapped(pa).unwrap());
        assert_eq!(mem.read_word(pa).unwrap(), MemoryEvent::Clean(0));
    }

    #[test]
    fn read_of_trapped_word_raises_trap_and_keeps_data() {
        let mut mem = EccMemory::new(64);
        let pa = PhysAddr::new(4);
        mem.write_word(pa, 99).unwrap();
        mem.set_trap(pa, 4).unwrap();
        assert_eq!(mem.read_word(pa).unwrap(), MemoryEvent::TapewormTrap(99));
    }

    #[test]
    fn no_allocate_write_destroys_trap_silently() {
        let mut mem = EccMemory::with_policy(64, WritePolicy::NoAllocateOnWrite);
        let pa = PhysAddr::new(0);
        mem.set_trap(pa, 4).unwrap();
        let ev = mem.write_word(pa, 5).unwrap();
        assert_eq!(ev, MemoryEvent::Clean(5));
        // Trap gone without the handler ever seeing it -- the hazard.
        assert!(!mem.is_trapped(pa).unwrap());
    }

    #[test]
    fn allocate_on_write_fires_trap() {
        let mut mem = EccMemory::with_policy(64, WritePolicy::AllocateOnWrite);
        let pa = PhysAddr::new(0);
        mem.set_trap(pa, 4).unwrap();
        let ev = mem.write_word(pa, 5).unwrap();
        assert!(ev.is_tapeworm_trap());
    }

    #[test]
    fn injected_single_error_is_corrected_and_true() {
        let mut mem = EccMemory::new(64);
        let pa = PhysAddr::new(8);
        mem.write_word(pa, 0x1234_5678).unwrap();
        mem.inject_data_error(pa, 13).unwrap();
        let ev = mem.read_word(pa).unwrap();
        assert_eq!(ev, MemoryEvent::CorrectedTrueError(0x1234_5678));
        assert!(ev.is_true_error());
    }

    #[test]
    fn error_on_trapped_word_is_uncorrectable_not_mistaken_for_trap() {
        let mut mem = EccMemory::new(64);
        let pa = PhysAddr::new(8);
        mem.set_trap(pa, 4).unwrap();
        mem.inject_data_error(pa, 3).unwrap();
        let ev = mem.read_word(pa).unwrap();
        assert_eq!(ev, MemoryEvent::Uncorrectable);
        assert!(ev.is_true_error());
        assert!(!ev.is_tapeworm_trap());
    }

    #[test]
    fn diagnostic_check_bit_access() {
        let mut mem = EccMemory::new(64);
        let pa = PhysAddr::new(4);
        let before = mem.diag_check_bits(pa).unwrap();
        mem.diag_set_check_bits(pa, before ^ 0x01).unwrap();
        assert!(mem.is_trapped(pa).unwrap());
    }

    #[test]
    #[should_panic(expected = "whole number of words")]
    fn misaligned_size_panics() {
        let _ = EccMemory::new(30);
    }

    #[test]
    fn zero_length_range_is_noop() {
        let mut mem = EccMemory::new(64);
        mem.set_trap(PhysAddr::new(0), 0).unwrap();
        assert!(!mem.is_trapped(PhysAddr::new(0)).unwrap());
    }

    /// A huge simulated memory commits only the chunks actually
    /// written; zeroed reads and zero writes stay on the shared
    /// canonical chunks.
    #[test]
    fn huge_sparse_memory_commits_only_touched_chunks() {
        let mut mem = EccMemory::new(64u64 << 30); // 64 GiB simulated
        assert_eq!(mem.sparse_stats().chunks_allocated, 0);
        let far = PhysAddr::new((64u64 << 30) - 8);
        assert_eq!(mem.read_word(far).unwrap(), MemoryEvent::Clean(0));
        mem.write_word(far, 0).unwrap(); // zero write: free
        assert_eq!(mem.sparse_stats().chunks_allocated, 0);
        mem.write_word(far, 0xdead_beef).unwrap();
        mem.set_trap(far, 4).unwrap();
        assert!(mem.read_word(far).unwrap().is_tapeworm_trap());
        let stats = mem.sparse_stats();
        assert!(
            stats.chunks_allocated <= 2,
            "one word + its check bits is two chunks at most, got {stats:?}"
        );
        // Undoing the writes restores zeroed-memory reads.
        mem.clear_trap(far, 4).unwrap();
        mem.write_word(far, 0).unwrap();
        assert_eq!(mem.read_word(far).unwrap(), MemoryEvent::Clean(0));
        assert_eq!(mem.diag_check_bits(far).unwrap(), Codec::new().encode(0));
    }

    /// The chunked memory reads exactly what a plain `Vec` of words
    /// and trap flags predicts: data, trap events and raw check bits.
    #[test]
    fn memory_matches_a_plain_vec_model() {
        let mut mem = EccMemory::with_policy(1024, WritePolicy::default());
        let codec = Codec::new();
        let mut data = vec![0u32; 1024 / 4];
        let mut trapped = vec![false; 1024 / 4];
        for off in (0..1024).step_by(52) {
            let pa = PhysAddr::new(off);
            mem.write_word(pa, off as u32).unwrap();
            data[off as usize / 4] = off as u32;
            mem.set_trap(pa, 4).unwrap();
            trapped[off as usize / 4] = true;
        }
        for off in (0..1024).step_by(4) {
            let pa = PhysAddr::new(off);
            let (word, trap) = (data[off as usize / 4], trapped[off as usize / 4]);
            let expected = if trap {
                MemoryEvent::TapewormTrap(word)
            } else {
                MemoryEvent::Clean(word)
            };
            let check = if trap {
                codec.set_trap(codec.encode(word))
            } else {
                codec.encode(word)
            };
            assert_eq!(mem.read_word(pa).unwrap(), expected);
            assert_eq!(mem.diag_check_bits(pa).unwrap(), check);
        }
    }
}
