//! Memory substrate for the Tapeworm II reproduction.
//!
//! Tapeworm's entire mechanism is the manipulation of memory-system state
//! that 1990s hardware exposed for diagnostics: ECC check bits, page valid
//! bits and breakpoint registers (paper §3.2, Table 2). This crate models
//! that state:
//!
//! * [`PhysAddr`] / [`VirtAddr`] — address newtypes with word/line/page
//!   arithmetic ([`addr`]).
//! * [`ecc`] — a real (39,32) SECDED Hamming code: 7 check bits per 32-bit
//!   word exactly as on the DECstation 5000/200. Tapeworm sets a trap by
//!   flipping one *designated* check bit; the decoder classifies syndromes
//!   so genuine single-bit errors remain correctable and distinguishable
//!   (paper footnote 1).
//! * [`EccMemory`] — full-fidelity physical memory with per-word check
//!   bits and the memory-controller diagnostic operations used by
//!   `tw_set_trap`/`tw_clear_trap`.
//! * [`TrapMap`] — the fast bitmap equivalent used on the simulator's hot
//!   path (tests assert it is behaviourally identical to [`EccMemory`]).
//! * [`page`] — page sizes (128 bytes – 1 Mbyte, Table 2 "variable page
//!   size"), page table entries with the software shadow-valid bit
//!   (paper footnote 2).
//! * [`frame`] — physical frame allocators: random (the OS behaviour that
//!   produces Table 9's run-to-run variance), sequential, and page-
//!   coloured (an ablation that suppresses that variance).
//! * [`sparse`] — demand-allocated chunked backing with zero-chunk dedup
//!   ([`SparseVec`]); [`EccMemory`] and [`TrapMap`] sit on it, so
//!   simulated footprints far beyond host RAM cost only what they touch.
//!
//! # Examples
//!
//! ```
//! use tapeworm_mem::{PhysAddr, TrapMap};
//!
//! // A 64 KiB memory trapped at 16-byte (4-word) line granularity.
//! let mut traps = TrapMap::new(64 * 1024, 16);
//! traps.set_range(PhysAddr::new(0x1000), 4096);
//! assert!(traps.is_trapped(PhysAddr::new(0x1008)));
//! traps.clear_range(PhysAddr::new(0x1000), 16);
//! assert!(!traps.is_trapped(PhysAddr::new(0x1008)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod addr;
pub mod ecc;
pub mod frame;
pub mod page;
mod phys;
pub mod sparse;
mod trapset;

pub use addr::{PhysAddr, VirtAddr, WORD_BYTES};
pub use ecc::{Codec, Decoded};
pub use frame::{ColoringAllocator, FrameAllocator, Pfn, RandomAllocator, SequentialAllocator};
pub use page::{PageSize, PageSizeError, Pte};
pub use phys::{EccMemory, MemoryEvent, OutOfRangeError, WritePolicy};
pub use sparse::{SparseElem, SparseStats, SparseVec, CHUNK_BYTES};
pub use trapset::TrapMap;
