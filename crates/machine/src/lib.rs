//! Simulated host machine for the Tapeworm II reproduction.
//!
//! Tapeworm is "driven by the host machine's hardware": references that
//! hit in the simulated cache run at full speed, and only references to
//! *trapped* memory vector into the kernel. This crate models the host
//! hardware of the paper's DECstation 5000/200:
//!
//! * [`Machine`] — cycle-accounted access path: trap-map check per
//!   reference, ECC-trap vectoring, interrupt masking (the paper's
//!   masked-trap bias, §4.2), trap and breakpoint-check counting.
//! * [`Tlb`] — an R3000-style software-managed TLB (64 entries, random
//!   replacement) with the ~20-cycle software refill the paper cites.
//! * [`Breakpoints`] — instruction/data breakpoint registers, the
//!   alternative trap mechanism of Table 2.
//! * [`IntervalClock`] — the timer whose interrupts make time dilation
//!   a real, endogenous effect (Figure 4): clock ticks happen on
//!   *dilated* time, so simulator overhead causes extra kernel
//!   interrupt activity and extra cache pollution.
//! * [`DmaEngine`] — a device that writes memory behind the CPU's back;
//!   under no-allocate-on-write it silently destroys traps, the exact
//!   hazard that complicated the DECstation 5000/240 port (§4.3).
//! * [`Monster`] — the unobtrusive hardware monitor used for
//!   instruction/cycle accounting (Table 4), modelled after the
//!   DAS 9200 logic analyzer system of \[Nagle92\].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bkpt;
mod clock;
mod dma;
mod machine;
mod monster;
mod tlb;
pub mod trap;

pub use bkpt::Breakpoints;
pub use clock::IntervalClock;
pub use dma::DmaEngine;
pub use machine::{AccessKind, FetchOutcome, Machine, MachineConfig};
pub use monster::{Component, Monster};
pub use tlb::{Tlb, TlbEntry, TlbOutcome};
pub use trap::Trap;
