//! Trace-driven simulation baseline for the Tapeworm II reproduction.
//!
//! The paper compares Tapeworm against "the Cache2000 memory simulator
//! driven by Pixie-generated traces", the representative trace-driven
//! environment of the day. This crate rebuilds that pipeline:
//!
//! * [`Pixie`] — an annotator model. Like the real tool it only traces
//!   **user-level instruction fetches of a single task**: multi-task
//!   workloads are refused and kernel/server references never appear —
//!   the completeness blind spot Table 6 quantifies.
//! * [`Trace`] — the in-memory address trace that carries Pixie's
//!   output to Cache2000. Nothing is stored on disk.
//! * [`Cache2000`] — the trace-driven simulator of Figure 1 (left):
//!   search on every address, replace on miss, with per-address cycle
//!   costs. Unlike the trap-driven simulator it sees every reference,
//!   so it can maintain true LRU.
//! * [`SetSampleFilter`] — software set-sample filtering of traces,
//!   with the pre-processing cost the paper contrasts against
//!   Tapeworm's free hardware filtering.
//! * [`StackDistance`] — a Mattson single-pass stack simulator that
//!   yields miss counts for *all* fully-associative LRU sizes at once
//!   (the classic trace-driven trick cited via [Mattson70, Sugumar93,
//!   Thompson89]).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod buffer;
mod cache2000;
mod filter;
mod pixie;
mod stackdist;
mod trace;

pub use buffer::{KernelTraceBuffer, KernelTraceBufferConfig};
pub use cache2000::{Cache2000, Cache2000Config, TracePolicy};
pub use filter::SetSampleFilter;
pub use pixie::{Pixie, PixieError};
pub use stackdist::StackDistance;
pub use trace::Trace;
