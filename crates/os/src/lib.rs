//! Microkernel OS substrate for the Tapeworm II reproduction.
//!
//! Tapeworm "resides in an OS kernel and works in close cooperation with
//! the VM system". This crate is that kernel — a small Mach-3.0-shaped
//! model with exactly the pieces the paper's results depend on:
//!
//! * [`task`] — tasks with the Tapeworm `(simulate, inherit)` attribute
//!   pair and the fork-time inheritance rule of §3.2
//!   (`child.simulate ← parent.inherit; child.inherit ← parent.inherit`).
//! * [`vm`] — per-task page tables over a pluggable physical frame
//!   allocator; page faults emit [`VmEvent`]s corresponding to the
//!   paper's `tw_register_page` / `tw_remove_page` calls, shared
//!   mappings included.
//! * [`Os`] — a facade that boots the kernel plus the BSD and X server
//!   tasks and exposes fork/fault/exit with the right event plumbing.
//!
//! The OS never calls the simulator directly; it *returns events* that
//! the experiment loop forwards to Tapeworm. That keeps the dependency
//! arrow pointing the same way as in the paper (Tapeworm hooks into the
//! VM system, not vice versa) while staying testable in isolation.
//!
//! Scheduling is not here: the weighted round-robin that interleaves
//! kernel, server and user components in the proportions of Table 4
//! is `tapeworm_sim`'s `QuantumSource`, which writes a trial's quantum
//! schedule ahead of the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod kernel;
pub mod task;
pub mod vm;

pub use kernel::{Os, OsConfig, Touch};
pub use task::{TapewormAttrs, Task, TaskError, TaskTable, Tid};
pub use vm::{OutOfMemoryError, Translation, Vm, VmEvent};
