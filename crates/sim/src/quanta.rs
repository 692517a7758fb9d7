//! What runs next: a trial's quantum schedule.
//!
//! The smooth weighted round-robin over the components, the component
//! instruction budgets, the kernel and server reference streams, the
//! user-task list with its per-task quotas, and the split-cache data
//! streams decide which code runs in which order. None of it reads
//! cache, trap, VM or clock state: the schedule is a pure function of
//! the workload spec, the scale, the model's split-ness and the base
//! seed. [`QuantumSource`] owns that state and writes the schedule,
//! one [`Quantum`] per round-robin pick, into [`QuantumBlock`]s that
//! the engine then executes.
//!
//! Because nothing the engine computes flows back, the source can run
//! ahead of the engine on another core and the engine still sees the
//! identical sequence of picks (DESIGN §18). Interrupt-handler code is
//! *not* scheduled here: where ticks land depends on dilated time, so
//! its stream stays on the engine.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

use tapeworm_machine::Component;
use tapeworm_mem::VirtAddr;
use tapeworm_stats::SeedSeq;
use tapeworm_workload::{
    DataParams, DataRef, DataStream, ProcStream, RefStream, WorkloadSpec, BSD_TEXT_BASE,
    DATA_SEGMENT_OFFSET, KERNEL_TEXT_BASE, USER_TEXT_BASE, X_TEXT_BASE,
};

/// Round-robin picks per block: 16 KiB of [`Quantum`]s. Large enough
/// that a hand-over between threads is amortised over about a thousand
/// quanta, small enough that the blocks in flight stay under 100 KiB
/// (DESIGN §18 has the measured trade-off).
pub(crate) const BLOCK_QUANTA: usize = 1024;

/// One round-robin pick: run `words` fetches from `va` for
/// `component`, then (user tasks only) exit the task if its quota is
/// spent. A pick that finds nothing to run has `words == 0`.
///
/// Packed into 16 bytes: the simulated R3000's virtual addresses are
/// 32-bit, and a workload forks far fewer than 2¹⁶ user tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Quantum {
    /// First fetched address.
    va: u32,
    /// Sequential word fetches (0 when the component had nothing to run).
    pub words: u32,
    /// User picks: the task's ordinal, i.e. how many user tasks were
    /// forked before it. Unused for the kernel and servers.
    pub task: u16,
    /// End of this pick's data references in [`QuantumBlock::data`];
    /// they start where the previous pick's ended.
    pub data_end: u32,
    /// The component the pick runs.
    pub component: Component,
    /// The user task exits after this quantum.
    pub exits: bool,
}

const _: () = assert!(std::mem::size_of::<Quantum>() == 16);

impl Quantum {
    /// First fetched address.
    pub fn va(&self) -> VirtAddr {
        VirtAddr::new(u64::from(self.va))
    }
}

/// A text address as a [`Quantum`] stores it.
fn packed_va(va: VirtAddr) -> u32 {
    u32::try_from(va.raw()).expect("R3000 virtual addresses are 32-bit")
}

/// A run of consecutive picks and their data references.
#[derive(Debug)]
pub(crate) struct QuantumBlock {
    pub quanta: Vec<Quantum>,
    pub data: Vec<DataRef>,
}

impl QuantumBlock {
    /// An empty block with room for [`BLOCK_QUANTA`] picks, so filling
    /// it never allocates.
    pub fn new() -> Self {
        QuantumBlock {
            quanta: Vec::with_capacity(BLOCK_QUANTA),
            data: Vec::new(),
        }
    }
}

/// One live user task as the schedule sees it.
#[derive(Debug)]
struct UserSlot {
    ordinal: u16,
    stream: ProcStream,
    /// Load/store generator (split-cache simulations only).
    data: Option<DataStream>,
    /// Instructions left before this task exits (u64::MAX = run to the
    /// end of the workload).
    quota: u64,
}

/// The schedule's state: everything that decides what runs next.
#[derive(Debug)]
pub(crate) struct QuantumSource {
    spec: &'static WorkloadSpec,
    base: SeedSeq,
    split: bool,
    /// `(component, weight, current)` for every component still
    /// holding budget.
    wrr: Vec<(Component, i64, i64)>,
    /// Sum of the weights in `wrr`.
    total: i64,
    /// Per-component instruction budgets (Component::index order).
    budgets: [u64; 4],
    /// Kernel, BSD-server and X-server streams, Component::index order.
    streams: [ProcStream; 3],
    /// Their data streams (split-cache simulations only).
    data_streams: [Option<DataStream>; 3],
    users: Vec<UserSlot>,
    next_user: usize,
    users_created: u32,
    /// Instruction share of one (non-final) user task.
    user_quota: u64,
}

impl QuantumSource {
    /// The schedule of a trial of `spec` at `scale`, with data streams
    /// when the model is a split cache. Forks the initial concurrent
    /// user tasks; [`QuantumSource::users_created`] says how many.
    pub fn new(spec: &'static WorkloadSpec, scale: u64, split: bool, base: SeedSeq) -> Self {
        // Component instruction budgets from the Table 4 fractions.
        let total = spec.scaled_instructions(scale);
        let budget = |f: f64| (total as f64 * f).round() as u64;
        let budgets = [
            budget(spec.frac_kernel),
            budget(spec.frac_bsd),
            budget(spec.frac_x),
            budget(spec.frac_user),
        ];
        let user_quota =
            (budgets[Component::User.index()] / u64::from(spec.user_task_count.max(1))).max(1);
        // Smooth weighted round-robin over the components, by the
        // Table 4 time fractions.
        let wrr: Vec<(Component, i64, i64)> = spec
            .component_weights()
            .iter()
            .filter(|(c, w)| *w > 0 && budgets[c.index()] > 0)
            .map(|&(c, w)| (c, i64::from(w), 0i64))
            .collect();
        let data_stream = |text_base: u64, text: u64, label: u64| {
            split.then(|| {
                DataStream::new(
                    text_base + DATA_SEGMENT_OFFSET,
                    DataParams::default_for_text(text),
                    base.derive("data-stream", label),
                )
            })
        };
        let mut source = QuantumSource {
            spec,
            base,
            split,
            total: wrr.iter().map(|(_, w, _)| w).sum(),
            wrr,
            budgets,
            streams: [
                ProcStream::new(
                    KERNEL_TEXT_BASE,
                    spec.kernel_stream,
                    base.derive("kernel-stream", 0),
                ),
                ProcStream::new(BSD_TEXT_BASE, spec.bsd_stream, base.derive("bsd-stream", 0)),
                ProcStream::new(X_TEXT_BASE, spec.x_stream, base.derive("x-stream", 0)),
            ],
            data_streams: [
                data_stream(KERNEL_TEXT_BASE, spec.kernel_stream.footprint_bytes, 0),
                data_stream(BSD_TEXT_BASE, spec.bsd_stream.footprint_bytes, 1),
                data_stream(X_TEXT_BASE, spec.x_stream.footprint_bytes, 2),
            ],
            users: Vec::new(),
            next_user: 0,
            users_created: 0,
            user_quota,
        };
        for _ in 0..spec.concurrent_tasks.min(spec.user_task_count.max(1)) {
            source.fork_user();
        }
        source
    }

    /// User tasks forked so far, the initial ones included.
    pub fn users_created(&self) -> u32 {
        self.users_created
    }

    /// Instructions the schedule has left to hand out.
    pub fn instructions(&self) -> u64 {
        self.budgets.iter().sum()
    }

    /// Every component's budget is spent: no picks remain.
    pub fn is_done(&self) -> bool {
        self.wrr.is_empty()
    }

    /// Replaces `block`'s contents with the next picks: up to
    /// [`BLOCK_QUANTA`] of them, fewer only when the schedule ends.
    pub fn fill(&mut self, block: &mut QuantumBlock) {
        block.quanta.clear();
        block.data.clear();
        while block.quanta.len() < BLOCK_QUANTA && !self.wrr.is_empty() {
            for e in &mut self.wrr {
                e.2 += e.1;
            }
            let best = self
                .wrr
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)
                .expect("non-empty wrr");
            self.wrr[best].2 -= self.total;
            let component = self.wrr[best].0;
            let quantum = self.pick(component, &mut block.data);
            block.quanta.push(quantum);
            // The weight total changes only when a component leaves, so
            // it is summed again only after a `retain`.
            if quantum.words == 0 || self.budgets[component.index()] == 0 {
                self.wrr.retain(|(c, ..)| *c != component);
                self.total = self.wrr.iter().map(|(_, w, _)| w).sum();
            }
        }
    }

    /// Draws one quantum of `component`, appending its data references
    /// to `data`, and charges it to the budgets and quotas.
    fn pick(&mut self, component: Component, data: &mut Vec<DataRef>) -> Quantum {
        let mut quantum = Quantum {
            va: 0,
            words: 0,
            task: 0,
            data_end: 0,
            component,
            exits: false,
        };
        let budget = self.budgets[component.index()];
        if component == Component::User {
            if budget > 0 && !self.users.is_empty() {
                // The cursor moves by one per quantum and an exit only
                // shrinks the list under it, so it is usually in range:
                // reduce it (the same remainder) only when it is not.
                if self.next_user >= self.users.len() {
                    self.next_user %= self.users.len();
                }
                let idx = self.next_user;
                let task = &mut self.users[idx];
                let run = task.stream.next_run();
                let w = u64::from(run.words).min(budget).min(task.quota);
                if let Some(stream) = &mut task.data {
                    stream.refs_into(w, data);
                }
                task.quota = task.quota.saturating_sub(w);
                quantum.va = packed_va(run.va);
                quantum.words = w as u32;
                quantum.task = task.ordinal;
                quantum.exits = task.quota == 0;
                self.budgets[component.index()] -= w;
                if quantum.exits {
                    self.users.remove(idx);
                    if self.users_created < self.spec.user_task_count {
                        self.fork_user();
                    }
                } else {
                    self.next_user += 1;
                }
            }
        } else if budget > 0 {
            let i = component.index();
            let run = self.streams[i].next_run();
            let w = u64::from(run.words).min(budget);
            if let Some(stream) = &mut self.data_streams[i] {
                stream.refs_into(w, data);
            }
            quantum.va = packed_va(run.va);
            quantum.words = w as u32;
            self.budgets[i] -= w;
        }
        quantum.data_end = u32::try_from(data.len()).expect("a block's data refs fit in u32");
        quantum
    }

    fn fork_user(&mut self) {
        let i = u64::from(self.users_created);
        self.users_created += 1;
        // The final concurrent batch runs to the end of the workload;
        // earlier tasks exit after an equal share of the user budget.
        let quota = if self.users_created >= self.spec.user_task_count {
            u64::MAX
        } else {
            self.user_quota
        };
        let data = self.split.then(|| {
            DataStream::new(
                USER_TEXT_BASE + DATA_SEGMENT_OFFSET,
                DataParams::default_for_text(self.spec.user_stream.footprint_bytes),
                self.base.derive("user-data", i),
            )
        });
        self.users.push(UserSlot {
            ordinal: u16::try_from(i).expect("fewer than 2^16 user tasks"),
            stream: ProcStream::new(
                USER_TEXT_BASE,
                self.spec.user_stream,
                self.base.derive("user-task", i),
            ),
            data,
            quota,
        });
    }
}

/// Blocks in flight between the helper thread and the engine: one
/// being filled, one being run, one queued between them.
const HELPER_BLOCKS: usize = 3;

/// Smallest schedule, in instructions, worth a helper thread. The
/// spawn, first hand-over and join cost a trial 55–100 µs, and the
/// helper saves 0.3–0.47 ns per instruction, so it breaks even near
/// 0.2 M instructions; the floor is five times that, which keeps the
/// helper a win when a loaded host doubles the fixed cost (DESIGN §18).
const HELPER_MIN_INSTRUCTIONS: u64 = 1_000_000;

/// Trials running in this process: those between
/// [`RunningTrials::enter`] and the guard's drop.
static RUNNING_TRIALS: AtomicUsize = AtomicUsize::new(0);

/// Trials that built their schedule on a helper thread, process-wide.
static HELPER_TRIALS: AtomicU64 = AtomicU64::new(0);

/// How many trials this process has run with their quantum schedule
/// built on a helper thread (the rest built it inline). A host fact,
/// like wall time: it never enters a result, a counter or a digest.
pub fn schedule_helper_trials() -> u64 {
    HELPER_TRIALS.load(Ordering::Relaxed)
}

/// Trials counted in [`RUNNING_TRIALS`] while the guard lives: one
/// trial in progress, or the sibling workers of a sweep, which run
/// trials for as long as the sweep lasts.
#[derive(Debug)]
pub(crate) struct RunningTrials {
    count: usize,
    /// Trials running once these entered, these included.
    running: usize,
}

impl RunningTrials {
    pub fn enter(count: usize) -> Self {
        RunningTrials {
            count,
            running: RUNNING_TRIALS.fetch_add(count, Ordering::Relaxed) + count,
        }
    }

    /// Whether a trial holding this guard should build its schedule on
    /// a helper thread: the schedule is long enough to repay the spawn,
    /// and a core is spare for every running trial's helper (running
    /// trials × 2 ≤ the host's available parallelism). The size test
    /// comes first, so a process that runs only small trials never
    /// queries the host.
    pub fn helper_pays(&self, instructions: u64) -> bool {
        instructions >= HELPER_MIN_INSTRUCTIONS && self.running * 2 <= host_cpus()
    }
}

impl Drop for RunningTrials {
    fn drop(&mut self) {
        RUNNING_TRIALS.fetch_sub(self.count, Ordering::Relaxed);
    }
}

/// The host's available parallelism (CPU affinity and quota included),
/// read once: the query walks cgroup files.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `source`'s whole schedule through `run`, one block at a time,
/// in order, stopping at the first error. Inline, one thread fills a
/// block and then runs it; with `helper`, the same fill runs ahead on a
/// scoped helper thread and hands blocks over a bounded channel, the
/// emptied ones coming back for reuse within the trial.
pub(crate) fn drive<E>(
    mut source: QuantumSource,
    helper: bool,
    mut run: impl FnMut(&QuantumBlock) -> Result<(), E>,
) -> Result<(), E> {
    if !helper {
        let mut block = QuantumBlock::new();
        let mut out = Ok(());
        while out.is_ok() && !source.is_done() {
            source.fill(&mut block);
            out = run(&block);
        }
        return out;
    }
    HELPER_TRIALS.fetch_add(1, Ordering::Relaxed);
    let (full_tx, full_rx) = mpsc::sync_channel::<QuantumBlock>(HELPER_BLOCKS);
    let (free_tx, free_rx) = mpsc::sync_channel::<QuantumBlock>(HELPER_BLOCKS);
    for _ in 0..HELPER_BLOCKS {
        free_tx
            .send(QuantumBlock::new())
            .expect("the free channel holds every block");
    }
    std::thread::scope(|scope| {
        let filler = std::thread::Builder::new()
            .name("tw-quanta".into())
            .spawn_scoped(scope, move || {
                while let Ok(mut block) = free_rx.recv() {
                    source.fill(&mut block);
                    if full_tx.send(block).is_err() || source.is_done() {
                        break;
                    }
                }
            })
            .expect("spawn the schedule helper thread");
        let mut out = Ok(());
        while let Ok(block) = full_rx.recv() {
            out = run(&block);
            if out.is_err() {
                break;
            }
            // The helper may already be gone at the schedule's end; the
            // send then fails and the block is dropped.
            let _ = free_tx.send(block);
        }
        // Close both channel ends before the join, so a helper waiting
        // for a free block or for room to hand one over wakes and
        // returns instead of blocking the join forever.
        drop(full_rx);
        drop(free_tx);
        filler
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeworm_workload::Workload;

    fn drain(mut source: QuantumSource) -> Vec<Quantum> {
        let mut block = QuantumBlock::new();
        let mut all = Vec::new();
        while !source.is_done() {
            source.fill(&mut block);
            assert!(!block.quanta.is_empty(), "a live schedule makes progress");
            all.extend_from_slice(&block.quanta);
        }
        all
    }

    #[test]
    fn schedule_spends_every_budget_and_forks_each_task_once() {
        let spec = Workload::Ousterhout.spec();
        let source = QuantumSource::new(spec, 20_000, false, SeedSeq::new(3));
        let budget = source.instructions();
        let picks = drain(source);
        let words: u64 = picks.iter().map(|q| u64::from(q.words)).sum();
        assert_eq!(words, budget, "every instruction is scheduled once");
        assert!(
            picks.iter().all(|q| q.data_end == 0),
            "no data refs unsplit"
        );
        // Exits fork the next task: every ordinal up to the task count
        // runs, and no task runs again after its exit.
        let mut exited = vec![false; spec.user_task_count as usize];
        let mut ran = vec![false; spec.user_task_count as usize];
        for q in picks.iter().filter(|q| q.component == Component::User) {
            let t = q.task as usize;
            assert!(!exited[t], "task {t} ran after its exit");
            ran[t] = true;
            exited[t] = q.exits;
        }
        assert!(ran.iter().all(|&r| r), "every task is forked and runs");
        assert!(exited.iter().any(|&e| e), "finite quotas end in exits");
    }

    /// Every quantum and data reference `drive` hands to its runner.
    fn driven(helper: bool) -> (Vec<Quantum>, Vec<DataRef>) {
        let spec = Workload::Ousterhout.spec();
        let source = QuantumSource::new(spec, 2_000, true, SeedSeq::new(5));
        let (mut quanta, mut data) = (Vec::new(), Vec::new());
        drive(source, helper, |block| {
            quanta.extend_from_slice(&block.quanta);
            data.extend_from_slice(&block.data);
            Ok::<(), ()>(())
        })
        .expect("the runner never fails");
        (quanta, data)
    }

    #[test]
    fn helper_and_inline_drives_hand_over_the_same_schedule() {
        let (inline_q, inline_d) = driven(false);
        let (helper_q, helper_d) = driven(true);
        assert!(
            inline_q.len() > 2 * BLOCK_QUANTA,
            "the schedule spans blocks"
        );
        assert!(!inline_d.is_empty(), "a split schedule carries data refs");
        assert_eq!(inline_q, helper_q);
        assert_eq!(inline_d, helper_d);
    }

    /// The runner fails while the helper still has blocks to fill, so
    /// the helper is waiting for a free block or filling one: `drive`
    /// must wake it, join it and return the error rather than hang.
    #[test]
    fn a_failing_runner_stops_the_helper_and_returns_its_error() {
        let spec = Workload::MpegPlay.spec();
        for helper in [false, true] {
            let source = QuantumSource::new(spec, 200, false, SeedSeq::new(1));
            let mut calls = 0;
            let out = drive(source, helper, |_| {
                calls += 1;
                if calls == 2 {
                    Err("out of frames")
                } else {
                    Ok(())
                }
            });
            assert_eq!(out, Err("out of frames"), "helper: {helper}");
            assert_eq!(calls, 2, "no block runs after the error");
        }
    }

    /// A panicking runner unwinds through `drive` (the helper wakes and
    /// is joined on the way), so a sweep's panic isolation still sees
    /// the panic instead of a hung worker.
    #[test]
    fn a_panicking_runner_propagates_without_hanging() {
        let spec = Workload::MpegPlay.spec();
        let source = QuantumSource::new(spec, 200, false, SeedSeq::new(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(source, true, |_| -> Result<(), ()> {
                panic!("injected runner panic")
            })
        }));
        assert!(caught.is_err());
    }
}
