//! Multi-trial experiment execution: a parallel scheduler with
//! deterministic, trial-index-ordered commit.
//!
//! The paper runs 4–16 trials per configuration and reports the spread
//! (Tables 7–10); the figure sweeps run dozens of configurations. Every
//! cell of that grid is an independent pure function of
//! `(config, base_seed, trial_index)` — the [`SeedSeq`] design guarantees
//! it — so the grid is embarrassingly parallel. [`TrialScheduler`] fans
//! cells out over a `std::thread` worker pool and a **committer** reorders
//! completions back into index order, so results are bit-identical
//! regardless of thread count. `threads == 1` takes a plain serial loop
//! with no thread, channel or reorder buffer at all.
//!
//! Every trial, in this pool or outside it (the planner's pruned pass,
//! the server's subprocess backend), goes through one attempt loop,
//! [`attempt_trial`]: retry a typed error or a contained panic within a
//! [`RetryPolicy`], charge virtual backoff, and end in a value or a
//! [`TrialFailure`] plus that trial's [`FaultStats`] delta.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::{EmptySampleError, SeedSeq, Summary};

/// The outcome of a multi-trial experiment: raw values in trial order and
/// their summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSet {
    values: Vec<f64>,
    summary: Summary,
}

impl TrialSet {
    /// Per-trial measurements, indexed by trial number.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Summary statistics over the trials.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }
}

/// How one trial attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The trial closure panicked; the payload's message is captured.
    Panic(String),
    /// The trial closure returned a typed error.
    Error(String),
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::Error(msg) => write!(f, "error: {msg}"),
        }
    }
}

/// A trial that exhausted its retry budget. Committed in place of the
/// trial's value, so a sweep degrades gracefully instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Index of the failed trial.
    pub index: usize,
    /// Total attempts made (1 + retries).
    pub attempts: u32,
    /// Deterministic backoff units accumulated across the retries.
    /// Virtual units, never wall-clock — results stay bit-identical.
    pub backoff_units: u64,
    /// The last attempt's failure.
    pub kind: FailureKind,
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} failed after {} attempts ({})",
            self.index, self.attempts, self.kind
        )
    }
}

/// Bounded-retry policy with a capped deterministic backoff schedule.
///
/// Backoff is accounted in *virtual units* — the schedule is recorded
/// in [`FaultStats`] and [`TrialFailure`] but no thread ever sleeps, so
/// committed results carry no wall-clock dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per trial (first run + retries). Minimum 1.
    pub max_attempts: u32,
    /// Backoff units charged for retrying after attempt 0; doubles per
    /// attempt.
    pub backoff_base: u64,
    /// Ceiling on the per-retry backoff charge.
    pub backoff_cap: u64,
}

impl RetryPolicy {
    /// No retries: one attempt, failures are terminal.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0,
            backoff_cap: 0,
        }
    }

    /// Backoff units charged for retrying after `attempt` (0-based):
    /// `min(cap, base << attempt)`.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.backoff_base
            .checked_mul(factor)
            .map_or(self.backoff_cap, |b| b.min(self.backoff_cap))
    }
}

impl Default for RetryPolicy {
    /// Three attempts, exponential 250/500/… capped at 4000 units.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: 250,
            backoff_cap: 4000,
        }
    }
}

/// Scheduler-level fault accounting for one resilient run. Every field
/// is a sum of per-`(index, attempt)` events, so the totals are
/// bit-identical for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Attempts re-run after a failure (attempts beyond each trial's
    /// first).
    pub retries: u64,
    /// Worker panics caught by the engine.
    pub panics: u64,
    /// Attempts that returned a typed error.
    pub typed_failures: u64,
    /// Trials that exhausted their retry budget.
    pub failed_trials: u64,
    /// Contained panics that cost their attempt's worker: an in-process
    /// worker holds no state between trials, so it simply drops the
    /// panicked trial's engine and retries, and a subprocess backend
    /// respawns its dead worker process. Counted once per contained
    /// panic, so it equals `panics` by construction.
    pub workers_respawned: u64,
    /// Total deterministic backoff units scheduled (virtual, never
    /// slept).
    pub backoff_units: u64,
    /// Trials this run actually drove to a terminal outcome — the
    /// scheduler's evidence of work performed. A resumed sweep counts
    /// only the remainder it computed; a fingerprint-cache hit that
    /// never enters the scheduler reports `0`.
    pub trials_computed: u64,
}

impl FaultStats {
    /// Whether the run saw no faults at all. `trials_computed` is
    /// work accounting, not a fault, so it does not participate.
    pub fn is_clean(&self) -> bool {
        let FaultStats {
            retries,
            panics,
            typed_failures,
            failed_trials,
            workers_respawned,
            backoff_units,
            trials_computed: _,
        } = *self;
        retries == 0
            && panics == 0
            && typed_failures == 0
            && failed_trials == 0
            && workers_respawned == 0
            && backoff_units == 0
    }

    /// Accumulates another run's accounting into this one — the
    /// service layer sums per-job stats into a queue-level report.
    pub fn merge(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.panics += other.panics;
        self.typed_failures += other.typed_failures;
        self.failed_trials += other.failed_trials;
        self.workers_respawned += other.workers_respawned;
        self.backoff_units += other.backoff_units;
        self.trials_computed += other.trials_computed;
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs trial `index` to a terminal outcome under `retry`: the one
/// attempt loop every trial goes through, in process or out.
///
/// `attempt(a)` runs attempt `a` (0-based). `Err(FailureKind::Error)`
/// is a typed failure; `Err(FailureKind::Panic)` is a contained panic,
/// as is a panic unwinding out of `attempt` (caught here). A panic
/// loses whatever the attempt built and counts once in
/// [`FaultStats::workers_respawned`]. A failed attempt with
/// budget left charges `retry.backoff_for(a)` virtual units and
/// retries; the last becomes a [`TrialFailure`]. Returns the outcome
/// and this trial's [`FaultStats`] delta, for the caller to merge.
pub fn attempt_trial<T>(
    retry: RetryPolicy,
    index: usize,
    mut attempt: impl FnMut(u32) -> Result<T, FailureKind>,
) -> (Result<T, TrialFailure>, FaultStats) {
    let max_attempts = retry.max_attempts.max(1);
    let mut stats = FaultStats {
        trials_computed: 1,
        ..FaultStats::default()
    };
    let mut n: u32 = 0;
    let outcome = loop {
        let kind = match catch_unwind(AssertUnwindSafe(|| attempt(n))) {
            Ok(Ok(value)) => break Ok(value),
            Ok(Err(kind)) => kind,
            Err(payload) => FailureKind::Panic(panic_message(&*payload)),
        };
        match kind {
            FailureKind::Error(_) => stats.typed_failures += 1,
            FailureKind::Panic(_) => {
                stats.panics += 1;
                stats.workers_respawned += 1;
            }
        }
        if n + 1 >= max_attempts {
            break Err(kind);
        }
        stats.backoff_units += retry.backoff_for(n);
        n += 1;
    };
    stats.retries = u64::from(n);
    let outcome = outcome.map_err(|kind| {
        stats.failed_trials = 1;
        TrialFailure {
            index,
            attempts: n + 1,
            backoff_units: stats.backoff_units,
            kind,
        }
    });
    (outcome, stats)
}

/// A worker pool that evaluates independent indexed jobs and commits
/// their results **in index order**.
///
/// The execution model is the classic dispatch-loop / worker-pool /
/// ordered-commit trio:
///
/// * **dispatch** — workers claim the next unclaimed index from a shared
///   atomic counter (dynamic load balancing; a slow cell never stalls
///   the queue behind a fixed chunk boundary);
/// * **execute** — each job runs independently, and a worker carries
///   nothing from one job to the next (a trial builds and drops its
///   own engine); results flow back over an `mpsc` channel;
/// * **commit** — the calling thread holds completions in an ordered
///   map and releases them strictly in index order, so observable
///   output is bit-identical for any worker count.
///
/// # Examples
///
/// ```
/// use tapeworm_stats::trials::TrialScheduler;
///
/// let serial = TrialScheduler::serial().run(4, |i| i * i);
/// let parallel = TrialScheduler::new(8).run(4, |i| i * i);
/// assert_eq!(serial, parallel);
/// assert_eq!(serial, vec![0, 1, 4, 9]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialScheduler {
    threads: usize,
}

impl TrialScheduler {
    /// A scheduler over `threads` workers. `0` selects the host's
    /// available parallelism; `1` is the exact serial loop.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        TrialScheduler { threads }
    }

    /// The exact serial path: one thread, no pool.
    pub fn serial() -> Self {
        TrialScheduler { threads: 1 }
    }

    /// Number of worker threads this scheduler uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `job(0..n)` and returns the results indexed by job
    /// number. Output is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when a job panics, after committing every lower index.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        self.run_committed(n, job, |_, value| out.push(value));
        out
    }

    /// Evaluates `job(0..n)`, invoking `commit(index, value)` strictly in
    /// index order (0, 1, 2, …) as results become available.
    ///
    /// The commit callback runs on the calling thread, so it may hold
    /// `&mut` state (accumulate statistics, stream table rows) without
    /// synchronization, and sees exactly the sequence the serial loop
    /// would produce. This is the resilient pool with
    /// [`RetryPolicy::none`].
    ///
    /// # Panics
    ///
    /// Panics when a job panics, after committing every lower index.
    pub fn run_committed<T, F, C>(&self, n: usize, job: F, mut commit: C)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FnMut(usize, T),
    {
        self.run_committed_resilient(
            n,
            RetryPolicy::none(),
            |i, _| Ok::<T, String>(job(i)),
            |i, outcome| match outcome {
                Ok(value) => commit(i, value),
                Err(failure) => panic!("{failure}"),
            },
        );
    }

    /// Fault-tolerant variant of [`run_committed`](Self::run_committed).
    ///
    /// Every trial runs through [`attempt_trial`]: each attempt of
    /// `job(index, attempt)` runs under [`catch_unwind`], and panics and
    /// typed errors (`Err(String)`) are retried by the same worker under
    /// `retry`'s budget with a capped deterministic backoff schedule
    /// (virtual units — nothing sleeps, so results carry no
    /// wall-clock). A trial that exhausts its budget commits a
    /// [`TrialFailure`] instead of a value — the run completes and
    /// reports instead of aborting.
    ///
    /// `commit(index, outcome)` is still invoked strictly in index
    /// order on the calling thread, and both the committed sequence and
    /// the returned [`FaultStats`] are bit-identical for every thread
    /// count (every statistic is a sum of per-trial deltas).
    pub fn run_committed_resilient<T, F, C>(
        &self,
        n: usize,
        retry: RetryPolicy,
        job: F,
        mut commit: C,
    ) -> FaultStats
    where
        T: Send,
        F: Fn(usize, u32) -> Result<T, String> + Sync,
        C: FnMut(usize, Result<T, TrialFailure>),
    {
        let run = |index: usize| {
            attempt_trial(retry, index, |attempt| {
                job(index, attempt).map_err(FailureKind::Error)
            })
        };
        let mut stats = FaultStats::default();
        let workers = self.threads.min(n);
        if workers <= 1 {
            // The serial path is the reference semantics: compute and
            // commit in one loop.
            for index in 0..n {
                let (outcome, delta) = run(index);
                stats.merge(&delta);
                commit(index, outcome);
            }
            return stats;
        }

        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for _ in 0..workers {
                let tx = tx.clone();
                let (cursor, run) = (&cursor, &run);
                scope.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    if tx.send((index, run(index))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Deterministic committer: hold out-of-order completions
            // until their index is the next to commit. Every attempt runs
            // under `catch_unwind`, so a worker reports each index it
            // claims.
            let mut pending = BTreeMap::new();
            for next in 0..n {
                let (outcome, delta) = loop {
                    if let Some(done) = pending.remove(&next) {
                        break done;
                    }
                    let (index, done) = rx.recv().expect("every claimed trial is reported");
                    pending.insert(index, done);
                };
                stats.merge(&delta);
                commit(next, outcome);
            }
        });
        stats
    }

    /// Runs `n` seeded trials of `f` and folds them into a [`TrialSet`].
    ///
    /// Trial `i` always receives `base.derive("trial", i)`, so the set is
    /// reproducible in isolation and identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`EmptySampleError`] when `n == 0` — an experiment with
    /// no trials has no summary.
    pub fn run_trials<F>(&self, base: SeedSeq, n: usize, f: F) -> Result<TrialSet, EmptySampleError>
    where
        F: Fn(SeedSeq) -> f64 + Sync,
    {
        let values = self.run(n, |i| f(base.derive("trial", i as u64)));
        let summary = Summary::from_values(values.iter().copied())?;
        Ok(TrialSet { values, summary })
    }
}

/// Runs `n` trials of `f` sequentially.
///
/// Each trial receives a [`SeedSeq`] derived as `base.derive("trial", i)`,
/// so trial `i` is reproducible in isolation.
///
/// # Errors
///
/// Returns [`EmptySampleError`] when `n == 0` — an experiment with no
/// trials has no summary.
pub fn run_trials<F>(base: SeedSeq, n: usize, mut f: F) -> Result<TrialSet, EmptySampleError>
where
    F: FnMut(SeedSeq) -> f64,
{
    let values: Vec<f64> = (0..n as u64).map(|i| f(base.derive("trial", i))).collect();
    let summary = Summary::from_values(values.iter().copied())?;
    Ok(TrialSet { values, summary })
}

/// Runs `n` trials of `f` across `threads` OS threads.
///
/// Results are bit-identical to [`run_trials`] (trial `i` always gets the
/// same derived seed, and the committer restores trial order); only
/// wall-clock time changes. `threads == 0` selects the available
/// parallelism; `1` degrades to the sequential path.
///
/// # Errors
///
/// Returns [`EmptySampleError`] when `n == 0`.
pub fn run_trials_parallel<F>(
    base: SeedSeq,
    n: usize,
    threads: usize,
    f: F,
) -> Result<TrialSet, EmptySampleError>
where
    F: Fn(SeedSeq) -> f64 + Sync,
{
    TrialScheduler::new(threads).run_trials(base, n, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_get_distinct_seeds() {
        let set = run_trials(SeedSeq::new(5), 8, |seed| seed.value() as f64).unwrap();
        let mut vals = set.values().to_vec();
        vals.dedup();
        assert_eq!(vals.len(), 8);
    }

    #[test]
    fn deterministic_across_runs() {
        let f = |seed: SeedSeq| seed.rng().gen_range(0.0..1.0);
        let a = run_trials(SeedSeq::new(3), 16, f);
        let b = run_trials(SeedSeq::new(3), 16, f);
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = |seed: SeedSeq| seed.rng().gen_range(0.0..100.0);
        let seq = run_trials(SeedSeq::new(11), 13, f).unwrap();
        for threads in [2, 4, 8, 32] {
            let par = run_trials_parallel(SeedSeq::new(11), 13, threads, f).unwrap();
            assert_eq!(seq.values(), par.values(), "threads={threads}");
        }
    }

    #[test]
    fn single_thread_parallel_degrades() {
        let f = |seed: SeedSeq| seed.value() as f64;
        let seq = run_trials(SeedSeq::new(2), 5, f).unwrap();
        let par = run_trials_parallel(SeedSeq::new(2), 5, 1, f).unwrap();
        assert_eq!(seq.values(), par.values());
    }

    #[test]
    fn zero_trials_is_an_error_not_a_panic() {
        assert_eq!(
            run_trials(SeedSeq::new(0), 0, |_| 0.0),
            Err(EmptySampleError)
        );
        assert_eq!(
            run_trials_parallel(SeedSeq::new(0), 0, 4, |_| 0.0),
            Err(EmptySampleError)
        );
        assert_eq!(
            TrialScheduler::serial().run_trials(SeedSeq::new(0), 0, |_| 0.0),
            Err(EmptySampleError)
        );
    }

    #[test]
    fn summary_reflects_values() {
        let set = run_trials(SeedSeq::new(1), 4, |s| (s.value() % 7) as f64).unwrap();
        let expect = Summary::from_values(set.values().iter().copied()).unwrap();
        assert_eq!(*set.summary(), expect);
    }

    #[test]
    fn scheduler_commits_in_index_order() {
        // Stagger completions so high indices finish first; the
        // committer must still observe 0, 1, 2, ….
        let sched = TrialScheduler::new(4);
        let mut seen = Vec::new();
        sched.run_committed(
            16,
            |i| {
                std::thread::sleep(std::time::Duration::from_micros(((16 - i) * 200) as u64));
                i * 10
            },
            |i, v| seen.push((i, v)),
        );
        let expect: Vec<(usize, usize)> = (0..16).map(|i| (i, i * 10)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scheduler_run_is_thread_count_invariant() {
        let reference = TrialScheduler::serial().run(37, |i| i as u64 * 3 + 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                TrialScheduler::new(threads).run(37, |i| i as u64 * 3 + 1),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scheduler_handles_empty_and_tiny_inputs() {
        let sched = TrialScheduler::new(8);
        assert_eq!(sched.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(sched.run(1, |i| i + 41), vec![41]);
        assert_eq!(sched.run(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        let sched = TrialScheduler::new(0);
        assert!(sched.threads() >= 1);
        assert_eq!(sched.run(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn plain_runs_still_panic_on_a_job_panic() {
        let job = |i: usize| {
            assert!(i != 5, "job 5 exploded");
            i
        };
        for threads in [1, 4] {
            let sched = TrialScheduler::new(threads);
            let payload = catch_unwind(AssertUnwindSafe(|| sched.run(8, job))).unwrap_err();
            let message = panic_message(&*payload);
            assert!(
                message.contains("job 5 exploded"),
                "threads={threads}: {message}"
            );
            let mut seen = Vec::new();
            let committed = catch_unwind(AssertUnwindSafe(|| {
                sched.run_committed(8, job, |i, _| seen.push(i))
            }));
            assert!(committed.is_err(), "threads={threads}");
            assert_eq!(
                seen,
                [0, 1, 2, 3, 4],
                "threads={threads}: lower indices commit first"
            );
        }
    }

    /// A job that panics on given (index, attempt) pairs and errors on
    /// others; succeeds otherwise with a pure function of the index.
    fn faulty_job<'a>(
        panics: &'a [(usize, u32)],
        errors: &'a [(usize, u32)],
    ) -> impl Fn(usize, u32) -> Result<u64, String> + Sync + 'a {
        move |i, a| {
            if panics.contains(&(i, a)) {
                panic!("injected fault: trial {i} attempt {a}");
            }
            if errors.contains(&(i, a)) {
                return Err(format!("injected error: trial {i} attempt {a}"));
            }
            Ok(i as u64 * 7 + 1)
        }
    }

    /// Committed `(index, outcome)` pairs in commit order.
    type Committed = Vec<(usize, Result<u64, TrialFailure>)>;

    fn run_resilient(
        threads: usize,
        n: usize,
        retry: RetryPolicy,
        panics: &[(usize, u32)],
        errors: &[(usize, u32)],
    ) -> (Committed, FaultStats) {
        let mut committed = Vec::new();
        let stats = TrialScheduler::new(threads).run_committed_resilient(
            n,
            retry,
            faulty_job(panics, errors),
            |i, v| committed.push((i, v)),
        );
        (committed, stats)
    }

    #[test]
    fn resilient_retries_panics_and_typed_errors_to_success() {
        for threads in [1, 4] {
            let (committed, stats) = run_resilient(
                threads,
                8,
                RetryPolicy::default(),
                &[(2, 0)],
                &[(5, 0), (5, 1)],
            );
            assert_eq!(committed.len(), 8, "threads={threads}");
            for (i, v) in &committed {
                assert_eq!(v.as_ref().unwrap(), &(*i as u64 * 7 + 1));
            }
            assert_eq!(stats.panics, 1, "threads={threads}");
            assert_eq!(stats.workers_respawned, 1);
            assert_eq!(stats.typed_failures, 2);
            assert_eq!(stats.retries, 3);
            assert_eq!(stats.failed_trials, 0);
            // 250 (trial 2 attempt 0) + 250 + 500 (trial 5).
            assert_eq!(stats.backoff_units, 1000);
        }
    }

    #[test]
    fn resilient_exhausted_budget_degrades_gracefully() {
        // Trial 3 panics on every attempt; the run still completes and
        // commits a TrialFailure in order.
        for threads in [1, 3] {
            let panics: Vec<(usize, u32)> = (0..3).map(|a| (3usize, a)).collect();
            let (committed, stats) =
                run_resilient(threads, 6, RetryPolicy::default(), &panics, &[]);
            assert_eq!(committed.len(), 6, "threads={threads}");
            assert_eq!(
                committed.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                (0..6).collect::<Vec<_>>()
            );
            let failure = committed[3].1.as_ref().unwrap_err();
            assert_eq!(failure.index, 3);
            assert_eq!(failure.attempts, 3);
            assert!(matches!(&failure.kind, FailureKind::Panic(m) if m.contains("trial 3")));
            assert_eq!(stats.failed_trials, 1);
            assert_eq!(stats.panics, 3);
            assert_eq!(stats.workers_respawned, 3);
        }
    }

    #[test]
    fn resilient_stats_and_commits_are_thread_count_invariant() {
        let panics = [(1usize, 0u32), (6, 0), (6, 1)];
        let errors = [(4usize, 0u32)];
        let (reference, ref_stats) = run_resilient(1, 12, RetryPolicy::default(), &panics, &errors);
        for threads in [2, 4, 8] {
            let (committed, stats) =
                run_resilient(threads, 12, RetryPolicy::default(), &panics, &errors);
            assert_eq!(committed, reference, "threads={threads}");
            assert_eq!(stats, ref_stats, "threads={threads}");
        }
        assert!(!ref_stats.is_clean());
    }

    #[test]
    fn resilient_without_faults_matches_run_committed() {
        for threads in [1, 4] {
            let mut plain = Vec::new();
            TrialScheduler::new(threads).run_committed(9, |i| i * 2, |i, v| plain.push((i, v)));
            let mut resilient = Vec::new();
            let stats = TrialScheduler::new(threads).run_committed_resilient(
                9,
                RetryPolicy::none(),
                |i, _attempt| Ok::<usize, String>(i * 2),
                |i, v| resilient.push((i, v.unwrap())),
            );
            assert_eq!(plain, resilient, "threads={threads}");
            assert!(stats.is_clean());
        }
    }

    #[test]
    fn fault_stats_count_work_and_merge() {
        let (_, stats) = run_resilient(1, 5, RetryPolicy::none(), &[], &[]);
        assert_eq!(stats.trials_computed, 5);
        assert!(stats.is_clean(), "work accounting is not a fault");
        let (_, par) = run_resilient(4, 5, RetryPolicy::none(), &[], &[]);
        assert_eq!(par.trials_computed, 5, "thread-count invariant");
        let mut total = FaultStats::default();
        total.merge(&stats);
        total.merge(&par);
        assert_eq!(total.trials_computed, 10);
        assert!(total.is_clean());
    }

    #[test]
    fn retry_policy_backoff_is_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base: 100,
            backoff_cap: 350,
        };
        assert_eq!(p.backoff_for(0), 100);
        assert_eq!(p.backoff_for(1), 200);
        assert_eq!(p.backoff_for(2), 350);
        assert_eq!(p.backoff_for(63), 350);
        assert_eq!(p.backoff_for(64), 350, "shift overflow must hit the cap");
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
