//! Hot-path throughput harness: simulated references per second.
//!
//! Runs a fixed mpeg_play-style trial matrix (the Figure 2 cache
//! ladder's end points plus the R3000 TLB) over a 1/2/4/8 worker
//! thread ladder, measuring wall time and simulated references per
//! second — the number every hot-path optimisation must move. The
//! cache configs measure the user task only, the paper's canonical
//! Tapeworm deployment (§3.2, Table 6's user rows): unsimulated
//! components carry no traps, so their references are hits by
//! construction and exercise the resident-run fast path, exactly the
//! "hits are free" asymmetry Table 5 is about. Results are
//! written machine-readably (and atomically: temp file + rename) to
//! `results/BENCH.json` so future PRs have a recorded trajectory to
//! beat, and the per-config observability metrics go to
//! `results/METRICS.json` (`tapeworm-metrics-v1`). Each per-config
//! entry also carries `ns_per_miss` (wall time over serviced trap
//! entries) so per-miss-cost regressions stay visible even when the
//! hit-dominated `refs_per_sec` hides them. On a single-cpu host the
//! multi-thread `runs`/`scaling` entries are tagged
//! `"informational": true` — they time-slice one core and are not
//! scaling data. Each `runs` entry records how many of its trials
//! built their quantum schedule on a helper thread (`helper_trials` of
//! `trials_run`), a host fact kept out of every digest.
//!
//! Self-contained: no criterion, no external dependencies. The JSON is
//! emitted by hand.
//!
//! Modes:
//! * default — the full matrix (tens of seconds; used by `run_all.sh`).
//! * `--smoke` — a tiny matrix (~seconds; used by `ci.sh` to prove the
//!   harness and the JSON stay well-formed).
//! * `--gate` — a mid-sized matrix (a few seconds) whose wall times are
//!   long enough to compare against `results/BENCH_baseline.json` in
//!   the ci.sh regression gate without timer noise dominating. Also
//!   runs the large-address-space smoke sweep so `sparse_rss_bytes`
//!   (peak host RSS) lands in BENCH.json.
//! * `--large-mem` — the memory-footprint gate: one sweep over
//!   64 GiB of *simulated* physical memory, then fail (exit 1) if the
//!   process's peak RSS exceeded the checked-in ceiling. Only passes
//!   because the sparse backing commits chunks on demand; skips
//!   honestly (exit 0, loud annotation) when the host exposes no
//!   `VmHWM`.
//! * `--plan` — the sweep-planner gate: a 24-cell two-workload cache
//!   ladder run both ways (full engine vs Kessler-pruned planner).
//!   Fails (exit 1) unless the planner trap-simulates at most half the
//!   full sweep's trials AND every interpolated cell's miss estimate is
//!   within its own declared error bound of the full sweep's measured
//!   mean. Prints both wall times and the max interpolation error.
//!
//! Environment: `TW_SEED` (base seed), `TW_THREADS` (the "N" of the
//! thread ladder), `TW_BASELINE` (override the recorded pre-change
//! baseline, refs/sec), `TW_RSS_CEILING` (override the footprint
//! ceiling, bytes).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use tapeworm_bench::{
    base_seed, large_mem_smoke_config, max_rss_bytes, threads, LARGE_MEM_SMOKE_BYTES,
};
use tapeworm_core::{CacheConfig, Indexing, TlbSimConfig};
use tapeworm_obs::{escape, write_atomic, CounterId, MetricsReport};
use tapeworm_sim::{
    run_sweep, run_sweep_planned, schedule_helper_trials, ComponentSet, PlannedCell, PlannerConfig,
    SweepOptions, SystemConfig,
};
use tapeworm_workload::Workload;

/// Single-thread references/second measured on this machine *before*
/// the resident-run fast path landed: this same harness and matrix
/// with the fast path off (per-chunk dispatch for every reference), median
/// of three interleaved runs. Override with `TW_BASELINE` when
/// re-baselining on different hardware.
const PRE_CHANGE_BASELINE_REFS_PER_SEC: f64 = 203_000_000.0;

/// Peak-host-RSS ceiling for the `--large-mem` footprint gate, bytes.
/// Deliberately checked in: the gate's whole point is that 64 GiB of
/// simulated memory must fit in a fraction of a gigabyte of host
/// memory on sparse backing. Override with `TW_RSS_CEILING` when a
/// host's baseline RSS (runtime, allocator arenas) legitimately
/// differs.
const LARGE_MEM_RSS_CEILING_BYTES: u64 = 512 << 20;

struct Run {
    threads: usize,
    wall_secs: f64,
    instructions: u64,
    refs_per_sec: f64,
    /// Trials of this step (all repetitions) run, and how many of them
    /// built their quantum schedule on a helper thread. A host fact:
    /// it depends on the spare cores, never on the simulation.
    trials_run: usize,
    helper_trials: u64,
}

struct ConfigCell {
    name: String,
    wall_secs: f64,
    instructions: u64,
    refs_per_sec: f64,
    /// Sparse-backing chunks privately materialized by the trial.
    chunks_allocated: u64,
    /// Demand-materialization faults over the trial's lifetime.
    chunk_faults: u64,
    /// Serviced misses across the cell's trials: ECC trap entries for
    /// the cache configs, software-tcache refills for the TLB config
    /// (whose misses vector through the translation path, not the
    /// valid-bit trap). The per-miss denominator.
    trap_entries: u64,
    /// Wall nanoseconds per serviced miss — the number miss-service
    /// work (batched and set-state burst service) moves, separated
    /// from the hit-path throughput that `refs_per_sec` folds in. 0.0
    /// when no misses.
    ns_per_miss: f64,
    /// Deterministic work counters of the cell's trials: resident-run
    /// batches and their words, burst flushes and clear→set trap
    /// transitions. They name which engine path did the work, so a
    /// change that moves work between paths shows even when
    /// `instructions` and `trap_entries` stay put.
    fast_runs: u64,
    fast_words: u64,
    miss_batch_flushes: u64,
    traps_set: u64,
}

/// Runs one sweep over [`LARGE_MEM_SMOKE_BYTES`] of simulated physical
/// memory and reports its allocation statistics plus this process's
/// peak RSS. Returns the peak RSS, or `None` when the host exposes no
/// high-water mark.
fn large_mem_smoke(seed: tapeworm_stats::SeedSeq) -> Option<u64> {
    let cfg = large_mem_smoke_config();
    let start = Instant::now();
    let out = run_sweep(std::slice::from_ref(&cfg), 1, seed, 1);
    let wall = start.elapsed().as_secs_f64();
    let counters = &out[0].metrics().counters;
    println!(
        "  large-mem smoke: {} GiB simulated  wall={wall:6.3}s  chunks={} deduped={} faults={}",
        LARGE_MEM_SMOKE_BYTES >> 30,
        counters.get(CounterId::SparseChunksAllocated),
        counters.get(CounterId::ZeroChunksDeduped),
        counters.get(CounterId::ChunkFaults),
    );
    max_rss_bytes()
}

/// The `--large-mem` mode: the ci.sh memory-footprint gate. Exits 1
/// when peak RSS breached the ceiling, 0 on pass or honest skip.
fn run_large_mem_gate() -> ! {
    let ceiling = std::env::var("TW_RSS_CEILING")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(LARGE_MEM_RSS_CEILING_BYTES);
    println!(
        "perf_throughput --large-mem: {} GiB simulated physical memory, RSS ceiling {} MiB",
        LARGE_MEM_SMOKE_BYTES >> 30,
        ceiling >> 20
    );
    match large_mem_smoke(base_seed()) {
        None => {
            println!(
                "large-mem gate SKIPPED: no VmHWM in /proc/self/status on this host; \
                 footprint not measured (not a pass)"
            );
            std::process::exit(0);
        }
        Some(rss) if rss > ceiling => {
            eprintln!(
                "large-mem gate FAIL: peak RSS {rss} bytes ({} MiB) exceeds ceiling {ceiling} bytes ({} MiB)",
                rss >> 20,
                ceiling >> 20
            );
            std::process::exit(1);
        }
        Some(rss) => {
            println!(
                "large-mem gate ok: peak RSS {rss} bytes ({} MiB) under ceiling {} MiB",
                rss >> 20,
                ceiling >> 20
            );
            std::process::exit(0);
        }
    }
}

/// The `--plan` gate's sweep: two 12-point cache ladders (24 cells),
/// one per workload family so the planner sees two interpolation
/// groups. The mpeg_play ladder is physically indexed (page-allocation
/// variance — the planner must keep the Kessler-uncertain band), the
/// espresso ladder virtually indexed and set-sampled (model-confident
/// interiors interpolate, sampling spread exercises CI early stops).
fn plan_matrix() -> Vec<SystemConfig> {
    const LADDER_KB: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
    let dm = |kb: u64| CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
    let mut configs = Vec::with_capacity(2 * LADDER_KB.len());
    for kb in LADDER_KB {
        configs.push(
            SystemConfig::cache(Workload::MpegPlay, dm(kb))
                .with_components(ComponentSet::user_only())
                .with_scale(20_000),
        );
    }
    for kb in LADDER_KB {
        configs.push(
            SystemConfig::cache(Workload::Espresso, dm(kb).with_indexing(Indexing::Virtual))
                .with_components(ComponentSet::user_only())
                .with_scale(20_000)
                .with_sampling(8),
        );
    }
    configs
}

/// The `--plan` mode: the ci.sh sweep-planner gate. Exits 1 when the
/// planner saves fewer than half the trials or any interpolated cell
/// breaks its declared bound; exits 0 on pass.
fn run_plan_gate() -> ! {
    let trials = 4usize;
    let configs = plan_matrix();
    let seed = base_seed();
    let options = SweepOptions::default().with_threads(1);
    println!(
        "perf_throughput --plan: {} cells x {trials} trials, Kessler-pruned planner vs full sweep",
        configs.len()
    );

    let start = Instant::now();
    let full = run_sweep_planned(&configs, trials, seed, &options, &PlannerConfig::full());
    let full_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let pruned = run_sweep_planned(&configs, trials, seed, &options, &PlannerConfig::pruned());
    let pruned_wall = start.elapsed().as_secs_f64();

    let full_trials = (configs.len() * trials) as u64;
    let pruned_trials = full_trials - pruned.trials_saved();
    let mut max_error = 0.0f64;
    let mut max_declared_bound = 0.0f64;
    let mut violations = 0u64;
    for (c, cell) in pruned.cells().iter().enumerate() {
        let PlannedCell::Interpolated(estimate) = cell else {
            continue;
        };
        let PlannedCell::Simulated { summary, .. } = &full.cells()[c] else {
            unreachable!("full mode simulates every cell");
        };
        let error = (estimate.misses - summary.misses().mean()).abs();
        max_error = max_error.max(error);
        max_declared_bound = max_declared_bound.max(estimate.miss_bound);
        if error > estimate.miss_bound {
            violations += 1;
            eprintln!(
                "  cell {c}: interpolated {:.3} vs measured {:.3} — error {error:.3} \
                 exceeds declared bound {:.3}",
                estimate.misses,
                summary.misses().mean(),
                estimate.miss_bound
            );
        }
    }

    println!("  full:   wall={full_wall:8.3}s  trap-simulated trials={full_trials}");
    println!(
        "  pruned: wall={pruned_wall:8.3}s  trap-simulated trials={pruned_trials}  \
         cells_simulated={} cells_interpolated={} trials_saved={} ci_early_stops={}",
        pruned.cells_simulated(),
        pruned.cells_interpolated(),
        pruned.trials_saved(),
        pruned.ci_early_stops(),
    );
    println!(
        "  max interpolation error {max_error:.3} misses (largest declared bound \
         {max_declared_bound:.3})"
    );
    if violations > 0 {
        eprintln!("plan gate FAIL: {violations} interpolated cell(s) broke their declared bound");
        std::process::exit(1);
    }
    if pruned_trials * 2 > full_trials {
        eprintln!(
            "plan gate FAIL: planner ran {pruned_trials} of {full_trials} trials — \
             less than the required 2x saving"
        );
        std::process::exit(1);
    }
    println!(
        "plan gate ok: {full_trials} -> {pruned_trials} trap-simulated trials \
         ({:.1}x fewer), every estimate within its declared bound",
        full_trials as f64 / pruned_trials as f64
    );
    std::process::exit(0);
}

fn matrix(scale: u64) -> Vec<(String, SystemConfig)> {
    let dm = |kb: u64| CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
    // User-task measurement for the cache ladder: the kernel and the
    // servers (55% of mpeg_play's references) run trap-free, as on the
    // paper's machine, so the harness rewards making hits actually
    // free instead of charging every reference the per-chunk tax.
    vec![
        (
            "cache-4k".to_string(),
            SystemConfig::cache(Workload::MpegPlay, dm(4))
                .with_components(ComponentSet::user_only())
                .with_scale(scale),
        ),
        (
            "cache-64k".to_string(),
            SystemConfig::cache(Workload::MpegPlay, dm(64))
                .with_components(ComponentSet::user_only())
                .with_scale(scale),
        ),
        (
            "tlb-r3000".to_string(),
            SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(scale),
        ),
    ]
}

fn main() {
    if std::env::args().any(|a| a == "--large-mem") {
        run_large_mem_gate();
    }
    if std::env::args().any(|a| a == "--plan") {
        run_plan_gate();
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate = std::env::args().any(|a| a == "--gate");
    let (scale, trials) = if smoke {
        (20_000, 1)
    } else if gate {
        (200, 3)
    } else {
        (100, 3)
    };
    // Each measurement is repeated and the *minimum* wall time kept —
    // the standard estimator for a noisy shared host, since external
    // interference only ever adds time. Smoke mode runs once; it gates
    // JSON well-formedness, not numbers.
    let reps = if smoke { 1 } else { 3 };
    let mode = if smoke {
        "smoke"
    } else if gate {
        "gate"
    } else {
        "full"
    };
    let baseline = std::env::var("TW_BASELINE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(PRE_CHANGE_BASELINE_REFS_PER_SEC);

    let configs = matrix(scale);
    let cfgs: Vec<SystemConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    let seed = base_seed();

    let mut ladder = vec![1usize, 2, 4, 8];
    let n = threads();
    if !ladder.contains(&n) {
        ladder.push(n);
    }
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "perf_throughput: {} configs x {} trials, scale {} ({})",
        configs.len(),
        trials,
        scale,
        mode
    );

    // Per-config breakdown (single-threaded) so regressions are
    // attributable: the cache ladder and the TLB stress very different
    // paths (line misses vs page-trap handling).
    let mut per_config = Vec::new();
    let mut metrics_report = MetricsReport::new("perf_throughput", mode);
    for (name, cfg) in &configs {
        let mut wall = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            out = run_sweep(std::slice::from_ref(cfg), trials, seed, 1);
            wall = wall.min(start.elapsed().as_secs_f64());
        }
        let instructions: u64 = out
            .iter()
            .flat_map(|cell| cell.results())
            .map(|r| r.instructions)
            .sum();
        let refs_per_sec = instructions as f64 / wall;
        let counters = &out[0].metrics().counters;
        let chunks_allocated = counters.get(CounterId::SparseChunksAllocated);
        let chunk_faults = counters.get(CounterId::ChunkFaults);
        let mut trap_entries = counters.get(CounterId::TrapEntries);
        if trap_entries == 0 {
            trap_entries = counters.get(CounterId::TcacheMisses);
        }
        let ns_per_miss = if trap_entries > 0 {
            wall * 1e9 / trap_entries as f64
        } else {
            0.0
        };
        println!(
            "  config {name:<12} wall={wall:8.3}s  refs/sec={refs_per_sec:12.0}  \
             ns/miss={ns_per_miss:8.1}  chunks={chunks_allocated} faults={chunk_faults}"
        );
        metrics_report.push(name, trials as u64, out[0].metrics().clone());
        per_config.push(ConfigCell {
            name: name.clone(),
            wall_secs: wall,
            instructions,
            refs_per_sec,
            chunks_allocated,
            chunk_faults,
            trap_entries,
            ns_per_miss,
            fast_runs: counters.get(CounterId::FastRuns),
            fast_words: counters.get(CounterId::FastWords),
            miss_batch_flushes: counters.get(CounterId::MissBatchFlushes),
            traps_set: counters.get(CounterId::TrapsSet),
        });
    }

    let mut runs = Vec::new();
    for &t in &ladder {
        let mut wall = f64::INFINITY;
        let mut out = Vec::new();
        let helper_before = schedule_helper_trials();
        for _ in 0..reps {
            let start = Instant::now();
            out = run_sweep(&cfgs, trials, seed, t);
            wall = wall.min(start.elapsed().as_secs_f64());
        }
        let helper_trials = schedule_helper_trials() - helper_before;
        let trials_run = reps * cfgs.len() * trials;
        let instructions: u64 = out
            .iter()
            .flat_map(|cell| cell.results())
            .map(|r| r.instructions)
            .sum();
        let refs_per_sec = instructions as f64 / wall;
        println!(
            "  threads={t:2}  wall={wall:8.3}s  refs={instructions:>12}  refs/sec={refs_per_sec:12.0}  \
             helper={helper_trials}/{trials_run}"
        );
        runs.push(Run {
            threads: t,
            wall_secs: wall,
            instructions,
            refs_per_sec,
            trials_run,
            helper_trials,
        });
    }

    // Footprint record: gate mode runs the large-address-space smoke
    // so BENCH.json carries the peak host RSS of a 64 GiB simulation
    // alongside the throughput numbers. Smoke/full record the plain
    // process high-water mark so the key is always present. VmHWM is
    // process-wide and monotonic, so the number is an upper bound that
    // includes the matrix runs above — the ceiling is enforced by the
    // standalone `--large-mem` mode, which runs in a clean process.
    let large_mem_bytes = if gate {
        large_mem_smoke(seed);
        LARGE_MEM_SMOKE_BYTES
    } else {
        0
    };
    let sparse_rss_bytes = max_rss_bytes().unwrap_or(0);

    let single = runs
        .iter()
        .find(|r| r.threads == 1)
        .expect("thread ladder includes 1");
    let speedup = single.refs_per_sec / baseline;
    println!(
        "single-thread: {:.0} refs/sec vs pre-change baseline {:.0} ({speedup:.2}x)",
        single.refs_per_sec, baseline
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"tapeworm-perf-throughput-v1\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"workload\": \"mpeg_play\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let names: Vec<String> = configs
        .iter()
        .map(|(n, _)| format!("\"{}\"", escape(n)))
        .collect();
    let _ = writeln!(json, "  \"configs\": [{}],", names.join(", "));
    let _ = writeln!(json, "  \"baseline_refs_per_sec\": {baseline:.0},");
    let _ = writeln!(json, "  \"per_config\": [");
    for (i, c) in per_config.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"config\": \"{}\", \"wall_secs\": {:.6}, \"instructions\": {}, \"refs_per_sec\": {:.0}, \"trap_entries\": {}, \"ns_per_miss\": {:.2}, \"sparse_chunks_allocated\": {}, \"chunk_faults\": {}, \"fast_runs\": {}, \"fast_words\": {}, \"miss_batch_flushes\": {}, \"traps_set\": {}}}{}",
            escape(&c.name),
            c.wall_secs,
            c.instructions,
            c.refs_per_sec,
            c.trap_entries,
            c.ns_per_miss,
            c.chunks_allocated,
            c.chunk_faults,
            c.fast_runs,
            c.fast_words,
            c.miss_batch_flushes,
            c.traps_set,
            if i + 1 == per_config.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    // On a single-cpu host every run beyond one thread time-slices a
    // single core; tag those entries `"informational": true` so
    // downstream consumers (and the ci.sh schema check) can separate
    // real scaling data from scheduling noise instead of guessing from
    // `host_cpus` at a distance.
    let informational = |threads: usize| {
        if host_cpus == 1 && threads > 1 {
            ", \"informational\": true"
        } else {
            ""
        }
    };
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"wall_secs\": {:.6}, \"instructions\": {}, \"refs_per_sec\": {:.0}, \"trials_run\": {}, \"helper_trials\": {}{}}}{}",
            r.threads,
            r.wall_secs,
            r.instructions,
            r.refs_per_sec,
            r.trials_run,
            r.helper_trials,
            informational(r.threads),
            if i + 1 == runs.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    // The thread-scaling section: per-ladder-step speedup over the
    // single-thread run, plus the flat two-thread numbers the ci.sh
    // scaling gate reads. host_cpus records the physical budget the
    // numbers were taken under — speedup beyond min(threads, host_cpus)
    // is impossible, so gates must read both. A step's trials may also
    // build their quantum schedule on a spare core (`helper_trials` in
    // `runs`), so the 1-worker step can use two cores while the
    // 2-worker step, with no core to spare, runs inline: the ratio then
    // compares different things (DESIGN.md §18).
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    // Mirror the ci.sh scaling gate's honest SKIP: on a single-cpu
    // host the multi-thread runs time-slice one core, so the ladder
    // and its sub-1.0 "speedups" are scheduling noise, not scaling
    // data. Annotate rather than omit so downstream tooling can tell
    // "not measured meaningfully" from "regressed".
    let scaling_status = if host_cpus > 1 {
        "ok".to_string()
    } else {
        format!(
            "SKIPPED: host has {host_cpus} cpu(s); runs/scaling beyond 1 thread \
             are informational noise, not scaling data"
        )
    };
    let _ = writeln!(
        json,
        "  \"scaling_status\": \"{}\",",
        escape(&scaling_status)
    );
    let _ = writeln!(json, "  \"scaling\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"speedup_vs_single\": {:.3}{}}}{}",
            r.threads,
            r.refs_per_sec / single.refs_per_sec,
            informational(r.threads),
            if i + 1 == runs.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let two = runs.iter().find(|r| r.threads == 2);
    if let Some(two) = two {
        let _ = writeln!(
            json,
            "  \"two_thread_refs_per_sec\": {:.0},",
            two.refs_per_sec
        );
        let _ = writeln!(
            json,
            "  \"two_thread_speedup\": {:.3},",
            two.refs_per_sec / single.refs_per_sec
        );
    }
    // 0 when the host exposes no VmHWM — downstream gates must treat
    // that as "not measured", never as "tiny footprint".
    let _ = writeln!(json, "  \"large_mem_bytes\": {large_mem_bytes},");
    let _ = writeln!(json, "  \"sparse_rss_bytes\": {sparse_rss_bytes},");
    let _ = writeln!(
        json,
        "  \"single_thread_refs_per_sec\": {:.0},",
        single.refs_per_sec
    );
    let _ = writeln!(json, "  \"speedup_vs_baseline\": {speedup:.3}");
    let _ = writeln!(json, "}}");

    write_atomic(Path::new("results/BENCH.json"), json.as_bytes())
        .expect("results/BENCH.json must be writable");
    println!("wrote results/BENCH.json");
    metrics_report
        .write(Path::new("results/METRICS.json"))
        .expect("results/METRICS.json must be writable");
    println!("wrote results/METRICS.json");
}
