#!/usr/bin/env bash
# Offline CI gate. No network, no registry: the workspace has zero
# external dependencies, so this must pass on a bare toolchain.
#
#   1. Formatting: `cargo fmt --check` over the whole workspace.
#   2. Release build of the whole workspace.
#   3. Full test suite: unit, doc, the per-crate suites under
#      crates/*/tests/, and the 13 cross-crate suites in tests/
#      (determinism, exact_hardware, failure_injection, fast_path,
#      full_system, invariants, miss_batch, miss_schedule,
#      paper_claims, planner, server_e2e, sparse_mem,
#      trace_differential).
#   3b. The golden and determinism suites (tests/determinism.rs,
#      tests/full_system.rs) again under `taskset -c 0`: with one CPU
#      no trial has a spare core, so the quantum schedule is built
#      inline (DESIGN.md §18) and must give the same goldens. SKIPs
#      explicitly where `taskset` is absent.
#   4. Warnings are errors across the entire workspace, all targets.
#   4b. Clippy is a gate: `cargo clippy --workspace --all-targets` with
#      warnings as errors. SKIPs explicitly where clippy is not
#      installed.
#   5. Gate run of the throughput harness: results/BENCH.json must
#      exist, carry the keys downstream tooling reads, and its
#      single-thread refs/sec must be within 15% of the checked-in
#      results/BENCH_baseline.json (slowdowns fail; speedups pass —
#      re-baseline deliberately by copying BENCH.json over the
#      baseline). The same 15% tolerance then applies to every
#      `per_config` entry individually, so a regression on one config
#      (say, the miss-heavy cache-4k) cannot hide behind a speedup on
#      another. Each `per_config` entry's deterministic work counters,
#      `instructions` and `trap_entries`, must then *equal* the
#      baseline's: a change in simulated work fails here even where
#      the time floor cannot see it.
#   6. Thread-scaling gate: on a multi-core host, two workers must be
#      at least 1.2x one worker. On a single core, speedup is
#      physically impossible and any floor would be theatre, so the
#      gate SKIPS with an explicit annotation instead of pretending.
#   7. results/METRICS.json (the tapeworm-metrics-v1 observability
#      export) must exist and carry every schema key, including the
#      burst-service counter miss_batch_flushes and the retired
#      victim_memo_hits slot (always 0; kept because the codecs index
#      counters by slot).
#   7c. Memory-footprint gate: a smoke sweep over 64 GiB of simulated
#      physical memory must complete with max RSS under the ceiling
#      checked into perf_throughput (--large-mem). Only possible because
#      physical state is demand-allocated; a materialized trap bitmap
#      at that size would be gigabytes. SKIPs honestly where
#      /proc/self/status has no VmHWM.
#   8. Sweep-service smoke: submit specs/ci_smoke.toml, drain it
#      through the subprocess worker backend, gate the digest against
#      the golden pin (also pinned in tests/server_e2e.rs and
#      crates/server/tests/server_e2e.rs), re-run for a fingerprint
#      cache hit with the identical digest, and validate the JSONL run
#      sink's metrics lines against the tapeworm-metrics-v1 schema.
#   9. Library crates read no environment: `env::var` must not appear
#      in the sources of core, mem, machine, os, sim, obs, stats, trace
#      or workload. TW_* knobs are resolved at the process edge (the
#      bench binaries, the server CLI, twbench) and passed down as
#      configuration.
#   9b. The workspace has no cargo features: no `[features]` table in
#      any workspace Cargo.toml and no `cfg(feature` under crates/,
#      src/ or tests/, so `cargo test --workspace` with no flags builds
#      and runs every line of Rust.
#   9c. One attempt loop: `backoff_for(` appears in no `.rs` file under
#      crates/, src/ or tests/ except crates/stats/src/trials.rs, whose
#      `attempt_trial` is the retry loop every trial runs through (the
#      scheduler, the planner's pruned pass, the subprocess backend).
#  10. Sweep-planner differential gate: specs/ci_planner.toml (pruned)
#      and specs/ci_planner_full.toml (the identical grid, planner off)
#      drained through the service. The pruned run must actually save
#      trials, every one of its trial records must appear verbatim in
#      the full twin's sink (simulated cells are ground truth, never
#      perturbed by pruning), its sink must tag estimates with
#      provenance (`estimated: true`, `model: kessler-v1`) and carry
#      the planner counters, and `TW_PLAN=0` (read by the server CLI)
#      must force the full engine. Then `perf_throughput --plan` gates the ≥2x trial
#      saving and the declared interpolation error bound on a 24-cell
#      sweep.
#  11. Repository benchmark build gate: twbench (its own package, built
#      against the simulator crates by path) must pass its self-tests
#      and finish 1-second traced `hit-heavy` and `miss-heavy` smoke
#      runs whose result lines report `"correct": true` and
#      `"failed": 0`. An engine API
#      change that breaks the benchmark fails here. No timing is gated.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== tier 1: formatting ==="
cargo fmt --all --check

echo "=== tier 1: release build ==="
cargo build --release --workspace

echo "=== tier 1: test suite (offline) ==="
cargo test -q --workspace

echo "=== tier 1: golden suites on one core (inline quantum schedule) ==="
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test -q -p tapeworm --test determinism --test full_system
else
  echo "ci.sh: one-core golden run SKIPPED: taskset is not installed, so the no-spare-core path is not exercised here"
fi

echo "=== tier 2: warnings-as-errors (workspace, all targets) ==="
RUSTFLAGS="-D warnings" cargo check -q --workspace --all-targets

echo "=== tier 2: clippy (workspace, all targets, warnings are errors) ==="
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy -q --workspace --all-targets -- -D warnings
else
  echo "ci.sh: clippy gate SKIPPED: cargo clippy is not installed on this toolchain"
fi

echo "=== tier 2: perf_throughput gate run ==="
./target/release/perf_throughput --gate
test -s results/BENCH.json || { echo "ci.sh: results/BENCH.json missing or empty" >&2; exit 1; }
for key in schema per_config runs host_cpus scaling_status scaling two_thread_refs_per_sec \
           two_thread_speedup single_thread_refs_per_sec speedup_vs_baseline \
           large_mem_bytes sparse_rss_bytes sparse_chunks_allocated chunk_faults \
           trap_entries ns_per_miss; do
  grep -q "\"$key\"" results/BENCH.json || {
    echo "ci.sh: results/BENCH.json lacks \"$key\"" >&2; exit 1;
  }
done
# Single-cpu honesty: when the harness declared the scaling ladder
# SKIPPED, every multi-thread runs/scaling entry must carry the
# "informational": true tag (and on a real multi-core host none may).
if grep -q '"scaling_status": "SKIPPED' results/BENCH.json; then
  grep -q '"informational": true' results/BENCH.json || {
    echo "ci.sh: scaling SKIPPED but no entry tagged \"informational\"" >&2; exit 1;
  }
else
  if grep -q '"informational": true' results/BENCH.json; then
    echo "ci.sh: multi-core host but entries tagged \"informational\"" >&2; exit 1;
  fi
fi

echo "=== tier 2: bench regression gate (15% tolerance) ==="
if [ -s results/BENCH_baseline.json ]; then
  current=$(grep -o '"single_thread_refs_per_sec": *[0-9.]*' results/BENCH.json | grep -o '[0-9.]*$')
  base=$(grep -o '"single_thread_refs_per_sec": *[0-9.]*' results/BENCH_baseline.json | grep -o '[0-9.]*$')
  awk -v c="$current" -v b="$base" 'BEGIN {
    if (c == "" || b == "" || b + 0 == 0) {
      print "ci.sh: could not parse single_thread_refs_per_sec" > "/dev/stderr"; exit 1
    }
    delta = 100 * (c / b - 1)
    if (c < b * 0.85) {
      printf "ci.sh: bench regression: %.0f refs/sec is %.1f%% below baseline %.0f (tolerance 15%%)\n", c, delta, b > "/dev/stderr"
      exit 1
    }
    printf "ci.sh: bench gate ok: %.0f refs/sec vs baseline %.0f (%+.1f%%)\n", c, b, delta
  }'
else
  echo "ci.sh: no results/BENCH_baseline.json — skipping regression compare" >&2
fi

echo "=== tier 2: per-config bench regression gate (15% tolerance) ==="
if [ -s results/BENCH_baseline.json ]; then
  awk '
    FNR == 1 { file++ }
    /"config":/ {
      match($0, /"config": *"[^"]*"/)
      name = substr($0, RSTART + 11, RLENGTH - 12)
      match($0, /"refs_per_sec": *[0-9.]*/)
      rps = substr($0, RSTART + 16, RLENGTH - 16) + 0
      if (file == 1) { base[name] = rps } else { cur[name] = rps }
    }
    END {
      status = 0
      for (name in base) {
        if (!(name in cur)) {
          printf "ci.sh: per-config gate: baseline config %s missing from BENCH.json\n", \
            name > "/dev/stderr"
          status = 1
          continue
        }
        delta = 100 * (cur[name] / base[name] - 1)
        if (cur[name] < base[name] * 0.85) {
          printf "ci.sh: per-config regression: %s %.0f refs/sec is %.1f%% below baseline %.0f (tolerance 15%%)\n", \
            name, cur[name], delta, base[name] > "/dev/stderr"
          status = 1
        } else {
          printf "ci.sh: per-config gate ok: %-12s %.0f refs/sec vs baseline %.0f (%+.1f%%)\n", \
            name, cur[name], base[name], delta
        }
      }
      exit status
    }' results/BENCH_baseline.json results/BENCH.json
else
  echo "ci.sh: no results/BENCH_baseline.json — skipping per-config compare" >&2
fi

echo "=== tier 2: per-config work-counter gate (exact) ==="
if [ -s results/BENCH_baseline.json ]; then
  awk '
    FNR == 1 { file++ }
    /"config":/ {
      match($0, /"config": *"[^"]*"/)
      name = substr($0, RSTART + 11, RLENGTH - 12)
      match($0, /"instructions": *[0-9]*/)
      ins = substr($0, RSTART + 16, RLENGTH - 16)
      match($0, /"trap_entries": *[0-9]*/)
      trp = substr($0, RSTART + 16, RLENGTH - 16)
      if (file == 1) { bi[name] = ins; bt[name] = trp } else { ci[name] = ins; ct[name] = trp }
    }
    END {
      status = 0
      for (name in bi) {
        if (bi[name] == "" || bt[name] == "" || !(name in ci)) {
          printf "ci.sh: work-counter gate: %s lacks instructions/trap_entries\n", \
            name > "/dev/stderr"
          status = 1
        } else if (ci[name] != bi[name] || ct[name] != bt[name]) {
          printf "ci.sh: work-counter drift: %s instructions %s trap_entries %s, baseline %s / %s\n", \
            name, ci[name], ct[name], bi[name], bt[name] > "/dev/stderr"
          status = 1
        } else {
          printf "ci.sh: work-counter gate ok: %-12s %s instructions, %s trap entries\n", \
            name, ci[name], ct[name]
        }
      }
      exit status
    }' results/BENCH_baseline.json results/BENCH.json
else
  echo "ci.sh: no results/BENCH_baseline.json — skipping work-counter compare" >&2
fi

echo "=== tier 2: thread-scaling gate ==="
cpus=$(grep -o '"host_cpus": *[0-9]*' results/BENCH.json | grep -o '[0-9]*$')
two=$(grep -o '"two_thread_speedup": *[0-9.]*' results/BENCH.json | grep -o '[0-9.]*$')
awk -v cpus="$cpus" -v two="$two" 'BEGIN {
  if (cpus == "" || two == "") {
    print "ci.sh: could not parse host_cpus / two_thread_speedup" > "/dev/stderr"; exit 1
  }
  if (cpus + 0 < 2) {
    # A speedup floor on one core would gate on scheduler noise, not on
    # the engine. Skip honestly and loudly rather than asserting a
    # made-up number.
    printf "ci.sh: scaling gate SKIPPED: host has %d cpu(s); a 2-thread speedup floor is meaningless without a second core (measured %.3fx, informational only)\n", cpus, two
    exit 0
  }
  floor = 1.2
  if (two + 0 < floor) {
    printf "ci.sh: scaling regression: 2-thread speedup %.3fx below %.1fx floor (host_cpus=%d)\n", two, floor, cpus > "/dev/stderr"
    exit 1
  }
  printf "ci.sh: scaling gate ok: 2-thread speedup %.3fx (host_cpus=%d, floor %.1fx)\n", two, cpus, floor
}'

echo "=== tier 2: METRICS.json schema gate ==="
test -s results/METRICS.json || { echo "ci.sh: results/METRICS.json missing or empty" >&2; exit 1; }
for key in schema source mode per_config totals counters phases dilation slowdown trap_events \
           trap_entries traps_set traps_cleared tcache_hits tcache_misses page_walks \
           breakpoint_checks sched_quanta trial_retries trial_panics trials_failed \
           workers_respawned clock_ticks_dropped fast_runs fast_words \
           miss_batch_flushes victim_memo_hits \
           sched_replays sched_records sched_sig_misses \
           sparse_chunks_allocated zero_chunks_deduped chunk_faults \
           user kernel handler replacement recorded dropped; do
  grep -q "\"$key\"" results/METRICS.json || {
    echo "ci.sh: results/METRICS.json lacks \"$key\"" >&2; exit 1;
  }
done
grep -q '"schema": "tapeworm-metrics-v1"' results/METRICS.json || {
  echo "ci.sh: results/METRICS.json has wrong schema id" >&2; exit 1;
}

echo "=== tier 2: memory-footprint gate (64 GiB simulated, sparse backing) ==="
# The large-address-space smoke: 64 GiB of simulated physical memory
# must fit in the RSS ceiling checked into perf_throughput
# (LARGE_MEM_RSS_CEILING_BYTES, override with TW_RSS_CEILING). The
# binary prints PASS/FAIL/SKIP and exits nonzero on FAIL; SKIP (no
# VmHWM on this host) is an honest non-measurement, not a pass.
./target/release/perf_throughput --large-mem

echo "=== tier 2: chaos gate (fault-tolerant sweep engine) ==="
# Fixed fault seed, fixed scenario: injected panics, hangs, a simulated
# mid-run kill + resume and a failed checkpoint write must all converge
# on the fault-free digest. The golden value is pinned in
# tests/determinism.rs (CHAOS_GOLDEN_DIGEST); regenerate both together.
CHAOS_GOLDEN_DIGEST="0x76fee05ac899b1d3"
./target/release/chaos_sweep | tee results/chaos_sweep.txt
grep -q "digest: $CHAOS_GOLDEN_DIGEST" results/chaos_sweep.txt || {
  echo "ci.sh: chaos_sweep digest does not match golden $CHAOS_GOLDEN_DIGEST" >&2; exit 1;
}
test -s results/METRICS_chaos.json || {
  echo "ci.sh: results/METRICS_chaos.json missing or empty" >&2; exit 1;
}

echo "=== tier 2: sweep-service smoke (subprocess worker + fingerprint cache) ==="
# The service digest must be bit-identical across backends, thread
# counts and cached-vs-fresh serving. Golden value also pinned in
# tests/server_e2e.rs and crates/server/tests/server_e2e.rs
# (CI_SMOKE_GOLDEN_DIGEST); regenerate all three together via
# `./target/release/golden_digest`.
SERVICE_GOLDEN_DIGEST="0x279118467b9c2732"
rm -rf results/ci_queue
./target/release/tapeworm-server submit --queue results/ci_queue specs/ci_smoke.toml
./target/release/tapeworm-server run --queue results/ci_queue --backend subprocess \
  | tee results/server_smoke.txt
grep -q "from_cache=false" results/server_smoke.txt || {
  echo "ci.sh: first service run unexpectedly hit the cache" >&2; exit 1;
}
grep -q "digest=$SERVICE_GOLDEN_DIGEST" results/server_smoke.txt || {
  echo "ci.sh: service digest does not match golden $SERVICE_GOLDEN_DIGEST" >&2; exit 1;
}
# Identical spec again: served from the fingerprint cache, same digest.
./target/release/tapeworm-server once --queue results/ci_queue specs/ci_smoke.toml \
  | tee results/server_smoke_cached.txt
grep -q "from_cache=true" results/server_smoke_cached.txt || {
  echo "ci.sh: identical spec was not served from the fingerprint cache" >&2; exit 1;
}
grep -q "digest=$SERVICE_GOLDEN_DIGEST" results/server_smoke_cached.txt || {
  echo "ci.sh: cached service digest diverged from golden" >&2; exit 1;
}
# The JSONL run sink must carry the run schema, the checkpoint-codec
# trial records, and tapeworm-metrics-v1 metrics lines.
sink=results/ci_queue/jobs/000001/result.jsonl
test -s "$sink" || { echo "ci.sh: $sink missing or empty" >&2; exit 1; }
grep -q '"schema": "tapeworm-server-run-v1"' "$sink" || {
  echo "ci.sh: run sink lacks tapeworm-server-run-v1 header" >&2; exit 1;
}
grep -q '"record": "trial"' "$sink" || {
  echo "ci.sh: run sink lacks trial records" >&2; exit 1;
}
metrics_line=$(grep '"record": "metrics"' "$sink" | head -1)
for key in schema counters phases dilation slowdown trap_events recorded dropped \
           trap_entries miss_batch_flushes victim_memo_hits \
           sparse_chunks_allocated zero_chunks_deduped chunk_faults \
           user kernel handler replacement; do
  echo "$metrics_line" | grep -q "\"$key\"" || {
    echo "ci.sh: run-sink metrics line lacks \"$key\"" >&2; exit 1;
  }
done
echo "$metrics_line" | grep -q '"schema": "tapeworm-metrics-v1"' || {
  echo "ci.sh: run-sink metrics line has wrong schema id" >&2; exit 1;
}
grep -q "\"digest\": \"$SERVICE_GOLDEN_DIGEST\"" "$sink" || {
  echo "ci.sh: run-sink digest footer does not match golden" >&2; exit 1;
}

echo "=== tier 2: library crates read no environment ==="
# A knob read inside a library changes results without appearing in
# any config, spec or fingerprint; knobs belong to the binaries.
if grep -rn 'env::var' crates/{core,mem,machine,os,sim,obs,stats,trace,workload}/src; then
  echo "ci.sh: library crates read the environment (env::var above)" >&2; exit 1;
fi

echo "=== tier 2: no cargo features ==="
# Code behind a cargo feature is code the default build never
# compiles; the property suites once sat behind one, unbuilt.
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
  echo "ci.sh: workspace manifests declare features (above)" >&2; exit 1;
fi
if grep -rn 'cfg(feature' crates src tests; then
  echo "ci.sh: sources gate code behind a cargo feature (above)" >&2; exit 1;
fi

echo "=== tier 2: one attempt loop ==="
# Retry and backoff accounting lives in tapeworm_stats::trials; another
# caller of backoff_for is a hand-copied retry loop that can drift.
if grep -rn --include='*.rs' 'backoff_for(' crates src tests \
  | grep -v '^crates/stats/src/trials\.rs:'; then
  echo "ci.sh: backoff_for( outside crates/stats/src/trials.rs (above)" >&2; exit 1;
fi

echo "=== tier 2: sweep-planner differential gate ==="
# The pruned spec and its full twin share one queue (their fingerprints
# differ, so neither can alias the other in the cache): job 000001 is
# the full ground truth, job 000002 the planner run.
pqueue=results/ci_queue_planner
rm -rf "$pqueue"
./target/release/tapeworm-server once --queue "$pqueue" specs/ci_planner_full.toml \
  | tee results/server_planner_full.txt
./target/release/tapeworm-server once --queue "$pqueue" specs/ci_planner.toml \
  | tee results/server_planner.txt
grep -q "plan=full" results/server_planner_full.txt || {
  echo "ci.sh: full twin did not run with plan=full" >&2; exit 1;
}
grep -q "plan=pruned" results/server_planner.txt || {
  echo "ci.sh: planner spec did not run with plan=pruned" >&2; exit 1;
}
grep -q "from_cache=false" results/server_planner.txt || {
  echo "ci.sh: pruned run must never be served from the cache" >&2; exit 1;
}
grep -Eq "trials_saved=[1-9]" results/server_planner.txt || {
  echo "ci.sh: planner saved no trials on the 6-point ladder" >&2; exit 1;
}
grep -Eq "cells_interpolated=[1-9]" results/server_planner.txt || {
  echo "ci.sh: planner interpolated no cells on the 6-point ladder" >&2; exit 1;
}
fsink="$pqueue/jobs/000001/result.jsonl"
psink="$pqueue/jobs/000002/result.jsonl"
test -s "$fsink" && test -s "$psink" || {
  echo "ci.sh: planner gate sinks missing" >&2; exit 1;
}
# Honest provenance in the pruned sink: interpolated cells are tagged
# estimates with their model named, simulated metrics carry the
# opposite tag, and the planner record reports all four counters.
for needle in '"record": "cell"' '"provenance": "interpolated"' '"estimated": true' \
              '"model": "kessler-v1"' '"provenance": "simulated"' '"estimated": false' \
              '"record": "planner"' '"plan": "pruned"' '"cells_simulated"' \
              '"cells_interpolated"' '"trials_saved"' '"ci_early_stops"' '"miss_bound"'; do
  grep -qF "$needle" "$psink" || {
    echo "ci.sh: pruned run sink lacks $needle" >&2; exit 1;
  }
done
# Every trap-simulated trial record of the pruned run must appear
# verbatim (byte-identical line) in the full twin's sink, and there
# must be strictly fewer of them: pruning means fewer trials, never
# different ones.
grep '"record": "trial"' "$fsink" > results/planner_trials_full.txt
grep '"record": "trial"' "$psink" > results/planner_trials_pruned.txt
if grep -Fxvf results/planner_trials_full.txt results/planner_trials_pruned.txt \
    > results/planner_trials_foreign.txt; then
  echo "ci.sh: pruned sink contains trial records absent from the full sweep:" >&2
  cat results/planner_trials_foreign.txt >&2
  exit 1
fi
full_n=$(wc -l < results/planner_trials_full.txt)
pruned_n=$(wc -l < results/planner_trials_pruned.txt)
if [ "$pruned_n" -ge "$full_n" ] || [ "$pruned_n" -eq 0 ]; then
  echo "ci.sh: planner gate: expected 0 < pruned trials < full trials, got $pruned_n vs $full_n" >&2
  exit 1
fi
echo "ci.sh: planner simulated $pruned_n of $full_n trials, all verbatim-identical to the full sweep"
# The kill switch: TW_PLAN=0 must force the pruned spec down the full
# path — and, being keyed on the effective mode, hit the full twin's
# cache entry with the identical digest.
TW_PLAN=0 ./target/release/tapeworm-server once --queue "$pqueue" specs/ci_planner.toml \
  | tee results/server_planner_killswitch.txt
grep -q "plan=full" results/server_planner_killswitch.txt || {
  echo "ci.sh: TW_PLAN=0 did not force the full engine" >&2; exit 1;
}
grep -q "from_cache=true" results/server_planner_killswitch.txt || {
  echo "ci.sh: TW_PLAN=0 run should hit the full twin's cache entry" >&2; exit 1;
}
full_digest=$(grep -o 'digest=0x[0-9a-f]*' results/server_planner_full.txt | head -1)
grep -q "$full_digest" results/server_planner_killswitch.txt || {
  echo "ci.sh: TW_PLAN=0 digest diverged from the full twin" >&2; exit 1;
}
# The planner perf gate: >=2x fewer trap-simulated trials on a 24-cell
# sweep, every interpolated cell within its declared error bound.
./target/release/perf_throughput --plan

echo "=== tier 2: repository benchmark builds and runs ==="
cargo test -q --release --offline --manifest-path twbench/Cargo.toml
# hit-heavy, then miss-heavy, which serves nearly every miss through
# Tapeworm::service_burst.
for workload in hit-heavy miss-heavy; do
  cargo run --release --offline --quiet --manifest-path twbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 1 > "results/twbench_smoke_$workload.txt"
  result="results/twbench_smoke_${workload}_result.json"
  tail -n 1 "results/twbench_smoke_$workload.txt" > "$result"
  grep -q '"correct": true' "$result" || {
    echo "ci.sh: twbench $workload smoke run is not correct:" >&2
    cat "$result" >&2; exit 1;
  }
  grep -q '"failed": 0[,}]' "$result" || {
    echo "ci.sh: twbench $workload smoke run reports failed operations:" >&2
    cat "$result" >&2; exit 1;
  }
  echo "ci.sh: twbench $workload smoke ok"
done

echo "ci.sh: all gates passed"
