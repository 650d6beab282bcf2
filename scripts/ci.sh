#!/usr/bin/env bash
# CI entry point: a Release build plus an ASan+UBSan Debug build with ctest
# on both, a TSan build running the threaded suites, and a bench smoke that
# diffs quick-run metrics against the committed baselines. Run from
# anywhere; build trees land in <repo>/build-ci-{release,asan,tsan}.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_suite() {
  local name="$1"
  local filter="$2"
  shift 2
  local tree="$repo/build-ci-$name"
  echo "=== [$name] configure ==="
  cmake -B "$tree" -S "$repo" "$@"
  echo "=== [$name] build ==="
  cmake --build "$tree" -j "$jobs"
  echo "=== [$name] ctest ==="
  if [[ -n "$filter" ]]; then
    ctest --test-dir "$tree" --output-on-failure -R "$filter"
  else
    ctest --test-dir "$tree" --output-on-failure
  fi
}

run_suite release "" -DCMAKE_BUILD_TYPE=Release

# Lockstep conformance gate: the full model-implementation grid (3
# topologies x batch sizes x 2 fault schedules) must report zero
# divergences. Runs on the Release tree right after its suite; a divergence
# prints the shrunk reproducer trace and fails CI.
echo "=== [release] lockstep conformance grid ==="
"$repo/build-ci-release/src/mc/zenith_lockstep" --quick

run_suite asan "" -DCMAKE_BUILD_TYPE=Debug -DZENITH_SANITIZE=address
# TSan is restricted to the suites that actually spawn threads (the
# ParallelRunner pool and the simulator slab it drives): everything else,
# the controller included, is single-threaded by design and already covered
# above. lockstep_test rides along because its oracle re-runs chaos
# campaigns end to end.
run_suite tsan 'parallel_test|sim_test|chaos_test|lockstep_test' \
  -DCMAKE_BUILD_TYPE=Debug -DZENITH_SANITIZE=thread

# Replication tier: the replicated control plane's own suites (unit protocol
# tests, the seeded kill-leader/partition chaos grid, exactly-once takeover)
# run in Release and again under TSan — leader handoff re-enqueues OPs
# across worker shards, which is exactly where a data race would hide.
echo "=== [replication] ctest -L replication (Release) ==="
ctest --test-dir "$repo/build-ci-release" --output-on-failure -L replication
echo "=== [replication] ctest -L replication (TSan) ==="
ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -L replication

# Model-checker tier (PR 9): the parallel exploration engine. The `mc`
# label runs the full checker suite — including the thread-count
# equivalence grids and counterexample replay — in Release, then again
# under TSan: the work-stealing frontier, the striped-lock seen-set and the
# first-violation claim are exactly the code where a memory-order mistake
# would corrupt a verification verdict silently. The TSan pass also covers
# the ShardedFingerprintSet concurrent-insert case in common_test.
echo "=== [mc] ctest -L mc (Release) ==="
ctest --test-dir "$repo/build-ci-release" --output-on-failure -L mc
echo "=== [mc] parallel checker suites (TSan) ==="
ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -L mc
GTEST_FILTER='ShardedFingerprintSet.*' \
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -R common_test

# Wire tier: the binary codec's adversarial suite re-runs under ASan+UBSan
# (where "rejects cleanly" means no overflow, no over-read, no giant
# allocation — not just a non-crash), then the real daemon pair runs the
# drain/undrain scenario end to end over a Unix socket: zenith_controllerd
# must exit 0 with its --self-check fingerprint matching the sim backend,
# and a SIGTERM to the lingering zenith_switchd must shut it down cleanly.
echo "=== [wire] ctest -L wire (ASan+UBSan) ==="
ctest --test-dir "$repo/build-ci-asan" --output-on-failure -L wire
wire_e2e() {
  local tree="$repo/build-ci-release"
  local sock
  sock="$(mktemp -u /tmp/zenith-ci-wire-XXXXXX.sock)"
  echo "=== [wire] daemon pair e2e over uds:$sock ==="
  "$tree/src/netd/zenith_switchd" --listen "uds:$sock" --linger &
  local switchd_pid=$!
  # set -e makes a non-zero controllerd exit fail the stage.
  "$tree/src/netd/zenith_controllerd" --connect "uds:$sock" \
    --target-ops 20000 --self-check --json
  echo "=== [wire] SIGTERM shutdown ==="
  kill -TERM "$switchd_pid"
  wait "$switchd_pid"  # non-zero exit fails the stage
  rm -f "$sock"
}
wire_e2e

# Stress tier (nightly-style): the `stress`-labeled suites re-run in Release
# with a six-figure OP budget (plain ctest above already ran them with the
# cheap default, keeping tier-1 flat), plus the batching-equivalence
# property sweep under TSan — the batched dispatch path is the newest code
# crossing the worker shards.
stress_tier() {
  echo "=== [stress] ctest -L stress (Release, ZENITH_SOAK_OPS=200000) ==="
  ZENITH_SOAK_OPS=200000 \
    ctest --test-dir "$repo/build-ci-release" --output-on-failure -L stress
  echo "=== [stress] batching property sweep under TSan ==="
  GTEST_FILTER='*BatchEquivalence*:*ChaosVerdictDeterminism*' \
    ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -R property_test
}
stress_tier

# Bench smoke: the benches are not part of ctest (full sweeps take minutes),
# but CI still proves each --quick path runs, emits machine-readable
# BENCH_*.json that parses, and compares the quick-run metrics against the
# committed baselines in bench/baselines/. Timing metrics are advisory
# (zenith_bench_diff warns on >25% drift — hosts differ), but the
# simulation-deterministic counters named per bench below are GATING:
# --gate makes any drift or absence a hard failure.
bench_smoke() {
  local tree="$repo/build-ci-release"
  local scratch
  scratch="$(mktemp -d)"
  echo "=== [bench] smoke (--quick --json) in $scratch ==="
  (cd "$scratch" && ZENITH_BENCH_THREADS="$jobs" \
    "$tree/bench/bench_chaos_coverage" --quick --json)
  (cd "$scratch" && "$tree/bench/bench_micro_primitives" --quick --json)
  (cd "$scratch" &&
    "$tree/bench/bench_fig10_trace_replay" --quick --json \
      --chrome-trace "$scratch/chrome_trace.json")
  (cd "$scratch" && "$tree/bench/bench_soak" --quick --json)
  (cd "$scratch" && "$tree/bench/bench_wire_loopback" --quick --json)
  (cd "$scratch" && "$tree/bench/bench_tab04_mc_optimizations" --quick --json)
  "$tree/src/obs/zenith_json_check" "$scratch"/BENCH_*.json \
    "$scratch/chrome_trace.json"
  echo "=== [bench-gate] diff vs committed baselines (deterministic metrics GATE, timings advisory) ==="
  # Gated (deterministic) metric subsets; everything else stays advisory.
  # Only budget-independent counters qualify: the committed baselines come
  # from full runs while CI smokes --quick, so campaign/OP tallies differ by
  # design — but a correct build reports zero violations at any budget.
  local -A gates=(
    [chaos_coverage]="violations_correct_build"
    [soak]="invariant_violations,fingerprint_match"
    [wire_loopback]="fingerprint_mismatches"
    [micro_primitives]="arena.fresh_allocs_fixed_churn"
    # PR 9 parallel checker: thread-count agreement on states/diameter and
    # a clean headline run are exact at any budget; state counts and
    # states/sec stay advisory (quick explores a smaller instance).
    [tab04_mc]="scaling.states_agree,scaling.diameter_agree,repl_headline.violations"
  )
  local name gate
  for name in micro_primitives chaos_coverage soak wire_loopback tab04_mc; do
    if [[ -f "$repo/bench/baselines/BENCH_$name.json" ]]; then
      gate="${gates[$name]:-}"
      if [[ -n "$gate" ]]; then
        "$tree/src/obs/zenith_bench_diff" \
          "$repo/bench/baselines/BENCH_$name.json" \
          "$scratch/BENCH_$name.json" --gate "$gate"
      else
        "$tree/src/obs/zenith_bench_diff" \
          "$repo/bench/baselines/BENCH_$name.json" \
          "$scratch/BENCH_$name.json" || true
      fi
    fi
  done
  rm -rf "$scratch"
}
bench_smoke

echo "=== CI green: release + asan + tsan + bench smoke ==="
