#!/usr/bin/env bash
# Tier-1 verification entry point: configure, build, run the test suite.
# CI and humans both invoke this one script.
#
# Usage:
#   scripts/check.sh              # plain build + ctest, then ASan+UBSan
#                                 # build + ctest (RDMADL_SANITIZE=address)
#   scripts/check.sh --sanitize   # sanitizer sweep: ASan+UBSan build + ctest,
#                                 # then a standalone UBSan build + ctest
#                                 # (RDMADL_SANITIZE=undefined, recover
#                                 # disabled), then TSan build + ctest
#   scripts/check.sh --plain      # only the plain build + ctest
#   scripts/check.sh --tidy       # clang-tidy over src/ using the checks in
#                                 # .clang-tidy; any warning fails the run
#                                 # (skips with a notice when clang-tidy is
#                                 # not installed)
#   scripts/check.sh --chaos      # plain build, then sweep the seeded chaos
#                                 # suites over RDMADL_FAULT_SEED=1..10
#   scripts/check.sh --elastic    # plain build, then sweep the elastic
#                                 # recovery suite (crash schedules derived
#                                 # from RDMADL_FAULT_SEED) over the seeds
#   scripts/check.sh --verify     # RdmaCheck CI mode: the violation matrix
#                                 # (check_test), then the chaos + elastic
#                                 # suites under RDMADL_CHECK=1 across the
#                                 # seed list — every test runs with the
#                                 # protocol checker installed and fails on
#                                 # any diagnostic
#   scripts/check.sh --bench-smoke # plain build, then run the micro benches
#                                 # in their fast configuration; fails on a
#                                 # crash or on non-deterministic stdout
#                                 # (bench_fig8_micro --quick --sweep is run
#                                 # twice and the outputs diffed). Also part
#                                 # of the default (no-flag) flow.
#   scripts/check.sh --scale      # cluster-scale smoke: a 256-host all-reduce
#                                 # and PS step (bench_scale --smoke) under
#                                 # RdmaCheck plus a seeded chaos storm, run
#                                 # twice with stdout diffed — crashes,
#                                 # checker diagnostics, QP-cap overflows and
#                                 # nondeterminism all fail. Also part of the
#                                 # default (no-flag) flow.
#   scripts/check.sh --congestion # congestion/tail-latency sweep (ISSUE 8):
#                                 # the congestion suite plain and under
#                                 # RDMADL_CHECK=1, then bench_scale --quick
#                                 # with bounded queues + ECN + DCQCN +
#                                 # stragglers enabled across the chaos seed
#                                 # list — each seed run twice with stdout
#                                 # diffed — one tail-latency (p50/p99/p999)
#                                 # run, and an ASan+UBSan pass over the
#                                 # congestion suite. A smoke subset is also
#                                 # part of the default (no-flag) flow.
#   scripts/check.sh --collectives # collective conformance sweep: `ctest
#                                 # -L conformance` (the algorithm x shape x
#                                 # size matrix against the scalar reference,
#                                 # plain and under RDMADL_CHECK=1, and the
#                                 # bench_collective gate), the multi-level
#                                 # chaos and elastic tests across the seed
#                                 # list, and an ASan+UBSan conformance pass
#   scripts/check.sh --gdr        # GPUDirect route sweep (ISSUE 10): the
#                                 # SG-WR verbs contract, gather route planner
#                                 # and SG diagnostics suites plain and under
#                                 # RDMADL_CHECK=1, the device-resident chaos
#                                 # pair (GdrChaosSweepTest) across chaos
#                                 # seeds 1-10 with the checker installed and
#                                 # each seed run twice with stdout diffed
#                                 # (virtual times must replay byte-identical),
#                                 # the bench_table3_gdr quick gates (route
#                                 # ordering, >= 2x D2D-over-staged, >= 4x
#                                 # doorbell reduction), and an ASan+UBSan
#                                 # pass over the gdr-labeled suites. A smoke
#                                 # subset rides the default flow via the
#                                 # `gdr` ctest label.
#   scripts/check.sh --explore    # schedule-space exploration (ISSUE 9): the
#                                 # explorer's own suite (mutations, POR,
#                                 # minimizer, stall detector), the Explore*
#                                 # harness bodies in the fault/conformance/
#                                 # congestion suites under RDMADL_EXPLORE=16,
#                                 # and the bench_explore report run twice
#                                 # with stdout diffed (exploration order,
#                                 # pruning counts and detection schedules
#                                 # must be byte-identical across runs). A
#                                 # smoke subset rides the default flow via
#                                 # the `explore` ctest label.
#
# The chaos/elastic/check/scale/gdr suites are also registered as ctest labels,
# so `ctest -L chaos` / `ctest -L elastic` / `ctest -L check` /
# `ctest -L scale` run a smoke subset as part of any ctest invocation; the
# modes here sweep the full seed list or cluster size.
#
# Environment:
#   BUILD_DIR    override the build directory (default: build, or
#                build-<flavor> for sanitizer passes)
#   JOBS         parallelism (default: nproc)
#   CHAOS_SEEDS  space-separated seed list for every seed-sweeping mode
#                (default: 1..10)
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=both
for arg in "$@"; do
  case "$arg" in
    --sanitize) MODE=sanitize ;;
    --plain) MODE=plain ;;
    --tidy) MODE=tidy ;;
    --chaos) MODE=chaos ;;
    --elastic) MODE=elastic ;;
    --verify) MODE=verify ;;
    --bench-smoke) MODE=bench-smoke ;;
    --scale) MODE=scale ;;
    --collectives) MODE=collectives ;;
    --congestion) MODE=congestion ;;
    --explore) MODE=explore ;;
    --gdr) MODE=gdr ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="${JOBS:-$(nproc)}"
SEEDS="${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}"

build_and_test() {
  local sanitize="$1" build_dir="$2"
  cmake -B "$build_dir" -S . -DRDMADL_SANITIZE="$sanitize"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

plain_build() {
  BUILD_DIR="${BUILD_DIR:-build}"
  cmake -B "$BUILD_DIR" -S . -DRDMADL_SANITIZE=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
}

# ASan+UBSan-builds the given test targets next to the plain build, runs each.
#   asan_suites TARGET...
asan_suites() {
  local san_dir="${BUILD_DIR:-build}-sanitize" target targets=()
  for target in "$@"; do targets+=(--target "$target"); done
  cmake -B "$san_dir" -S . -DRDMADL_SANITIZE=address
  cmake --build "$san_dir" -j "$JOBS" "${targets[@]}"
  for target in "$@"; do "$san_dir/tests/$target" --gtest_brief=1; done
}

# Runs a command twice and fails unless both stdouts are byte-identical.
# Every command run this way prints virtual-time results only on stdout
# (wall-clock goes to stderr, which is dropped); gtest's own "(N ms total)"
# wall-clock summary is the one stdout number normalized before the diff.
# A non-empty second argument must also appear in the first run's stdout.
#   same_stdout_twice LABEL MUST_CONTAIN CMD [ARGS...]
same_stdout_twice() {
  local label="$1" must_contain="$2" out_a out_b
  shift 2
  out_a="$("$@" 2>/dev/null | sed 's/([0-9]* ms total)/(ms total)/')"
  out_b="$("$@" 2>/dev/null | sed 's/([0-9]* ms total)/(ms total)/')"
  if [[ -n "$must_contain" && "$out_a" != *"$must_contain"* ]]; then
    echo "$label FAILED: output lacks '$must_contain'" >&2
    printf '%s\n' "$out_a" >&2
    exit 1
  fi
  if ! diff -u <(printf '%s\n' "$out_a") <(printf '%s\n' "$out_b"); then
    echo "$label FAILED: stdout differs between runs" >&2
    exit 1
  fi
}

# Bench smoke: bench_fig8_micro's quick sweeps twice, plus a crash-only run
# of bench_micro_components (it reports wall-clock, so nothing to diff).
bench_smoke() {
  same_stdout_twice "bench smoke: bench_fig8_micro" "" \
    "$1/bench/bench_fig8_micro" --quick --sweep
  "$1/bench/bench_micro_components" --benchmark_min_time=0.01 >/dev/null
  echo "bench smoke passed (deterministic stdout, no crashes)"
}

# Congestion seed run: bench_scale --quick with bounded queues, ECN, DCQCN
# and the straggler knob live under RdmaCheck, for one chaos seed.
congestion_seed_run() {
  same_stdout_twice "congestion sweep: seed $2" "" \
    "$1/bench/bench_scale" --quick --check="$2" --congestion
}

# Exploration smoke: the bench_explore report (POR state reduction, seeded
# mutation detection, clean baselines); the explorer's DFS over commutation
# points is deterministic, so pruning counts, detection schedules and
# minimized repro sizes must replay byte-identically.
explore_smoke() {
  same_stdout_twice "explore smoke: bench_explore" "" "$1/bench/bench_explore"
  echo "explore smoke passed (schedule exploration deterministic, mutations caught)"
}

# GDR seed run: the device-resident chaos pair (GdrChaosSweepTest: tensors
# in GPU arenas with GPUDirect D2D routes on, under seeded link chaos, with
# RdmaCheck installed) must pass, and every byte the tests emit must replay
# (the suite also trace-diffs two in-process replays of the same seed).
gdr_seed_run() {
  same_stdout_twice "gdr sweep: seed $2" PASSED \
    env RDMADL_FAULT_SEED="$2" RDMADL_CHECK=1 "$1/tests/fault_test" \
    --gtest_brief=1 --gtest_filter='GdrChaosSweepTest.*'
}

# GDR smoke: the bench_table3_gdr quick gates (staged vs GDR-host vs GDR-D2D
# route ordering, the >= 2x D2D-over-staged ratio at >= 8 MiB, the >= 4x
# SG-WR doorbell reduction; the binary aborts if any gate fails).
gdr_smoke() {
  same_stdout_twice "gdr smoke: bench_table3_gdr" "" \
    "$1/bench/bench_table3_gdr" --quick --json=/dev/null
  echo "gdr smoke passed (route + doorbell gates hold, stdout deterministic)"
}

# Cluster-scale smoke: bench_scale --smoke runs a 256-host ring all-reduce
# and a 256-host colocated-PS training step with RdmaCheck installed and a
# seeded delay-only chaos storm; the binary itself fails on any checker
# diagnostic or per-NIC QP-cap overflow.
scale_smoke() {
  same_stdout_twice "scale smoke: bench_scale" "" "$1/bench/bench_scale" --smoke --check=1
  echo "scale smoke passed (256-host step deterministic and checker-clean)"
}

case "$MODE" in
  plain)
    build_and_test OFF "${BUILD_DIR:-build}"
    ;;
  sanitize)
    build_and_test address "${BUILD_DIR:-build-sanitize}"
    build_and_test undefined "${BUILD_DIR:-build-ubsan}"
    build_and_test thread "${BUILD_DIR:-build-tsan}"
    ;;
  both)
    build_and_test OFF "${BUILD_DIR:-build}"
    bench_smoke "${BUILD_DIR:-build}"
    scale_smoke "${BUILD_DIR:-build}"
    congestion_seed_run "${BUILD_DIR:-build}" 1
    echo "congestion smoke passed (seed 1 deterministic and checker-clean)"
    explore_smoke "${BUILD_DIR:-build}"
    gdr_smoke "${BUILD_DIR:-build}"
    build_and_test address "${BUILD_DIR:-build-sanitize}"
    ;;
  tidy)
    # Static analysis over the library sources with the checks pinned in
    # .clang-tidy. Uses the compile database from the plain build.
    if ! command -v clang-tidy >/dev/null 2>&1; then
      echo "clang-tidy not installed; skipping --tidy (install clang-tidy to enable)"
      exit 0
    fi
    plain_build
    mapfile -t sources < <(find src -name '*.cc' | sort)
    clang-tidy -p "$BUILD_DIR" --quiet --warnings-as-errors='*' "${sources[@]}"
    echo "clang-tidy passed over ${#sources[@]} source files"
    ;;
  chaos)
    # Deterministic chaos sweep: the fault suites derive their fault
    # schedules from RDMADL_FAULT_SEED, so each seed is a distinct — but
    # reproducible — storm of drops, spikes, flaps and crashes.
    plain_build
    for seed in $SEEDS; do
      echo "=== chaos sweep: RDMADL_FAULT_SEED=$seed ==="
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/fault_test" --gtest_brief=1
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/property_test" --gtest_brief=1 \
        --gtest_filter='Seeds/HealingFaultAllReduceTest.*'
    done
    echo "chaos sweep passed for seeds: $SEEDS"
    ;;
  elastic)
    # Elastic recovery sweep: crash one host per scenario (worker, PS,
    # all-reduce peer) and require detection + reconfiguration + rollback to
    # finish the run on the survivors. The membership spike property test
    # rides along so each seed also attests "no false positives under load".
    plain_build
    for seed in $SEEDS; do
      echo "=== elastic sweep: RDMADL_FAULT_SEED=$seed ==="
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/elastic_test" --gtest_brief=1
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/control_test" --gtest_brief=1 \
        --gtest_filter='MembershipPropertyTest.*'
    done
    echo "elastic sweep passed for seeds: $SEEDS"
    ;;
  verify)
    # RdmaCheck CI mode. First the negative matrix: every seeded violation
    # class must produce exactly its diagnostic kind. Then the chaos and
    # elastic suites run with the checker installed in every test
    # (RDMADL_CHECK=1): these runs are clean by construction, so a single
    # diagnostic — protocol violation or teardown leak — fails the sweep.
    plain_build
    "$BUILD_DIR/tests/check_test" --gtest_brief=1
    for seed in $SEEDS; do
      echo "=== checker sweep: RDMADL_FAULT_SEED=$seed RDMADL_CHECK=1 ==="
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 \
        "$BUILD_DIR/tests/fault_test" --gtest_brief=1
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 \
        "$BUILD_DIR/tests/elastic_test" --gtest_brief=1
    done
    echo "checker sweep passed for seeds: $SEEDS"
    ;;
  bench-smoke)
    plain_build
    bench_smoke "$BUILD_DIR"
    ;;
  scale)
    plain_build
    scale_smoke "$BUILD_DIR"
    ;;
  congestion)
    # Congestion/tail-latency robustness sweep (ISSUE 8). The congestion
    # suite (link queues, ECN, DCQCN reaction point, stragglers, backoff cap,
    # chaos seeds 1-10 in miniature) runs plain and with the protocol checker
    # installed; then bench_scale sweeps the chaos seed list with congestion
    # control AND the straggler knob live under RdmaCheck, each seed run
    # twice and diffed for byte-identical stdout; one run adds the
    # p50/p99/p999 tail columns; finally the suite runs under ASan+UBSan —
    # the admission/pause path and per-QP rate state are fresh memory-layout
    # territory.
    plain_build
    "$BUILD_DIR/tests/congestion_test" --gtest_brief=1
    RDMADL_CHECK=1 "$BUILD_DIR/tests/congestion_test" --gtest_brief=1
    for seed in $SEEDS; do
      echo "=== congestion sweep: chaos seed $seed (CC + stragglers + RdmaCheck) ==="
      congestion_seed_run "$BUILD_DIR" "$seed"
    done
    "$BUILD_DIR/bench/bench_scale" --quick --check=1 --congestion --tail >/dev/null 2>&1
    asan_suites congestion_test
    echo "congestion sweep passed for seeds: $SEEDS"
    ;;
  collectives)
    # Collective conformance sweep. The `conformance` label runs the
    # equivalence matrix plain and checked, and bench_collective's gate;
    # the multi-level chaos (HierarchicalChaosTest) and elastic leader
    # re-election tests sweep the fault seeds; finally the conformance
    # binary runs under ASan+UBSan — the matrix touches every slot/flag
    # layout the hierarchical and in-network schedules compute.
    plain_build
    ctest --test-dir "$BUILD_DIR" -L conformance --output-on-failure
    for seed in $SEEDS; do
      echo "=== collective chaos sweep: RDMADL_FAULT_SEED=$seed ==="
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 "$BUILD_DIR/tests/fault_test" \
        --gtest_brief=1 --gtest_filter='HierarchicalChaosTest.*'
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 "$BUILD_DIR/tests/elastic_test" \
        --gtest_brief=1 --gtest_filter='*Hierarchical*'
    done
    asan_suites collective_conformance_test
    echo "collective conformance sweep passed"
    ;;
  gdr)
    # GPUDirect route sweep (ISSUE 10). The SG-WR verbs contract (one
    # doorbell / one CQE per WQE, list-order delivery, shared-fate
    # validation, retry-restarts-every-extent), the gather route planner with
    # lane striping and the MR cache, and the SG diagnostics matrix
    # (sg-extent-out-of-order, flag-in-sg-list) run plain and with the
    # protocol checker installed; the device-resident chaos pair
    # sweeps the fault seeds under RdmaCheck with a per-seed two-run stdout
    # diff; the quick bench gates route ordering and doorbell reduction; and
    # an ASan+UBSan pass covers the SG posting/delivery paths — multi-extent
    # WQEs and GPU-arena registrations are fresh memory-layout territory.
    plain_build
    "$BUILD_DIR/tests/rdma_test" --gtest_brief=1
    "$BUILD_DIR/tests/transfer_engine_test" --gtest_brief=1
    "$BUILD_DIR/tests/check_test" --gtest_brief=1
    RDMADL_CHECK=1 "$BUILD_DIR/tests/rdma_test" --gtest_brief=1
    RDMADL_CHECK=1 "$BUILD_DIR/tests/transfer_engine_test" --gtest_brief=1
    for seed in $SEEDS; do
      echo "=== gdr chaos sweep: RDMADL_FAULT_SEED=$seed (device-resident, RdmaCheck) ==="
      gdr_seed_run "$BUILD_DIR" "$seed"
    done
    gdr_smoke "$BUILD_DIR"
    asan_suites rdma_test transfer_engine_test check_test
    echo "gdr sweep passed for seeds: $SEEDS"
    ;;
  explore)
    # Schedule-space exploration sweep (ISSUE 9). The explorer's own suite
    # runs first — tie permutations, timing perturbations, POR pruning
    # invariants, the stall detector, the ddmin minimizer, and the four
    # seeded protocol mutations the explorer must catch — in canonical mode
    # and then with RDMADL_EXPLORE=16 so every ExploreForTest body actually
    # enumerates schedules. The Explore* harness bodies embedded in the
    # fault, conformance and congestion suites run under the same bound:
    # retry cursors, flat-ring all-reduce and DCQCN incast must stay clean
    # under every explored ordering. Finally the bench_explore report runs
    # twice with stdout diffed.
    plain_build
    "$BUILD_DIR/tests/explore_test" --gtest_brief=1
    RDMADL_EXPLORE=16 "$BUILD_DIR/tests/explore_test" --gtest_brief=1
    for suite in fault_test collective_conformance_test congestion_test; do
      echo "=== explore harness: $suite (RDMADL_EXPLORE=16) ==="
      RDMADL_EXPLORE=16 "$BUILD_DIR/tests/$suite" --gtest_brief=1 \
        --gtest_filter='Explore*'
    done
    explore_smoke "$BUILD_DIR"
    echo "exploration sweep passed (explorer suite, harness bodies, bench report)"
    ;;
esac
