#!/usr/bin/env bash
# Verification entry point: the build flavors, the seed-sweep table and the
# 256-host smoke. Every gate that runs in one configuration is a tier-1
# ctest entry (tests/CMakeLists.txt), so each flavor's ctest runs it.
#
# Usage:
#   scripts/check.sh              # plain build + ctest, the 256-host smoke,
#                                 # then ASan+UBSan build + ctest
#   scripts/check.sh --plain      # only the plain build + ctest
#   scripts/check.sh --sanitize   # ASan+UBSan, UBSan (recover disabled) and
#                                 # TSan builds, each + ctest
#   scripts/check.sh --tidy       # clang-tidy over src/ with the checks in
#                                 # .clang-tidy; any warning fails (skips with
#                                 # a notice when clang-tidy is not installed)
#   scripts/check.sh --sweep      # plain build, then every row of the
#                                 # seed-sweep table once per CHAOS_SEEDS seed
#   scripts/check.sh --scale      # plain build, then only the 256-host smoke
#
# Environment:
#   BUILD_DIR    the plain build directory (default: build); each sanitizer
#                flavor builds in $BUILD_DIR-sanitize, -ubsan or -tsan
#   JOBS         parallelism (default: nproc)
#   CHAOS_SEEDS  space-separated seed list for --sweep (default: 1..10)
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=both
for arg in "$@"; do
  case "$arg" in
    --plain) MODE=plain ;;
    --sanitize) MODE=sanitize ;;
    --tidy) MODE=tidy ;;
    --sweep) MODE=sweep ;;
    --scale) MODE=scale ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
SEEDS="${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}"
declare -A FLAVOR_DIR=([OFF]="$BUILD_DIR" [address]="$BUILD_DIR-sanitize"
                       [undefined]="$BUILD_DIR-ubsan" [thread]="$BUILD_DIR-tsan")

#   build FLAVOR        configure + build one RDMADL_SANITIZE flavor
#   build_and_test FLAVOR   ... then run its full ctest
build() {
  cmake -B "${FLAVOR_DIR[$1]}" -S . -DRDMADL_SANITIZE="$1"
  cmake --build "${FLAVOR_DIR[$1]}" -j "$JOBS"
}
build_and_test() {
  build "$1"
  ctest --test-dir "${FLAVOR_DIR[$1]}" --output-on-failure -j "$JOBS"
}

# Runs a command through tests/same_stdout_twice.cmake, the one
# run-twice-and-diff: it fails unless both runs exit 0 with identical stdout.
#   run_twice PROGRAM [ARGS...]
run_twice() {
  local run="$1" IFS=';'
  shift
  cmake -DRUN="$run" -DARGS="$*" -P tests/same_stdout_twice.cmake
}

# Cluster-scale smoke: a 256-host ring all-reduce and colocated-PS step under
# RdmaCheck and a seeded delay-only chaos storm; the binary fails on any
# checker diagnostic or per-NIC QP-cap overflow.
scale_smoke() {
  run_twice "$BUILD_DIR/bench/bench_scale" --smoke --check=1
}

# The seed-sweep table. Each row runs once per seed with RDMADL_FAULT_SEED
# set to it; "@" in a command also stands for the seed. Columns: run twice
# and diff stdout (yes/no), RDMADL_CHECK (1 installs the protocol checker in
# every test), then the binary under the build directory and its arguments.
SWEEP=(
  "no  0 tests/fault_test"
  "no  1 tests/fault_test"
  "yes 1 tests/fault_test --gtest_filter=GdrChaosSweepTest.*"
  "no  0 tests/property_test --gtest_filter=Seeds/HealingFaultAllReduceTest.*"
  "no  0 tests/elastic_test"
  "no  1 tests/elastic_test"
  "no  0 tests/control_test --gtest_filter=MembershipPropertyTest.*"
  "yes 0 bench/bench_scale --quick --check=@ --congestion"
)

sweep() {
  local seed row cols cmd
  for seed in $SEEDS; do
    for row in "${SWEEP[@]}"; do
      read -ra cols <<<"${row//@/$seed}"
      cmd=("$BUILD_DIR/${cols[2]}" "${cols[@]:3}")
      [[ "${cols[2]}" == tests/* ]] && cmd+=(--gtest_brief=1 --gtest_print_time=0)
      echo "=== sweep: seed $seed: RDMADL_CHECK=${cols[1]} ${cmd[*]}"
      if [[ "${cols[0]}" == yes ]]; then
        RDMADL_FAULT_SEED="$seed" RDMADL_CHECK="${cols[1]}" run_twice "${cmd[@]}"
      else
        RDMADL_FAULT_SEED="$seed" RDMADL_CHECK="${cols[1]}" "${cmd[@]}"
      fi
    done
  done
  # The p50/p99/p999 tail columns, crash-only.
  "$BUILD_DIR/bench/bench_scale" --quick --check=1 --congestion --tail >/dev/null 2>&1
  echo "sweep passed for seeds: $SEEDS"
}

case "$MODE" in
  plain) build_and_test OFF ;;
  sanitize) build_and_test address; build_and_test undefined; build_and_test thread ;;
  both) build_and_test OFF; scale_smoke; build_and_test address ;;
  sweep) build OFF; sweep ;;
  scale) build OFF; scale_smoke ;;
  tidy)
    if ! command -v clang-tidy >/dev/null 2>&1; then
      echo "clang-tidy not installed; skipping --tidy (install clang-tidy to enable)"
      exit 0
    fi
    build OFF
    mapfile -t sources < <(find src -name '*.cc' | sort)
    clang-tidy -p "$BUILD_DIR" --quiet --warnings-as-errors='*' "${sources[@]}"
    echo "clang-tidy passed over ${#sources[@]} source files"
    ;;
esac
