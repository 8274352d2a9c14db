#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the test suite, then smoke-run the
# benches so every commit leaves a machine-readable perf trajectory.
#
#   ./scripts/check.sh                  # incremental build + tests + bench smoke
#   BUILD_DIR=out ./scripts/check.sh
#   SMOKE_BENCH=0 ./scripts/check.sh    # tests only
#   SEABED_SANITIZE=1 CTEST_ARGS="-LE slow" SMOKE_BENCH=0 ./scripts/check.sh
#                                       # the CI sanitizer job: Debug + ASan/UBSan,
#                                       # fast test tier, no benches
#   SEABED_SANITIZE=thread CTEST_ARGS="-LE slow" SMOKE_BENCH=0 ./scripts/check.sh
#                                       # the CI TSan job (data races in the
#                                       # serving layer); keeps optimization on
#   SEABED_NO_SIMD=1 SMOKE_BENCH=0 ./scripts/check.sh
#                                       # the CI scalar-fallback job: scan
#                                       # kernels compiled without intrinsics,
#                                       # full suite incl. the fuzz tier
#   COMPARE_BENCH=0 ./scripts/check.sh  # skip the bench-regression gate
#
# Bench smoke mode runs a representative subset on a tiny synthetic table
# (SEABED_BENCH_ROWS=20000) and archives the BENCH_*.json records under
# $BUILD_DIR/bench-json/ — CI uploads that directory as a build artifact, so
# successive commits accumulate comparable perf records. Records must embed
# git_sha and build_type keys (harness provenance) or archiving fails, and
# scripts/compare_bench.py gates >30% median-latency regressions against the
# committed bench/baseline/ snapshot.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
SMOKE_BENCH="${SMOKE_BENCH:-1}"
SMOKE_ROWS="${SMOKE_ROWS:-20000}"
SEABED_SANITIZE="${SEABED_SANITIZE:-0}"
SEABED_NO_SIMD="${SEABED_NO_SIMD:-0}"
CTEST_ARGS="${CTEST_ARGS:-}"
COMPARE_BENCH="${COMPARE_BENCH:-1}"

# Both flags are passed explicitly every time: CMake caches them, and a
# sanitizer run must not leak ASan/Debug into the next plain run of this
# script (or into update_bench_baseline.sh) through a shared build dir.
CMAKE_ARGS=()
if [[ "$SEABED_SANITIZE" == "1" ]]; then
  # Sanitizer flavor: Debug + ASan/UBSan (the CI matrix's second job).
  CMAKE_ARGS+=(-DSEABED_SANITIZE=ON -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-Debug}")
elif [[ "$SEABED_SANITIZE" == "thread" ]]; then
  # TSan flavor: races hide at -O0, so keep optimization (RelWithDebInfo).
  CMAKE_ARGS+=(-DSEABED_SANITIZE=thread -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}")
else
  CMAKE_ARGS+=(-DSEABED_SANITIZE=OFF -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}")
fi
# Same cache hygiene for the scan-kernel escape hatch: pass it explicitly
# both ways so a scalar-fallback run cannot leak into the next plain run.
if [[ "$SEABED_NO_SIMD" == "1" ]]; then
  CMAKE_ARGS+=(-DSEABED_NO_SIMD=ON)
else
  CMAKE_ARGS+=(-DSEABED_NO_SIMD=OFF)
fi
# ccache keeps the two-job CI matrix under its timeout; harmless locally.
if command -v ccache > /dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
# --no-tests=error: a configure that silently disabled the suite (e.g. GTest
# missing) must fail the check, not pass it with zero tests.
# CTEST_ARGS="-LE slow" skips the slow tier (fuzz equivalence and
# determinism); the short e2e driver runs (label `e2e`) stay in, so the
# sanitizer flavors decode real responses. See the ctest label docs in README.
# shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -j "$JOBS" $CTEST_ARGS

if [[ "$SMOKE_BENCH" == "1" ]]; then
  JSON_DIR="$BUILD_DIR/bench-json"
  mkdir -p "$JSON_DIR"
  # Attribute records to the commit being checked even when the build dir
  # was configured at an older commit.
  SEABED_GIT_SHA="$(git rev-parse --short HEAD 2> /dev/null || echo unknown)"
  export SEABED_GIT_SHA
  for bench in bench_fig6_latency_rows bench_fig7_scalability bench_fig9a_groupby \
               bench_fig11_dashboard bench_fig12_probe bench_fig13_rebalance \
               bench_fig14_service bench_fig15_snapshot bench_fig16_prepared \
               bench_fig17_kernels bench_fig18_placement; do
    echo "--- smoke: $bench (rows=$SMOKE_ROWS) ---"
    SEABED_BENCH_ROWS="$SMOKE_ROWS" SEABED_BENCH_JSON_DIR="$JSON_DIR" \
      "$BUILD_DIR/bench/$bench" > /dev/null
  done
  # Refuse to archive unattributable records: every BENCH_*.json must carry
  # the provenance keys the cross-commit trajectory relies on.
  for record in "$JSON_DIR"/BENCH_*.json; do
    for key in git_sha build_type; do
      if ! grep -q "\"$key\"" "$record"; then
        echo "ERROR: $record is missing the \"$key\" key — refusing to archive" >&2
        exit 1
      fi
    done
  done
  echo "bench smoke OK — records in $JSON_DIR:"
  ls -l "$JSON_DIR"

  # End-to-end smoke of the encrypted pipeline: every workload answers a
  # few queries, each checked against the plaintext reference.
  echo "--- smoke: bench/e2e (end-to-end, answers checked) ---"
  python3 bench/e2e/run.py --smoke

  # The committed baseline is a release snapshot: sanitized timings are
  # 10-50x slower and must never be gated (or baselined) against it.
  if [[ "$COMPARE_BENCH" == "1" && "$SEABED_SANITIZE" == "0" && -d bench/baseline ]]; then
    echo "--- bench-regression gate (vs bench/baseline) ---"
    python3 scripts/compare_bench.py --baseline bench/baseline --fresh "$JSON_DIR"
  fi
fi
