#!/usr/bin/env bash
# Sanitizer CI matrix: builds the tree under ASan+UBSan and TSan and runs
# the `oracle`, `concurrency`, `durability`, `induction`, `replication`,
# `overload` and `parsepath` ctest labels — the suites that replay the
# differential, crash-recovery, replication, overload and parse-path
# oracles and fan out threads, where sanitizer findings actually live.
# A RelWithDebInfo leg reruns the durability suites, the crash sweeps
# among them, with their files on tmpfs (/dev/shm) and then runs the
# bounded-memory soak (`ctest -L soak`), a fuzz leg runs the two XML fuzz targets under
# ASan+UBSan, and the last leg runs the repo benchmark's own smoke test
# (perfbench/smoke_test.py). The soak never runs under a
# sanitizer: RSS there measures the sanitizer's shadow memory and
# quarantine, not the program. Every sanitizer configuration is
# a CMake preset (CMakePresets.json), so a single leg is reproducible by
# hand:
#
#   cmake --preset tsan && cmake --build --preset tsan && ctest --preset tsan
#
# Usage:
#   tools/ci_matrix.sh           # legs over the labeled oracle/concurrency suites
#   tools/ci_matrix.sh --full    # sanitizer legs over the full suite
#
# Environment: JOBS (parallel build/test jobs, default nproc).

set -euo pipefail

SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=${JOBS:-$(nproc)}
FULL=0
if [ "${1:-}" = "--full" ]; then
  FULL=1
  shift
fi

cd "$SRC"

run_leg() {
  local preset=$1
  echo "=== leg: $preset ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  if [ "$FULL" = 1 ]; then
    # Full suite: bypass the preset's label filter, except the soak.
    ctest --test-dir "build-$preset" --output-on-failure -j "$JOBS" -LE soak
  else
    ctest --preset "$preset" -j "$JOBS"
  fi
}

run_leg asan-ubsan
run_leg tsan

# The durability suites once more with every WAL and checkpoint on
# tmpfs, so the WAL's space reservation (written zeros) and fdatasync
# commit also run on a filesystem other than the build tree's. The label
# includes check_crash_summaries, the two full crash-recovery sweeps
# (drift and induction) with their summaries pinned. gtest's TempDir()
# reads TEST_TMPDIR, the oracles' temp_directory_path() reads TMPDIR.
echo "=== leg: durability-tmpfs ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$JOBS"
SHM_TMP=$(mktemp -d /dev/shm/dtdevolve-ci.XXXXXX)
trap 'rm -rf "$SHM_TMP"' EXIT
TMPDIR="$SHM_TMP" TEST_TMPDIR="$SHM_TMP/" \
  ctest --test-dir build -L durability --output-on-failure -j "$JOBS"

# The bounded-memory soak on the uninstrumented build: VmRSS may grow by
# at most 256 B/doc after the 25 % mark (src/check/soak.h).
echo "=== leg: soak ==="
ctest --test-dir build -L soak --output-on-failure

# The XML fuzz targets under ASan+UBSan (the `fuzz` preset), 30 s each
# over the xml seed corpus: the arena reader differentially against the
# DOM parser (accept/reject, error message, tree, fingerprint, scores),
# and the DOM parser alone. A g++ build links the bundled standalone
# driver, which takes --seconds; a clang build links libFuzzer.
echo "=== leg: fuzz ==="
cmake --preset fuzz
cmake --build --preset fuzz -j "$JOBS" --target fuzz_stream_reader fuzz_xml_parser
if grep -q '^DTDEVOLVE_HAS_LIBFUZZER:INTERNAL=1' build-fuzz/CMakeCache.txt; then
  FUZZ_TIME=(-max_total_time=30)
else
  FUZZ_TIME=(--seconds 30)
fi
for target in fuzz_stream_reader fuzz_xml_parser; do
  "build-fuzz/fuzz/$target" tests/corpus/xml "${FUZZ_TIME[@]}"
done

# The repo benchmark's own test: every perfbench workload in --smoke
# mode, traced and untraced, must pass its correctness checks and report
# every metric BENCHMARK.json names. It builds into .bench_build/.
echo "=== leg: perfbench-smoke ==="
python3 perfbench/smoke_test.py

echo "sanitizer matrix clean (asan-ubsan, tsan) + durability on tmpfs + soak + fuzz + perfbench smoke"
