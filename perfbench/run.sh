#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources into
# .bench_build/perfbench (configure once, incremental afterwards) and runs
# it from the checkout root.
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest      # build + run the self-tests
#
# Build output goes to .bench_build/perfbench-build.log, so the benchmark's
# JSON result stays the last line of stdout. Exits 2 without a result
# when the sources cannot be built.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=.bench_build/perfbench
log=.bench_build/perfbench-build.log
mkdir -p .bench_build

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

build_targets() {
  if [ ! -f "$build/Makefile" ]; then
    if ! cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=Release \
        >"$log" 2>&1; then
      tail -n 20 "$log" >&2
      echo "perfbench: configure failed (see $log)" >&2
      exit 2
    fi
  fi
  if ! cmake --build "$build" -j "$jobs" --target "$@" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "perfbench: build failed (see $log)" >&2
    exit 2
  fi
}

if [ "${1:-}" = "--selftest" ]; then
  build_targets perfbench perfbench_selftest
  exec ctest --test-dir "$build" --output-on-failure
fi

build_targets perfbench
exec "$build/perfbench" "$@"
