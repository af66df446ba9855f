#!/usr/bin/env bash
# The full local CI gauntlet, one command:
#
#   tier-1      every test, default build (catches functional regressions)
#   tsan        the suites that start threads, under ThreadSanitizer
#               (catches data races in the service's session threads,
#               StatsStore and SubtreeCache)
#   asan-ubsan  engine/driver/integrity suites under Address+UBSanitizer
#               (catches memory and undefined-behavior bugs)
#   faults      engine/driver suites with 5% injected task failures
#   node-faults engine/driver suites with 2% node crashes + job-level retry
#   corruption  engine/driver suites with 2% block + shuffle corruption
#   concurrency service/engine suites with the multi-query service knobs
#               (DYNO_CONCURRENCY/DYNO_TENANT_SLOTS/DYNO_ADMISSION_QUEUE)
#               driven through the environment, plus a bench_concurrency
#               smoke run (8 concurrent TPC-H sessions, sweep 1 -> 8)
#   overload    service robustness suites in the overload regime: tight
#               concurrency, priority preemption, generous deadlines and
#               5% task faults (DYNO_PRIORITY_PREEMPTION,
#               DYNO_QUERY_DEADLINE_MS, DYNO_LOAD_SHED_QUEUE_MS)
#   mqo-cache   cache/service/driver suites with the cross-query subtree
#               cache on (DYNO_SUBTREE_CACHE_MB) under injected task
#               failures and block/shuffle corruption, plus a bench_mqo
#               smoke run (repeated TPC-H batch, cold vs warm, gated on
#               identical results and a >= 2x warm speedup)
#   columnar    storage/engine/driver suites with the columnar data plane
#               and zone maps on (DYNO_COLUMNAR/DYNO_ZONE_MAPS) under 5%
#               task faults + 2% block/shuffle corruption, plus a
#               bench_scan smoke run (row vs columnar scan/shuffle, gated
#               on byte-identical results and a >= 2x pruned-scan speedup)
#   memory      memory-model suites under a tight cluster-wide per-task
#               budget with spill-to-DFS on (DYNO_TASK_MEMORY_BYTES,
#               DYNO_SPILL) plus 5% task faults + 2% block/shuffle
#               corruption, so spills, corrupt-run retries and the OOM
#               ladder run against the env-driven configuration path
#   fuzz-smoke  codec + checkpoint-manifest + DFS-bit-rot + spill-run-rot
#               fuzzing, small fixed budget
#   unused      no src/ function that only tests reach: scripts/unused.sh
#               links the benches, examples and dynobench with
#               --gc-sections and must print nothing outside
#               scripts/unused_allow.txt
#   goldens     checked-in traces match the current trace schema
#   loc         code lines per src/ file and directory (informational,
#               never fails; scripts/loc.sh)
#
# Usage: scripts/ci.sh
# Requires cmake >= 3.20 (presets). Builds into build/, build-tsan/,
# build-asan/ and build-unused/.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

# Every step runs under a named label; the first failure stops the gauntlet
# with an unmissable banner naming the failing step (printed last, where a
# scrolled-past terminal still shows it) instead of a bare set -e exit.
current_step=""

fail_banner() {
  echo
  echo "======================================================"
  echo "ci: FAILED"
  echo
  echo "  failing step: ${current_step}"
  echo
  echo "  scroll up to the '=== ${current_step} ===' section for"
  echo "  the first failing test/command output."
  echo "======================================================"
  exit 1
}

run() {
  current_step="$1"
  shift
  echo
  echo "=== ${current_step} ==="
  "$@" || fail_banner
}

# Informational only, never fails: code lines per src/ file and directory.
echo
echo "=== loc (informational) ==="
scripts/loc.sh || true

run "configure (default)" cmake --preset default
run "build (default)" cmake --build --preset default -j "$(nproc)"
run "configure (tsan)" cmake --preset tsan
run "build (tsan)" cmake --build --preset tsan -j "$(nproc)"
run "configure (asan-ubsan)" cmake --preset asan-ubsan
run "build (asan-ubsan)" cmake --build --preset asan-ubsan -j "$(nproc)"

run "ctest preset: default (tier-1)" ctest --preset default
run "ctest preset: tsan" ctest --preset tsan
run "ctest preset: asan-ubsan" ctest --preset asan-ubsan
run "ctest preset: faults" ctest --preset faults
run "ctest preset: node-faults" ctest --preset node-faults
run "ctest preset: corruption" ctest --preset corruption
run "ctest preset: concurrency" ctest --preset concurrency
run "ctest preset: overload" ctest --preset overload
run "ctest preset: mqo-cache" ctest --preset mqo-cache
run "ctest preset: columnar" ctest --preset columnar
run "ctest preset: memory" ctest --preset memory
run "ctest preset: fuzz-smoke" ctest --preset fuzz-smoke

# bench_concurrency doubles as an integration smoke: it fails unless all 8
# sessions complete at every concurrency level, the sweep's makespan
# improves end to end, and the priority-mix high-priority p99 beats the
# no-priority baseline.
run "bench: concurrency sweep + priority mix" \
  env DYNO_BENCH_CONCURRENCY_OUT=build/BENCH_concurrency.json \
  build/bench/bench_concurrency

# bench_mqo is the multi-query cache smoke: it fails unless the warm
# repeated portion is at least 2x faster than cold with the cache on and
# results match the cache-off run.
run "bench: mqo cache" \
  env DYNO_BENCH_MQO_OUT=build/BENCH_mqo.json build/bench/bench_mqo

# bench_scan is the columnar data-plane smoke: it fails unless row and
# columnar scans return byte-identical output and zone-map pruning makes
# the selective scan at least 2x faster.
run "bench: columnar scan" \
  env DYNO_BENCH_SCAN_OUT=build/BENCH_scan.json build/bench/bench_scan

run "unused library functions" scripts/unused.sh

run "golden traces" scripts/check_goldens.sh

echo
echo "ci: all suites green"
