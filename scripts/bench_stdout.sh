#!/usr/bin/env bash
# Runs every deterministic bench binary of a build tree and writes its
# stdout to <out-dir>/<bench>.out (and the JSON the bench writes, if any, to
# <out-dir>/<bench>.json). Inherited DYNO_* variables are cleared first, so
# two runs differ only in the binaries. A build from before the engine lost
# its worker pool runs its benches at every hardware thread: the output is
# the same as at one thread, only slower.
#
# Output-identity check for a change that must not move simulated results:
#
#   scripts/bench_stdout.sh <parent-build> /tmp/old
#   scripts/bench_stdout.sh build /tmp/new
#   diff -r /tmp/old /tmp/new
#
# Usage: scripts/bench_stdout.sh <build-dir> <out-dir>
# Exits non-zero if a bench is missing or fails. Takes a few minutes.
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build_dir="$(cd "$1" && pwd)" || exit 2
mkdir -p "$2" || exit 2
out_dir="$(cd "$2" && pwd)"

benches="bench_fig2_plan_evolution bench_fig3_star_plans bench_fig4_overhead
bench_fig5_strategies bench_fig6_udf_selectivity bench_fig7_speedup
bench_fig8_hive bench_table1_pilr bench_ablations bench_concurrency
bench_mqo bench_scan"

for var in $(env | sed -n 's/^\(DYNO_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$var"
done
cd "$out_dir" || exit 2

status=0
for bench in $benches; do
  bin="$build_dir/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "missing: $bin" >&2
    status=1
    continue
  fi
  json="$bench.json"  # relative: the benches echo the path they wrote
  if ! DYNO_BENCH_CONCURRENCY_OUT="$json" DYNO_BENCH_MQO_OUT="$json" \
       DYNO_BENCH_SCAN_OUT="$json" "$bin" > "$out_dir/$bench.out"; then
    echo "failed: $bench" >&2
    status=1
  fi
done
exit "$status"
