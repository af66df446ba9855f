#!/usr/bin/env bash
# Runs the repository benchmark of one checkout and writes its
# simulated-clock results: fig7, service and degraded at seeds 1 and 2
# (`dynobench/run.py --seconds 1 --trace 0`), one line per workload, seed
# and value:
#
#   <workload> seed=<n> <name>=<value>
#
# for the five simulated metrics (dynopt_sim_s, dynopt_vs_best,
# query_p50_sim_s, query_tail_sim_s, makespan_sim_s; a workload reports
# the ones it measures) plus the run's `correct` and `failed`. Host-clock
# metrics (wall_s, setup_s, peak_rss_mb) are left out, so two checkouts
# whose simulated results agree produce identical files:
#
#   scripts/sim_metrics.sh <parent-checkout> /tmp/sim_old
#   scripts/sim_metrics.sh . /tmp/sim_new
#   diff /tmp/sim_old /tmp/sim_new   # must print nothing
#
# Inherited DYNO_* variables are cleared first (run.py refuses them). The
# first call on a checkout builds its .bench_build/ (~2 min).
#
# Usage: scripts/sim_metrics.sh <checkout> <out-file>
# Exits non-zero when a run fails or prints no result line.
set -u -o pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <checkout> <out-file>" >&2
  exit 2
fi
checkout="$(cd "$1" && pwd)" || exit 2
out="$2"

for var in $(env | sed -n 's/^\(DYNO_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$var"
done

: > "$out" || exit 2
status=0
for workload in fig7 service degraded; do
  for seed in 1 2; do
    if ! result="$(cd "$checkout" && python3 dynobench/run.py \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 \
        | tail -n 1)"; then
      echo "sim_metrics: $workload seed=$seed failed" >&2
      status=1
      continue
    fi
    if ! python3 -c '
import json, sys
workload, seed, line = sys.argv[1:]
result = json.loads(line)
prefix = "%s seed=%s " % (workload, seed)
for name in ("dynopt_sim_s", "dynopt_vs_best", "query_p50_sim_s",
             "query_tail_sim_s", "makespan_sim_s"):
    if name in result["metrics"]:
        print(prefix + "%s=%r" % (name, result["metrics"][name]["value"]))
print(prefix + "correct=%s" % result["correct"])
print(prefix + "failed=%s" % result["failed"])
' "$workload" "$seed" "$result" >> "$out"; then
      echo "sim_metrics: $workload seed=$seed printed no result line" >&2
      status=1
    fi
  done
done
exit "$status"
