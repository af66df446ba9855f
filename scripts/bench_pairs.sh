#!/usr/bin/env bash
# Measures a host-side change against its parent with alternating pairs of
# benchmark runs: each pair runs `python3 dynobench/run.py --workload W
# --seed S --seconds 10` once in the parent checkout and once in the
# current one (the repo this script lives in), and which side goes first
# alternates from pair to pair, so drift in the machine's load falls on
# both sides alike.
#
# The optional fifth argument names the claimed end-to-end metric: any
# `end_to_end` name in BENCHMARK.json, default wall_s. For it the script
# prints each side's samples, median and quartiles, the parent's
# interquartile range (IQR), how many pairs the change won (a better value
# in the metric's `better` direction), and whether the gain rule holds:
# the change wins at least 9 of every 10 pairs and its median beats the
# parent's by more than the parent's IQR.
#
# For every end-to-end metric the workload reports, it then prints both
# medians and marks BOUND where the current median is worse than the
# parent's by more than the metric's BENCHMARK.json `bound` (a fraction of
# the parent median). A run whose simulated metrics (the *_sim_s and
# dynopt_vs_best values, `correct`, `failed`) differ from its side's first
# run is flagged, since a host-only change must not move them.
#
#   scripts/bench_pairs.sh <parent-checkout> degraded 1 10
#   scripts/bench_pairs.sh <parent-checkout> fig7 1 10 peak_rss_mb
#
# Inherited DYNO_* variables are cleared first (run.py refuses them). The
# first run in a checkout builds its .bench_build/ (~2 min). Exits 1 when
# a run fails, 2 on bad arguments, 3 when the rule does not hold, a metric
# is past its bound or a run is flagged.
#
# Usage: scripts/bench_pairs.sh <parent-checkout> <workload> <seed> <pairs>
#            [metric]
set -u -o pipefail

if [ "$#" -ne 4 ] && [ "$#" -ne 5 ]; then
  echo "usage: $0 <parent-checkout> <workload> <seed> <pairs> [metric]" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)" || exit 2
current="$(cd "$(dirname "$0")/.." && pwd)"
workload="$2"
seed="$3"
pairs="$4"
metric="${5:-wall_s}"
benchmark="$current/BENCHMARK.json"

if ! python3 -c '
import json, sys
names = [m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]]
if sys.argv[2] not in names:
    sys.exit("bench_pairs: %s is not an end-to-end metric of BENCHMARK.json"
             " (%s)" % (sys.argv[2], ", ".join(names)))
' "$benchmark" "$metric"; then
  exit 2
fi

for var in $(env | sed -n 's/^\(DYNO_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$var"
done

results="$(mktemp)"
log="$(mktemp)"
trap 'rm -f "$results" "$log"' EXIT

# Runs one measurement in checkout $2 and appends "<side> <json>" to the
# results file.
run_side() {
  local side="$1" checkout="$2" line
  if ! line="$(cd "$checkout" && python3 dynobench/run.py \
      --workload "$workload" --seed "$seed" --seconds 10 2>"$log" \
      | tail -n 1)" || [ -z "$line" ]; then
    echo "bench_pairs: $side run failed in $checkout" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$side $line" >> "$results"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run_side parent "$parent"
    run_side current "$current"
  else
    run_side current "$current"
    run_side parent "$parent"
  fi
  echo "bench_pairs: pair $i/$pairs done" >&2
done

python3 - "$results" "$workload" "$seed" "$metric" "$benchmark" <<'EOF'
import json
import statistics
import sys

path, workload, seed, claimed, benchmark = sys.argv[1:]
END_TO_END = json.load(open(benchmark))["end_to_end"]
SIM = ("dynopt_sim_s", "dynopt_vs_best", "query_p50_sim_s",
       "query_tail_sim_s", "makespan_sim_s")
runs = {"parent": [], "current": []}
flagged = []
with open(path) as f:
    for line in f:
        side, payload = line.split(" ", 1)
        result = json.loads(payload)
        metrics = result["metrics"]
        sim = {name: metrics[name]["value"] for name in SIM if name in metrics}
        sim["correct"] = result["correct"]
        sim["failed"] = result["failed"]
        if runs[side] and sim != runs[side][0]["sim"]:
            flagged.append("%s run %d" % (side, len(runs[side]) + 1))
        values = {m["name"]: metrics[m["name"]]["value"]
                  for m in END_TO_END if m["name"] in metrics}
        values["sim"] = sim
        runs[side].append(values)


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when a is better than b."""
    return a < b if direction == "lower" else a > b


spec = next(m for m in END_TO_END if m["name"] == claimed)
print("workload=%s seed=%s metric=%s (%s is better)" %
      (workload, seed, claimed, spec["better"]))
stats = {}
for side in ("parent", "current"):
    samples = [r[claimed] for r in runs[side]]
    q1, med, q3 = quartiles(samples)
    stats[side] = (q1, med, q3)
    print("%-7s samples: %s" % (side, " ".join("%.3f" % s for s in samples)))
    print("%-7s median=%.3f q1=%.3f q3=%.3f" % (side, med, q1, q3))
pq1, pmed, pq3 = stats["parent"]
cmed = stats["current"][1]
iqr = pq3 - pq1
gap = pmed - cmed if spec["better"] == "lower" else cmed - pmed
pairs = list(zip(runs["parent"], runs["current"]))
wins = sum(1 for p, c in pairs if better(c[claimed], p[claimed],
                                         spec["better"]))
print("parent IQR=%.3f median gap=%.3f (%+.1f%%)" %
      (iqr, gap, 100.0 * (cmed - pmed) / pmed if pmed else 0.0))
print("wins=%d/%d" % (wins, len(pairs)))
holds = 10 * wins >= 9 * len(pairs) and gap > iqr
print("rule (>= 9/10 wins and median gap > parent IQR): %s" %
      ("holds" if holds else "does not hold"))

past_bound = []
for m in END_TO_END:
    name = m["name"]
    if name not in runs["parent"][0]:
        continue
    pm, cm = (statistics.median(r[name] for r in runs[side])
              for side in ("parent", "current"))
    worse = cm - pm if m["better"] == "lower" else pm - cm
    over = worse > m["bound"] * abs(pm)
    print("%s median: parent=%.3f current=%.3f (bound %.0f%%)%s" %
          (name, pm, cm, 100.0 * m["bound"], "  BOUND" if over else ""))
    if over:
        past_bound.append(name)
for name in past_bound:
    print("FLAGGED: %s median is worse than the parent's by more than its "
          "bound" % name)
for run in flagged:
    print("FLAGGED: %s has simulated metrics unlike its side's first run"
          % run)
sys.exit(0 if holds and not flagged and not past_bound else 3)
EOF
