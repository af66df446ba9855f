#!/usr/bin/env bash
# Measures a host-time change against its parent with alternating pairs of
# benchmark runs: each pair runs `python3 dynobench/run.py --workload W
# --seed S --seconds 10` once in the parent checkout and once in the
# current one (the repo this script lives in), and which side goes first
# alternates from pair to pair, so drift in the machine's load falls on
# both sides alike.
#
# It prints each side's wall_s samples, median and quartiles, the parent's
# interquartile range (IQR), both sides' setup_s and peak_rss_mb medians,
# how many pairs the change won (lower wall_s), and whether the gain rule
# holds: the change wins at least 9 of every 10 pairs and its median is
# lower than the parent's by more than the parent's IQR. A run whose simulated metrics (the *_sim_s and
# dynopt_vs_best values, `correct`, `failed`) differ from its side's first
# run is flagged, since a host-only change must not move them.
#
#   scripts/bench_pairs.sh <parent-checkout> degraded 1 10
#
# Inherited DYNO_* variables are cleared first (run.py refuses them). The
# first run in a checkout builds its .bench_build/ (~2 min). Exits 1 when
# a run fails, 3 when the rule does not hold or a run is flagged.
#
# Usage: scripts/bench_pairs.sh <parent-checkout> <workload> <seed> <pairs>
set -u -o pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: $0 <parent-checkout> <workload> <seed> <pairs>" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)" || exit 2
current="$(cd "$(dirname "$0")/.." && pwd)"
workload="$2"
seed="$3"
pairs="$4"

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

python3 - "$results" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

path, workload, seed = sys.argv[1:]
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
        runs[side].append({"wall_s": metrics["wall_s"]["value"],
                           "setup_s": metrics["setup_s"]["value"],
                           "peak_rss_mb": metrics["peak_rss_mb"]["value"],
                           "sim": sim})


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


print("workload=%s seed=%s metric=wall_s (lower is better)" % (workload, seed))
stats = {}
for side in ("parent", "current"):
    samples = [r["wall_s"] for r in runs[side]]
    q1, med, q3 = quartiles(samples)
    stats[side] = (q1, med, q3)
    print("%-7s samples: %s" % (side, " ".join("%.3f" % s for s in samples)))
    print("%-7s median=%.3f q1=%.3f q3=%.3f" % (side, med, q1, q3))
pq1, pmed, pq3 = stats["parent"]
cmed = stats["current"][1]
iqr = pq3 - pq1
pairs = list(zip(runs["parent"], runs["current"]))
wins = sum(1 for p, c in pairs if c["wall_s"] < p["wall_s"])
gap = pmed - cmed
print("parent IQR=%.3f median gap=%.3f (%+.1f%%)" %
      (iqr, gap, -100.0 * gap / pmed if pmed else 0.0))
print("wins=%d/%d" % (wins, len(pairs)))
for name in ("setup_s", "peak_rss_mb"):
    medians = [statistics.median(r[name] for r in runs[side])
               for side in ("parent", "current")]
    print("%s median: parent=%.3f current=%.3f" % (name, *medians))
holds = 10 * wins >= 9 * len(pairs) and gap > iqr
print("rule (>= 9/10 wins and median gap > parent IQR): %s" %
      ("holds" if holds else "does not hold"))
for run in flagged:
    print("FLAGGED: %s has simulated metrics unlike its side's first run"
          % run)
sys.exit(0 if holds and not flagged else 3)
EOF
