#!/usr/bin/env bash
# Fails when the checked-in golden traces (and the traces embedded in the
# service fingerprints) and the trace schema version in src/obs/trace.h
# drift apart — the no-build counterpart of
# TraceGoldenTest.GoldenHeadersCarryCurrentSchemaVersion, so CI (or a
# pre-commit hook) can catch a schema bump whose goldens were not
# regenerated before anything compiles.
#
# Usage: scripts/check_goldens.sh
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
trace_header="$repo_root/src/obs/trace.h"
golden_dir="$repo_root/tests/golden"

schema="$(sed -n 's/.*kTraceSchemaVersion = \([0-9][0-9]*\);.*/\1/p' \
  "$trace_header")"
if [ -z "$schema" ]; then
  echo "check_goldens: cannot parse kTraceSchemaVersion from $trace_header" >&2
  exit 1
fi

goldens=("$golden_dir"/*.jsonl)
if [ ! -e "${goldens[0]}" ]; then
  echo "check_goldens: no goldens under $golden_dir" >&2
  echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/trace_golden_test" >&2
  exit 1
fi

status=0
expected_header="{\"schema\":$schema,\"clock\":\"sim_ms\"}"
for golden in "${goldens[@]}"; do
  header="$(head -n 1 "$golden")"
  if [ "$header" != "$expected_header" ]; then
    echo "check_goldens: $golden is stale" >&2
    echo "  header:   $header" >&2
    echo "  expected: $expected_header (kTraceSchemaVersion = $schema)" >&2
    echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/trace_golden_test" >&2
    status=1
  fi
done

# The service fingerprints (engine_determinism_test) embed a serialized
# trace after their "trace:" line; its header must carry the schema too.
fingerprints=("$golden_dir"/*.fp)
if [ ! -e "${fingerprints[0]}" ]; then
  echo "check_goldens: no service fingerprints under $golden_dir" >&2
  echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/engine_determinism_test" >&2
  status=1
  fingerprints=()
fi
for golden in "${fingerprints[@]}"; do
  header="$(sed -n '/^trace:$/{n;p;q;}' "$golden")"
  if [ "$header" != "$expected_header" ]; then
    echo "check_goldens: $golden is stale" >&2
    echo "  embedded trace header: $header" >&2
    echo "  expected: $expected_header (kTraceSchemaVersion = $schema)" >&2
    echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/engine_determinism_test" >&2
    status=1
  fi
done

# The corruption golden exists so the data-integrity event types stay
# pinned in a checked-in trace: if a refactor stops emitting any of them,
# this catches it without a build.
corruption_golden="$golden_dir/q10_corruption.jsonl"
if [ ! -e "$corruption_golden" ]; then
  echo "check_goldens: missing $corruption_golden" >&2
  echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/trace_golden_test" >&2
  status=1
else
  for event in block_corruption shuffle_checksum_retry record_quarantined; do
    if ! grep -q "\"name\":\"$event\"" "$corruption_golden"; then
      echo "check_goldens: $corruption_golden has no '$event' event" >&2
      status=1
    fi
  done
fi

if [ "$status" -eq 0 ]; then
  echo "check_goldens: ${#goldens[@]} trace golden(s) and" \
    "${#fingerprints[@]} service fingerprint(s) match trace schema v$schema"
fi
exit $status
