#!/usr/bin/env bash
# Counts the code lines under src/: non-blank lines whose first non-space
# characters are not `//`. Prints one "<count> <path>" line per source file,
# then one per directory (sum of its files), then the src/ total. Block
# comments and trailing comments count as code; the rule is deliberately
# simple so two counts taken at different commits compare.
#
# Usage: scripts/loc.sh [path-under-src...]   (default: all of src/)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

count() {
  awk 'NF && $1 !~ /^\/\// { n++ } END { print n + 0 }' "$1"
}

if [ "$#" -eq 0 ]; then
  set -- src
fi

files="$(find "$@" -type f \( -name '*.cc' -o -name '*.h' \) | LC_ALL=C sort)"

declare -A dir_total
total=0
for f in $files; do
  n="$(count "$f")"
  printf '%7d %s\n' "$n" "$f"
  d="$(dirname "$f")"
  dir_total["$d"]=$(( ${dir_total["$d"]:-0} + n ))
  total=$(( total + n ))
done
echo
for d in $(printf '%s\n' "${!dir_total[@]}" | LC_ALL=C sort); do
  printf '%7d %s/\n' "${dir_total[$d]}" "$d"
done
printf '%7d total\n' "$total"
