#!/usr/bin/env bash
# Counts the code lines under src/: non-blank lines whose first non-space
# characters are not `//`. Prints one "<count> <path>" line per source file,
# then one per directory (sum of its files), then the src/ total. Block
# comments and trailing comments count as code; the rule is deliberately
# simple so two counts taken at different commits compare.
#
# With --against <rev>, counts <rev>'s src/ too (unpacked with git archive
# into a temporary directory) and prints "<before> <after> <delta> <path>"
# for each file whose count differs, added and deleted files included, then
# the same for the total. "after" is the working tree.
#
# Usage: scripts/loc.sh [path-under-src...]   (default: all of src/)
#        scripts/loc.sh --against <rev> [path-under-src...]
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

count() {
  awk 'NF && $1 !~ /^\/\// { n++ } END { print n + 0 }' "$1"
}

# "<count> <file>" for every .cc/.h under the given paths, in path order.
file_counts() {
  find "$@" -type f \( -name '*.cc' -o -name '*.h' \) 2>/dev/null |
    LC_ALL=C sort |
    while read -r f; do
      printf '%d %s\n' "$(count "$f")" "$f"
    done
}

against=""
if [ "${1:-}" = "--against" ]; then
  if [ "$#" -lt 2 ]; then
    echo "usage: $0 --against <rev> [path-under-src...]" >&2
    exit 2
  fi
  against="$2"
  shift 2
fi

if [ "$#" -eq 0 ]; then
  set -- src
fi

if [ -n "$against" ]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  git archive "$against" src | tar -x -C "$tmp" || exit 1
  {
    (cd "$tmp" && file_counts "$@") | sed 's/^/before /'
    file_counts "$@" | sed 's/^/after /'
  } | awk '
    $1 == "before" { before[$3] = $2; seen[$3] = 1 }
    $1 == "after" { after[$3] = $2; seen[$3] = 1 }
    END {
      sort = "LC_ALL=C sort -k4"
      printf "%7s %7s %7s %s\n", "before", "after", "delta", "path"
      for (f in seen) {
        b = before[f] + 0
        a = after[f] + 0
        total_b += b
        total_a += a
        if (a != b) printf "%7d %7d %+7d %s\n", b, a, a - b, f | sort
      }
      close(sort)
      printf "%7d %7d %+7d total\n", total_b, total_a, total_a - total_b
    }'
  exit 0
fi

declare -A dir_total
total=0
while read -r n f; do
  printf '%7d %s\n' "$n" "$f"
  d="$(dirname "$f")"
  dir_total["$d"]=$(( ${dir_total["$d"]:-0} + n ))
  total=$(( total + n ))
done < <(file_counts "$@")
echo
for d in $(printf '%s\n' "${!dir_total[@]}" | LC_ALL=C sort); do
  printf '%7d %s/\n' "${dir_total[$d]}" "$d"
done
printf '%7d total\n' "$total"
