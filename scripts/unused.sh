#!/usr/bin/env bash
# Lists the library functions that no shipped program reaches: external
# functions defined under src/ that a gc-sections link of every non-test
# binary drops.
#
# It configures two scratch builds at -O0 with -ffunction-sections and
# links with -Wl,--gc-sections:
#   <build-dir>/repo       this repository's bench/ and examples/ targets
#                          (tests are not built);
#   <build-dir>/dynobench  the repository benchmark, from
#                          dynobench/CMakeLists.txt (its sources are only
#                          read).
# It then takes the `T` symbols of the src/ static libraries (`nm`), removes
# every symbol some linked binary still defines, and prints the rest,
# demangled, one per line, except those on the allow-list
# scripts/unused_allow.txt. Each allow-list line is
#
#   <demangled symbol>\t<reason>
#
# with the symbol exactly as `nm -C` prints it (parameter list included);
# blank lines and lines starting with `#` are ignored. An entry without a
# reason is an error.
#
# Prints nothing and exits 0 when every dropped function is allow-listed;
# exits 1 when it printed something, 2 on a usage or build error.
#
# Usage: scripts/unused.sh [build-dir]   (default: build-unused/)
set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

build_dir="${1:-build-unused}"
allow_list="scripts/unused_allow.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
log="$build_dir/build.log"

mkdir -p "$build_dir" || exit 2
: > "$log" || exit 2

configure() {
  cmake -S "$1" -B "$2" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    -DCMAKE_CXX_FLAGS=-ffunction-sections \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >> "$log" 2>&1
}

if ! configure . "$build_dir/repo" ||
   ! make -C "$build_dir/repo/bench" -j "$jobs" >> "$log" 2>&1 ||
   ! make -C "$build_dir/repo/examples" -j "$jobs" >> "$log" 2>&1 ||
   ! configure dynobench "$build_dir/dynobench" ||
   ! make -C "$build_dir/dynobench" -j "$jobs" dynobench >> "$log" 2>&1; then
  echo "unused.sh: scratch build failed; see $log" >&2
  exit 2
fi

# Mangled names of the defined text symbols of the given objects.
text_symbols() {
  nm --defined-only "$@" 2>/dev/null | awk '$2 == "T" { print $3 }' |
    LC_ALL=C sort -u
}

binaries=()
for f in "$build_dir"/repo/bench/* "$build_dir"/repo/examples/* \
         "$build_dir"/dynobench/dynobench; do
  if [ -f "$f" ] && [ -x "$f" ]; then
    binaries+=("$f")
  fi
done
libraries=("$build_dir"/repo/src/*/libdyno_*.a)
if [ "${#binaries[@]}" -lt 3 ] || [ ! -f "${libraries[0]}" ]; then
  echo "unused.sh: scratch build produced no binaries or libraries" >&2
  exit 2
fi

allowed="$(mktemp)"
trap 'rm -f "$allowed"' EXIT
if ! awk -F '\t' '
    /^#/ || NF == 0 { next }
    NF < 2 || $2 ~ /^[[:space:]]*$/ {
      printf "%s:%d: entry has no reason\n", FILENAME, FNR > "/dev/stderr"
      bad = 1
      next
    }
    { print $1 }
    END { exit bad }' "$allow_list" > "$allowed"; then
  exit 2
fi

dropped="$(LC_ALL=C comm -23 <(text_symbols "${libraries[@]}") \
                              <(text_symbols "${binaries[@]}") |
           c++filt | LC_ALL=C sort |
           grep -vxF -f "$allowed")"
if [ -n "$dropped" ]; then
  printf '%s\n' "$dropped"
  exit 1
fi
exit 0
