#!/usr/bin/env bash
# Same-output check: the deterministic benches and examples must print the
# same bytes after a change as they do at <rev>.
#
# Extracts <rev> with git archive (local, no network, nothing registered in
# .git) under build/same_outputs/, builds the programs listed below from it
# and from the working tree, runs each in both builds and compares its
# stdout and exit status byte for byte. Both builds are Release builds of
# only these programs, and both are kept, so a second run against the same
# <rev> rebuilds only what changed in the working tree.
#
# Usage: scripts/same_outputs.sh <rev> [-j N]
# Exits 0 when every output matches, 1 naming each program whose output
# differs (with the first lines of its diff), and 2 on a usage error, a
# <rev> that names no commit, or a failed build.
set -uo pipefail

cd "$(dirname "$0")/.."

# Each run: a program path relative to a build directory, then arguments.
runs=(
  "bench/ablate_join_order"
  "bench/ablate_join_order --smoke"
  "bench/ablate_join_energy"
  "bench/ablate_index_crossover"
  "bench/ablate_compression_choice"
  "bench/ablate_zone_maps"
  "bench/joulesort"
  "bench/fig1_diminishing_returns"
  "bench/fig2_scan_compression"
  "examples/energy_aware_optimizer"
  "examples/design_advisor"
  "examples/quickstart"
)

usage() {
  echo "usage: $0 <rev> [-j N]" >&2
  exit 2
}
[[ $# -ge 1 ]] || usage
rev=$1
shift
jobs=$(nproc 2>/dev/null || echo 2)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) usage ;;
  esac
done

if ! commit=$(git rev-parse --verify --quiet "$rev^{commit}"); then
  echo "same_outputs: $rev names no commit" >&2
  exit 2
fi

root=build/same_outputs
mkdir -p "$root"
# A different <rev> starts from a fresh extract and build: its files carry
# their commit's timestamps, which an incremental build cannot trust.
if [[ "$(cat "$root/base.commit" 2>/dev/null)" != "$commit" ]]; then
  rm -rf "$root/base-src" "$root/base" "$root/base.commit"
  mkdir -p "$root/base-src"
  if ! git archive "$commit" | tar -x -C "$root/base-src"; then
    echo "same_outputs: could not extract $commit" >&2
    exit 2
  fi
  echo "$commit" >"$root/base.commit"
fi

targets=()
for run in "${runs[@]}"; do
  program=${run%% *}
  target=${program##*/}
  [[ " ${targets[*]} " == *" $target "* ]] || targets+=("$target")
done

# build <source-dir> <side>: configures and builds $root/<side>.
build() {
  local log=$root/$2.log
  echo "==> building $1 into $root/$2"
  if ! { cmake -S "$1" -B "$root/$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$root/$2" -j "$jobs" --target "${targets[@]}"; } \
       >"$log" 2>&1; then
    tail -20 "$log" >&2
    echo "same_outputs: building $1 failed (log: $log)" >&2
    exit 2
  fi
}
echo "same_outputs: ${commit:0:12} (base) against the working tree (work)"
build "$root/base-src" base
build . work

differ=()
for run in "${runs[@]}"; do
  read -r -a argv <<<"$run"
  for side in base work; do
    "$root/$side/${argv[0]}" "${argv[@]:1}" >"$root/$side.out" 2>/dev/null
    echo "exit status $?" >>"$root/$side.out"
  done
  if cmp -s "$root/base.out" "$root/work.out"; then
    echo "same    $run"
  else
    echo "DIFFERS $run"
    diff "$root/base.out" "$root/work.out" | head -20
    differ+=("$run")
  fi
done

if [[ ${#differ[@]} -gt 0 ]]; then
  echo "same_outputs: ${#differ[@]} program(s) print differently than" \
    "${commit:0:12}:" >&2
  printf '  %s\n' "${differ[@]}" >&2
  exit 1
fi
echo "same_outputs: all ${#runs[@]} outputs match ${commit:0:12}"
