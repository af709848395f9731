#!/usr/bin/env bash
# Same-output check: the deterministic benches and examples must print the
# same bytes after a change as they do at <rev>.
#
# Builds the programs listed below at <rev> and in the working tree under
# build/same_outputs/ (scripts/build_against.sh), runs each in both builds
# and compares its stdout and exit status byte for byte.
#
# Usage: scripts/same_outputs.sh <rev> [-j N]
# Exits 0 when every output matches, 1 naming each program whose output
# differs (with the first lines of its diff), and 2 on a usage error, a
# <rev> that names no commit, or a failed build.
set -uo pipefail

cd "$(dirname "$0")/.."
source scripts/build_against.sh

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
  "bench/ablate_buffer_policy"
  "bench/ablate_group_commit"
  "bench/ablate_consolidation"
  "bench/ablate_cluster"
  "bench/ablate_coordination"
  "bench/ablate_migration"
  "bench/ablate_proportionality"
  "bench/ablate_tco"
  "bench/ablate_layout"
  "bench/fault_sweep"
  "bench/serving_sweep --smoke"
  "bench/overload_sweep --smoke"
  "examples/energy_aware_optimizer"
  "examples/design_advisor"
  "examples/quickstart"
  "examples/crash_recovery"
  "examples/consolidation_demo"
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

targets=()
for run in "${runs[@]}"; do
  program=${run%% *}
  target=${program##*/}
  [[ " ${targets[*]} " == *" $target "* ]] || targets+=("$target")
done

root=build/same_outputs
build_against "$root" "$rev" "$jobs" "${targets[@]}"
echo "same_outputs: ${commit:0:12} (base) against the working tree (work)"

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
