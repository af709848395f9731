#!/usr/bin/env bash
# Bench-regression gate: times the perf suite (bench/perf_regress) built at
# HEAD and from the working tree in 10 alternating pairs, the two runs of a
# pair taking turns on one CPU, and fails when an item's wall time
# regressed by the pairing rule (perf_regress.cc, Gate), when a query
# item's modeled Joules drift from the committed BENCH_engine.json, or when
# a vectorized decode kernel falls below 2x its scalar reference. Then
# proves the wall rule can fail: the change side runs 10 more times with
# its wall times inflated 2x, and judged against its own runs the gate
# must report a wall regression.
#
# Usage: scripts/bench_regress.sh [--smoke] [--write]
#   --smoke   3 reps per item instead of 15 (what check.sh runs)
#   --write   refresh BENCH_engine.json from the working tree instead of
#             gating (see EXPERIMENTS.md for the refresh policy)
set -euo pipefail

cd "$(dirname "$0")/.."
source scripts/build_against.sh

smoke=()
write=0
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=(--smoke) ;;
    --write) write=1 ;;
    *) echo "usage: $0 [--smoke] [--write]" >&2; exit 2 ;;
  esac
done

root=build/bench_regress
jobs=$(nproc 2>/dev/null || echo 2)
if [[ "$write" == 1 ]]; then
  build_tree . "$root/work" "$jobs" perf_regress
  "$root/work/bench/perf_regress" "${smoke[@]}" --write BENCH_engine.json
  exit 0
fi
build_against "$root" HEAD "$jobs" perf_regress
parent_bin=$root/base/bench/perf_regress
change_bin=$root/work/bench/perf_regress

pairs=10
start=$SECONDS
# pair <parent-order> <change-order>: one run of each side, at once, taking
# turns through two FIFOs. Only the parent's timings are read, so its exit
# status is not: a harness older than `--turns` prints no run, and the
# gate then judges no item's wall time.
to_parent=$root/to_parent
to_change=$root/to_change
rm -f "$to_parent" "$to_change"
mkfifo "$to_parent" "$to_change"
pair() {
  "$parent_bin" "${smoke[@]}" --turns "$to_parent" "$to_change" "$1" \
      >>"$root/parent.runs" 2>>"$root/parent.log" &
  local parent_pid=$!
  "$change_bin" "${smoke[@]}" --turns "$to_change" "$to_parent" "$2" \
      >>"$root/change.runs"
  wait "$parent_pid" || true
}
echo "==> $pairs alternating pairs: HEAD (${commit:0:12}) against the working tree"
: >"$root/parent.runs"
: >"$root/parent.log"
: >"$root/change.runs"
for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then pair first second; else pair second first; fi
done
"$change_bin" --gate "$root/parent.runs" "$root/change.runs" BENCH_engine.json

# A gate that cannot fail is not a gate: rerun the change side with its
# wall times inflated 2x and require the gate, judging them against the
# change's own runs, to report a wall regression.
echo "==> gate selftest: change wall times inflated 2x (expecting a wall regression)"
: >"$root/selftest.runs"
for ((i = 0; i < pairs; ++i)); do
  ECODB_PERF_REGRESS_SELFTEST=2.0 "$change_bin" "${smoke[@]}" \
      >>"$root/selftest.runs"
done
if "$change_bin" --gate "$root/change.runs" "$root/selftest.runs" \
    BENCH_engine.json >"$root/selftest.out" ||
    ! grep -q "WALL REGRESSION" "$root/selftest.out"; then
  cat "$root/selftest.out"
  echo "FAIL: the gate passed inflated wall times" >&2
  exit 1
fi
echo "==> gate selftest tripped as expected"
echo "bench regression gate: PASS ($((SECONDS - start)) s of runs)"
