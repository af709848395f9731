#!/usr/bin/env bash
# Full local CI sweep: default build + tests, the bench-regression smoke
# gate, the benchmark's output checks, the sanitizer matrix
# (tsan/asan/ubsan presets), the energy-accounting linter, and — when
# clang-tidy is installed — a clang-tidy pass over src/.
#
# Usage: scripts/check.sh [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

run() {
  echo "==> $*"
  "$@"
}

# 1. Default build + full test suite (includes the lint-labelled tests).
run cmake --preset default
run cmake --build --preset default -j "$jobs"
run ctest --preset default -j "$jobs"

# 2. Bench-regression smoke gate: the perf suite built at HEAD against the
#    working tree in 10 alternating pairs taking turns on one CPU, 3 reps
#    per item; Joules and decode speedups against the committed
#    BENCH_engine.json.
run ./scripts/bench_regress.sh --smoke

# 3. Serving-core smoke: the multi-session sweep's shape checks enforce the
#    DESIGN §12 contract (bills conserve, consolidation saves at dense load,
#    seeded traces replay bit-exactly) end to end.
run ./build/bench/serving_sweep --smoke

# 3b. Join-order smoke: the lambda sweep's shape checks enforce the DESIGN
#     §13 contract (some shape reorders as lambda grows, flips buy Joules
#     with seconds, replans are deterministic). A1 plans a two-relation
#     join and exits 1 if its hash -> sort-merge flip disappears.
run ./build/bench/ablate_join_order --smoke
run ./build/bench/ablate_join_energy

# 3c. Overload smoke: the burst sweep's shape checks enforce the DESIGN §14
#     contract (deadline kills and sheds keep their Joules on the bill, the
#     power-cap ladder engages, books balance at every load point).
run ./build/bench/overload_sweep --smoke

# 3d. JouleSort: the sort, dop and top-k sweeps exit 1 when their shape
#     checks fail — among them, the fused top-k returns the Sort + Limit
#     rows with dop-invariant charges, and at k <= 100 spills nothing and
#     bills fewer Joules. The only harness running both ORDER BY paths at
#     JouleSort scale (~3 s).
run ./build/bench/joulesort

# 3e. The benchmark harness: its own tests, then a short run of each
#     workload. A run exits non-zero when an output check fails: both
#     lambda plans return the same rows (join_graph), bills conserve and
#     replay (serve_tpch), the sort output is sorted and complete
#     (joulesort).
run python3 ecobench/run.py --self-test
for workload in serve_tpch join_graph joulesort; do
  run python3 ecobench/run.py --workload "$workload" --seconds 2
done

# 4. Sanitizer matrix. tsan filters to the concurrency-sensitive suites;
#    asan and ubsan run everything. The fault-injection, serving, overload,
#    join/planner and kernel-differential suites
#    (`-L 'faults|serving|overload|joins|kernels'`) then re-run explicitly
#    under each sanitizer so retry/degraded-mode, admission, cancellation,
#    join-order-equivalence, planner pricing (optimizer_test,
#    access_path_test, and the contract fuzzer's price-equals-bill gate
#    in contract_fuzz_test), and decode/expression/scan-gather/
#    aggregate-fold/sort-word/radix-run/word-merge regressions, as well as
#    the flat key index (util_test), the dictionary parser
#    (compression_test) and the column statistics (table_storage_test),
#    are reported by name even when a full run is noisy.
for san in tsan asan ubsan; do
  run cmake --preset "$san"
  run cmake --build --preset "$san" -j "$jobs"
  run ctest --preset "$san" -j "$jobs"
  run ctest --test-dir "build-$san" -L 'faults|serving|overload|joins|kernels' \
      --output-on-failure -j "$jobs"
done

# 5. Energy-accounting linter over src/ (also covered by `ctest -L lint`,
#    but run it standalone so failures print the findings directly).
#    Full EC1–EC11 sweep: the JSON report is persisted for tooling, stale
#    baseline entries (fingerprints no finding matches anymore) fail the
#    run, and --timings keeps the cross-TU pass cost visible as src/ grows.
echo "==> ecodb-lint --format json src (persisted to build/lint-report.json)"
./build/tools/lint/ecodb-lint --root . --baseline tools/lint/lint-baseline.txt \
    --fail-stale --timings --format json src > build/lint-report.json
run ./build/tools/lint/ecodb-lint --root . --baseline tools/lint/lint-baseline.txt \
    --fail-stale src

# 6. clang-tidy, when available (the checks live in .clang-tidy).
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
  run clang-tidy -p build "${tidy_sources[@]}"
else
  echo "==> clang-tidy not installed; skipping (checks defined in .clang-tidy)"
fi

echo "All checks passed."
