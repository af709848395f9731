// Microbenchmarks (google-benchmark): real wall-clock throughput of the
// engine's hot paths — scan + filter pipelines, hash join build/probe, and
// aggregation — over in-memory tables.
//
// BM_DopSweepAggregate times scan + grouped aggregation at each dop (dop 1
// is the single-worker case) and emits one JSON line per (dop, P-state)
// sweep point: real rows/s next to the simulated energy ledger
// (Rows-per-Joule, busy core-seconds), comparing P0 against the CPU's
// most-efficient P-state at each dop.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "exec/aggregate.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

struct Fixture {
  Fixture() : platform(power::MakeProportionalPlatform()) {
    ssd = std::make_unique<storage::SsdDevice>("s", power::SsdSpec{},
                                               platform->meter());
    Schema schema({Column{"k", DataType::kInt64, 8},
                   Column{"v", DataType::kInt64, 8},
                   Column{"x", DataType::kDouble, 8}});
    table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd.get());
    std::vector<storage::ColumnData> cols(3);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    for (int i = 0; i < 200000; ++i) {
      cols[0].i64.push_back(i % 1000);
      cols[1].i64.push_back(i);
      cols[2].f64.push_back(i * 0.25);
    }
    if (!table->Append(cols).ok()) std::abort();
  }

  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::SsdDevice> ssd;
  std::unique_ptr<storage::TableStorage> table;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

size_t RunToCompletion(Operator* op, power::HardwarePlatform* platform) {
  ExecContext ctx(platform, ExecOptions{});
  auto result = CollectAll(op, &ctx);
  ctx.Finish();
  return result.ok() ? result->TotalRows() : 0;
}

void BM_ScanFilter(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t rows = 0;
  for (auto _ : state) {
    TableScanOp plan(f.table.get(), {}, nullptr,
                     Col("v") < Lit(int64_t{50000}));
    rows = RunToCompletion(&plan, f.platform.get());
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200000);
}

void BM_HashJoin(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t rows = 0;
  for (auto _ : state) {
    HashJoinOp join(
        std::make_unique<TableScanOp>(f.table.get(),
                                      std::vector<std::string>{"k", "v"}),
        std::make_unique<TableScanOp>(f.table.get(),
                                      std::vector<std::string>{"k"}, nullptr,
                                      Col("k") < Lit(int64_t{10})),
        "k", "k");
    rows = RunToCompletion(&join, f.platform.get());
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200000);
}

// Scan + grouped aggregation at a given (dop, P-state): the workload of the
// paper's rows-per-Joule framing, swept across the two energy knobs the
// engine exposes. arg0 = dop, arg1 = 0 for P0 / 1 for MostEfficientPState.
void BM_DopSweepAggregate(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int dop = static_cast<int>(state.range(0));
  const int pstate =
      state.range(1) ? f.platform->cpu().MostEfficientPState() : 0;
  constexpr size_t kRows = 200000;

  QueryStats stats;
  double wall_best = 1e100;
  for (auto _ : state) {
    std::vector<AggregateItem> aggs;
    aggs.push_back({"total", AggFunc::kSum, Col("x")});
    aggs.push_back({"n", AggFunc::kCount, nullptr});
    HashAggregateOp agg(std::make_unique<TableScanOp>(
                            f.table.get(), std::vector<std::string>{"k", "x"}),
                        {"k"}, std::move(aggs));
    ExecOptions options;
    options.dop = dop;
    options.pstate = pstate;
    ExecContext ctx(f.platform.get(), options);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = CollectAll(&agg, &ctx);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) std::abort();
    stats = ctx.Finish();
    wall_best =
        std::min(wall_best, std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
  state.counters["sim_joules"] = stats.Joules();
  state.counters["sim_rows_per_joule"] =
      stats.Joules() > 0 ? static_cast<double>(kRows) / stats.Joules() : 0;

  // One machine-readable line per sweep point (last iteration's ledger;
  // the simulation is deterministic, so every iteration agrees).
  std::printf(
      "{\"bench\":\"dop_sweep_aggregate\",\"dop\":%d,\"pstate\":%d,"
      "\"wall_s\":%.6f,\"rows_per_s\":%.1f,\"sim_elapsed_s\":%.6f,"
      "\"sim_cpu_core_s\":%.6f,\"active_cores\":%d,\"sim_joules\":%.6f,"
      "\"rows_per_joule\":%.1f}\n",
      dop, pstate, wall_best, static_cast<double>(kRows) / wall_best,
      stats.elapsed_seconds, stats.cpu_seconds, stats.active_cores,
      stats.Joules(),
      stats.Joules() > 0 ? static_cast<double>(kRows) / stats.Joules() : 0.0);
}

BENCHMARK(BM_ScanFilter)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HashJoin)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DopSweepAggregate)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecodb::exec

BENCHMARK_MAIN();
