// Ablation A1 (Section 4.1): hash join vs nested-loop join under an energy
// objective, sweeping the price of DRAM residency.
//
// "Consider the hash-join operator which has been known to outperform
// nested-loop join in many occasions, but it relies on using a large chunk
// of memory ... From a power perspective, these are 'expensive' operations
// and may tip the balance in favor of nested-loop join in more occasions
// than before."
//
// The harness plans the same equi-join at increasing memory-power premiums
// and reports the algorithm the energy objective selects, locating the
// crossover. The performance objective's choice is printed as the control:
// it never budges.

#include <memory>
#include <string>

#include "bench_util.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

/// Columns `<prefix>k` (i % 400) and `<prefix>v` (i); the prefix keeps the
/// two tables' column names apart, as the planner requires.
std::unique_ptr<storage::TableStorage> MakeTable(catalog::TableId id, int n,
                                                 storage::StorageDevice* dev,
                                                 const std::string& prefix) {
  Schema schema({Column{prefix + "k", DataType::kInt64, 8},
                 Column{prefix + "v", DataType::kInt64, 8}});
  auto table = std::make_unique<storage::TableStorage>(
      id, schema, storage::TableLayout::kColumn, dev);
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kInt64;
  for (int i = 0; i < n; ++i) {
    cols[0].i64.push_back(i % 400);
    cols[1].i64.push_back(i);
  }
  if (!table->Append(cols).ok()) std::exit(1);
  return table;
}

}  // namespace

int Main() {
  bench::Banner("Ablation A1: join algorithm choice vs memory power price",
                "20k-row probe side joined to a 400-row build side; energy "
                "objective; sweep of the DRAM residency premium");

  auto platform = power::MakeFlashScanPlatform();
  power::SsdSpec ssd_spec;
  ssd_spec.read_bw_bytes_per_s = 100e6;
  storage::SsdDevice ssd("ssd", ssd_spec, platform->meter());
  auto big = MakeTable(1, 20000, &ssd, "");
  auto small = MakeTable(2, 400, &ssd, "s");

  optimizer::QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "big";
  spec.relations[0].variants = {big.get()};
  spec.relations[0].columns = {"k", "v"};
  spec.relations[1].name = "small";
  spec.relations[1].variants = {small.get()};
  spec.relations[1].columns = {"sk"};
  spec.edges = {{0, 1, "k", "sk"}};
  auto root_algo = [](const optimizer::PhysicalPlan& plan) {
    return JoinAlgorithmName(plan.join_nodes[plan.join_root].algo);
  };

  bench::Table table({"memory premium (x W/GiB)", "energy objective picks",
                      "energy est (J)", "perf objective picks"});
  std::string first_algo, last_algo;
  for (double premium : {1.0, 1e2, 1e4, 1e5, 1e6, 1e7, 1e8}) {
    optimizer::CostModelParams params;
    params.memory_power_premium = premium;
    params.dram_watts_per_gib_override = 0.65;
    optimizer::CostModel model(platform.get(), params);
    optimizer::Planner planner(&model);

    auto energy_plan =
        planner.ChoosePlan(spec, optimizer::Objective::Energy());
    auto perf_plan =
        planner.ChoosePlan(spec, optimizer::Objective::Performance());
    if (!energy_plan.ok() || !perf_plan.ok()) return 1;

    const std::string ename = root_algo(*energy_plan);
    table.AddRow({bench::Fmt("%.0e", premium), ename,
                  bench::Fmt("%.3f", energy_plan->cost.joules),
                  root_algo(*perf_plan)});
    if (first_algo.empty()) first_algo = ename;
    last_algo = ename;
  }
  table.Print();

  const bool crossover = first_algo.find("hash") != std::string::npos &&
                         last_algo.find("hash") == std::string::npos;
  std::printf("shape check (cheap memory -> hash join; expensive memory -> "
              "memory-frugal join): %s\n", crossover ? "PASS" : "FAIL");
  return crossover ? 0 : 1;
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
