// Energy-aware optimization demo: the same query, three objectives.
//
// Recreates the paper's Section 3.2 situation inside the engine: a table
// exists in an uncompressed and a compressed physical variant on flash
// storage behind a power-hungry CPU. Watch the planner pick the compressed
// variant for performance, the uncompressed one for energy, and split the
// difference at an intermediate lambda — then verify with the meter that
// the measured Joules actually follow.
//
//   $ ./build/examples/energy_aware_optimizer

#include <cstdio>

#include "core/ecodb.h"
#include "tpch/generator.h"
#include "util/units.h"

int main() {
  ecodb::core::DbConfig config;
  config.preset = ecodb::core::PlatformPreset::kFlashScan;  // 90 W CPU
  config.ssd_count = 1;
  // Dop candidates come from the platform's core count by default (a single
  // ladder entry here: the FlashScan preset models one core).
  config.ssd_spec.read_bw_bytes_per_s = 30e6;  // modest flash, scan-bound
  // Decode weight calibrated the way the Figure 2 bench is (see
  // EXPERIMENTS.md); makes the compressed scan clearly CPU-bound. The
  // planner prices with the same options the queries bill with.
  config.exec_options.decode_scale = 60.0;

  auto db_or = ecodb::core::EcoDb::Open(config);
  if (!db_or.ok()) return 1;
  auto db = std::move(db_or).value();

  // ORDERS in two physical designs.
  ecodb::tpch::TpchConfig tpch_config;
  tpch_config.scale_factor = 10.0;  // 150k orders
  if (!db->CreateTable("orders", ecodb::tpch::OrdersSchema()).ok()) return 1;
  if (!db->Load("orders", ecodb::tpch::GenerateOrders(tpch_config)).ok()) {
    return 1;
  }
  if (!db->CloneWithCompression(
            "orders", "orders_compressed",
            {{"o_orderkey", ecodb::storage::CompressionKind::kDelta},
             {"o_custkey", ecodb::storage::CompressionKind::kFor},
             {"o_orderdate", ecodb::storage::CompressionKind::kFor},
             {"o_orderpriority",
              ecodb::storage::CompressionKind::kDictionary}})
           .ok()) {
    return 1;
  }

  ecodb::optimizer::QuerySpec spec;
  spec.left.name = "orders";
  spec.left.variants = {*db->table("orders"), *db->table("orders_compressed")};
  spec.left.columns = {"o_orderkey", "o_custkey", "o_totalprice",
                       "o_orderdate", "o_orderpriority"};

  struct Case {
    const char* label;
    ecodb::optimizer::Objective objective;
  };
  const Case cases[] = {
      {"performance (lambda=0)", ecodb::optimizer::Objective::Performance()},
      {"balanced (lambda=0.05 s/J)",
       ecodb::optimizer::Objective::Balanced(0.05)},
      {"energy (lambda->inf)", ecodb::optimizer::Objective::Energy()},
  };

  std::printf("%-28s %-14s %10s %12s\n", "objective", "variant chosen",
              "time", "energy");
  for (const Case& c : cases) {
    auto outcome = db->Execute(spec, c.objective);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", c.label,
                   outcome.status().ToString().c_str());
      return 1;
    }
    const ecodb::optimizer::PhysicalPlan& plan = *outcome->plan;
    std::printf("%-28s %-14s %10s %12s\n", c.label,
                plan.join_nodes[plan.join_root].variant == 0 ? "uncompressed"
                                                             : "compressed",
                ecodb::FormatSeconds(outcome->stats.elapsed_seconds).c_str(),
                ecodb::FormatJoules(outcome->stats.Joules()).c_str());
  }

  std::printf(
      "\nThe compressed variant finishes sooner; the uncompressed one uses\n"
      "fewer Joules because the 90 W CPU costs more than the flash drives\n"
      "save — the paper's Figure 2 tradeoff, chosen automatically.\n");
  return 0;
}
