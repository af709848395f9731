// Plan-level dop differential over the TPC-H join graphs: DESIGN.md §7's
// contract for the four join shapes the benchmark runs, each planned once
// at lambda 0 and 10 over a scale-0.2 TPC-H database on an SSD. The same
// plan is then built and run with plan.dop (and ExecOptions::dop) set to 1,
// 2, 4 and 8. The dop may only change the schedule, never the answer or
// the bill, so every run must return byte-identical rows (canonically
// ordered where the plan has no ORDER BY) and bit-identical modeled
// charges: instructions, serial core-seconds, I/O bytes and DRAM Joules.
// tests/contract_fuzz_test.cc checks the same contract, and more, on
// seeded specs at small scale.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "exec/operator.h"
#include "naive_reference.h"
#include "optimizer/cost_model.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace ecodb::optimizer {
namespace {

class PlanDopDifferentialTest : public ::testing::Test {
 protected:
  PlanDopDifferentialTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
    model_ = std::make_unique<CostModel>(platform_.get(), CostModelParams{});
    PlannerOptions options;
    options.dops = {1, 2, 4, 8};
    planner_ = std::make_unique<Planner>(model_.get(), options);
  }

  struct Outcome {
    std::vector<exec::naive::Row> rows;
    exec::QueryStats stats;
  };

  /// Runs `plan` at `dop`, with morsels small enough that even small
  /// tables split into several.
  Outcome RunAtDop(const QuerySpec& spec, PhysicalPlan plan, int dop) {
    plan.dop = dop;
    Outcome out;
    auto root = planner_->BuildOperator(spec, plan);
    EXPECT_TRUE(root.ok()) << root.status().message();
    if (!root.ok()) return out;
    exec::ExecOptions options;
    options.morsel_rows = 2048;
    options.dop = plan.dop;
    options.pstate = plan.pstate;
    exec::ExecContext ctx(platform_.get(), options);
    auto result = exec::CollectAll(root->get(), &ctx);
    out.stats = ctx.Finish();
    EXPECT_TRUE(result.ok()) << result.status().message();
    if (!result.ok()) return out;
    out.rows = exec::naive::RowsOf(result->batches);
    if (spec.order_by.empty()) {
      out.rows = exec::naive::Canonical(std::move(out.rows));
    }
    return out;
  }

  /// Chooses one plan for `spec`, then runs it at dop 1, 2, 4 and 8.
  void ExpectDopInvariant(const QuerySpec& spec, const Objective& objective) {
    auto chosen = planner_->ChoosePlan(spec, objective);
    ASSERT_TRUE(chosen.ok()) << chosen.status().message();
    const Outcome base = RunAtDop(spec, *chosen, 1);
    ASSERT_FALSE(base.rows.empty());
    for (int dop : {2, 4, 8}) {
      SCOPED_TRACE("dop=" + std::to_string(dop));
      const Outcome got = RunAtDop(spec, *chosen, dop);
      EXPECT_EQ(got.rows, base.rows);
      EXPECT_EQ(got.stats.cpu_instructions, base.stats.cpu_instructions);
      EXPECT_EQ(got.stats.cpu_serial_seconds, base.stats.cpu_serial_seconds);
      EXPECT_EQ(got.stats.io_bytes, base.stats.io_bytes);
      EXPECT_EQ(got.stats.dram_joules, base.stats.dram_joules);
    }
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(PlanDopDifferentialTest, TpchJoinGraphsAtLambdaZeroAndTen) {
  catalog::Catalog catalog;
  tpch::TpchConfig config;
  config.scale_factor = 0.2;
  auto db = tpch::LoadDatabase(config, storage::TableLayout::kColumn,
                               ssd_.get(), &catalog);
  ASSERT_TRUE(db.ok()) << db.status().message();
  for (const tpch::JoinQueryShape& shape : tpch::MakeJoinQueryShapes(*db)) {
    for (double lambda : {0.0, 10.0}) {
      SCOPED_TRACE(shape.name + " lambda=" + std::to_string(lambda));
      ExpectDopInvariant(shape.spec, Objective::Balanced(lambda));
    }
  }
}

}  // namespace
}  // namespace ecodb::optimizer
