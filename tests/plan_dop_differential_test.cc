// Plan-level dop differential: DESIGN.md §7's contract for the plans the
// planner actually builds. Each plan shape is chosen ONCE, then that same
// plan is built and run with plan.dop (and ExecOptions::dop) set to 1, 2, 4
// and 8. The dop may only change the schedule, never the answer or the
// bill, so every run must return byte-identical rows (canonically ordered
// where the plan has no ORDER BY) and bit-identical modeled charges:
// instructions, serial core-seconds, I/O bytes and DRAM Joules.
//
// Shapes: a filtered group-by aggregate; ORDER BY with and without spill;
// ORDER BY + LIMIT through the fused top-k and through Sort + Limit; a
// two-relation join; and the four TPC-H join graphs planned at lambda 0 and
// 10.
//
// The same harness gates the planner's price against the bill: on inputs
// whose estimates are exact, PricePlan's seconds must be the billed CPU
// critical path at every dop and P-state, for each join algorithm and tail,
// with the planner's CostModel and the run sharing one ExecOptions.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "exec/operator.h"
#include "naive_reference.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace ecodb::optimizer {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;

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

  /// A lineitem-flavoured table: shuffled ids, duplicated keys, and doubles
  /// that are multiples of 0.25 (exact in any summation order).
  std::unique_ptr<storage::TableStorage> MakeLineitem(int n) {
    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"part", DataType::kInt64, 8},
                   Column{"qty", DataType::kDouble, 8},
                   Column{"flag", DataType::kString, 2}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(4);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    cols[3].type = DataType::kString;
    for (int i = 0; i < n; ++i) {
      cols[0].i64.push_back((i * 2654435761LL) % n);
      cols[1].i64.push_back(i % 25);
      cols[2].f64.push_back((i % 37) * 0.25);
      cols[3].str.push_back(i % 3 ? "N" : "R");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    EXPECT_TRUE(table->BuildZoneMaps(512).ok());
    return table;
  }

  /// A 25-row dimension keyed by `pid`, joined to the lineitem's `part`.
  std::unique_ptr<storage::TableStorage> MakeParts() {
    Schema schema({Column{"pid", DataType::kInt64, 8},
                   Column{"weight", DataType::kDouble, 8}});
    auto table = std::make_unique<storage::TableStorage>(
        2, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kDouble;
    for (int i = 0; i < 25; ++i) {
      cols[0].i64.push_back(i);
      cols[1].f64.push_back(i * 0.5);
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  struct Outcome {
    std::vector<exec::naive::Row> rows;
    exec::QueryStats stats;
  };

  /// The options a run uses unless it passes its own: several morsels even
  /// on small tables.
  static exec::ExecOptions SmallMorsels() {
    exec::ExecOptions options;
    options.morsel_rows = 2048;
    return options;
  }

  /// Runs `plan` at `dop` with `options`, whose dop and P-state it sets.
  Outcome RunAtDop(const QuerySpec& spec, PhysicalPlan plan, int dop,
                   exec::ExecOptions options = SmallMorsels()) {
    plan.dop = dop;
    Outcome out;
    auto root = planner_->BuildOperator(spec, plan);
    EXPECT_TRUE(root.ok()) << root.status().message();
    if (!root.ok()) return out;
    options.dop = plan.dop;
    options.pstate = plan.pstate;
    exec::ExecContext ctx(platform_.get(), options);
    auto result = exec::CollectAll(root->get(), &ctx);
    out.stats = ctx.Finish();
    EXPECT_TRUE(result.ok()) << result.status().message();
    if (!result.ok()) return out;
    for (const exec::RecordBatch& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        exec::naive::Row& row = out.rows.emplace_back();
        for (size_t c = 0; c < batch.num_columns(); ++c) {
          row.push_back(batch.GetValue(r, c));
        }
      }
    }
    if (spec.order_by.empty()) {
      out.rows = exec::naive::Canonical(std::move(out.rows));
    }
    return out;
  }

  /// Chooses one plan for `spec`, then runs it at dop 1, 2, 4 and 8.
  void ExpectDopInvariant(const QuerySpec& spec, const Objective& objective,
                          std::optional<bool> use_topk = std::nullopt) {
    auto chosen = planner_->ChoosePlan(spec, objective);
    ASSERT_TRUE(chosen.ok()) << chosen.status().message();
    PhysicalPlan plan = *chosen;
    if (use_topk.has_value()) plan.use_topk = *use_topk;

    const Outcome base = RunAtDop(spec, plan, 1);
    ASSERT_FALSE(base.rows.empty());
    for (int dop : {2, 4, 8}) {
      SCOPED_TRACE("dop=" + std::to_string(dop));
      const Outcome got = RunAtDop(spec, plan, dop);
      EXPECT_EQ(got.rows, base.rows);
      EXPECT_EQ(got.stats.cpu_instructions, base.stats.cpu_instructions);
      EXPECT_EQ(got.stats.cpu_serial_seconds, base.stats.cpu_serial_seconds);
      EXPECT_EQ(got.stats.io_bytes, base.stats.io_bytes);
      EXPECT_EQ(got.stats.dram_joules, base.stats.dram_joules);
    }
  }

  /// The single-table spec the ORDER BY shapes share.
  QuerySpec OrderedSpec(const storage::TableStorage* table) {
    QuerySpec spec;
    spec.left.name = "lineitem";
    spec.left.variants = {table};
    spec.left.filter = Col("id") < Lit(int64_t{15000});
    spec.order_by = {{"part", true}, {"qty", false}, {"flag", true}};
    return spec;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(PlanDopDifferentialTest, FilteredGroupByAggregate) {
  auto table = MakeLineitem(20000);
  QuerySpec spec;
  spec.left.name = "lineitem";
  spec.left.variants = {table.get()};
  spec.left.filter = Col("id") < Lit(int64_t{15000});
  spec.group_by = {"part", "flag"};
  spec.aggregates.push_back({"total_qty", exec::AggFunc::kSum, Col("qty")});
  spec.aggregates.push_back({"n", exec::AggFunc::kCount, nullptr});
  spec.aggregates.push_back({"max_qty", exec::AggFunc::kMax, Col("qty")});
  spec.aggregates.push_back({"avg_qty", exec::AggFunc::kAvg, Col("qty")});
  ExpectDopInvariant(spec, Objective::Performance());
}

TEST_F(PlanDopDifferentialTest, OrderByInMemoryAndSpilling) {
  auto table = MakeLineitem(20000);
  ExpectDopInvariant(OrderedSpec(table.get()), Objective::Performance());

  QuerySpec spilling = OrderedSpec(table.get());
  spilling.sort_memory_budget_bytes = 64 * 1024;
  spilling.sort_spill_device = ssd_.get();
  ExpectDopInvariant(spilling, Objective::Performance());
}

TEST_F(PlanDopDifferentialTest, OrderByLimitFusedAndUnfused) {
  auto table = MakeLineitem(20000);
  QuerySpec spec = OrderedSpec(table.get());
  spec.limit = 100;
  ExpectDopInvariant(spec, Objective::Performance(), /*use_topk=*/true);
  ExpectDopInvariant(spec, Objective::Performance(), /*use_topk=*/false);
}

TEST_F(PlanDopDifferentialTest, LegacyTwoWayJoin) {
  auto lineitem = MakeLineitem(20000);
  auto parts = MakeParts();
  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "lineitem";
  spec.relations[0].variants = {lineitem.get()};
  spec.relations[0].filter = Col("id") < Lit(int64_t{15000});
  spec.relations[1].name = "parts";
  spec.relations[1].variants = {parts.get()};
  spec.edges = {{0, 1, "part", "pid"}};
  spec.group_by = {"flag"};
  spec.aggregates.push_back({"w", exec::AggFunc::kSum, Col("weight")});
  ExpectDopInvariant(spec, Objective::Performance());
}

TEST_F(PlanDopDifferentialTest, PricedSecondsEqualBilledCriticalPath) {
  // Device-less relations whose estimates are exact: no filters, FK joins
  // onto dense keys (every fact `dim` key and every dim `sub` key occurs),
  // and a group-by column whose every value occurs.
  constexpr int kFacts = 20000, kDims = 20, kSubs = 4, kGroups = 16;
  const auto memory_table = [](catalog::TableId id, Schema schema,
                               std::vector<storage::ColumnData> cols) {
    auto table = std::make_unique<storage::TableStorage>(
        id, std::move(schema), storage::TableLayout::kColumn, nullptr);
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  };
  std::vector<storage::ColumnData> f(4), d(3), s(2);
  f[0].type = f[1].type = f[2].type = d[0].type = d[1].type = s[0].type =
      DataType::kInt64;
  f[3].type = d[2].type = s[1].type = DataType::kDouble;
  for (int i = 0; i < kFacts; ++i) {
    f[0].i64.push_back(i);
    f[1].i64.push_back(i % kDims);
    f[2].i64.push_back(i % kGroups);
    f[3].f64.push_back((i % 37) * 0.25);
  }
  for (int i = 0; i < kDims; ++i) {
    d[0].i64.push_back(i);
    d[1].i64.push_back(i % kSubs);
    d[2].f64.push_back(i * 0.5);
  }
  for (int i = 0; i < kSubs; ++i) {
    s[0].i64.push_back(i);
    s[1].f64.push_back(i * 1.5);
  }
  auto fact = memory_table(
      1,
      Schema({Column{"fid", DataType::kInt64, 8},
              Column{"dim", DataType::kInt64, 8},
              Column{"grp", DataType::kInt64, 8},
              Column{"val", DataType::kDouble, 8}}),
      std::move(f));
  auto dim = memory_table(2,
                          Schema({Column{"did", DataType::kInt64, 8},
                                  Column{"sub", DataType::kInt64, 8},
                                  Column{"w", DataType::kDouble, 8}}),
                          std::move(d));
  auto sub = memory_table(3,
                          Schema({Column{"sid", DataType::kInt64, 8},
                                  Column{"x", DataType::kDouble, 8}}),
                          std::move(s));

  QuerySpec pair;
  pair.relations.resize(2);
  pair.relations[0].name = "fact";
  pair.relations[0].variants = {fact.get()};
  pair.relations[1].name = "dim";
  pair.relations[1].variants = {dim.get()};
  pair.edges = {{0, 1, "dim", "did"}};
  QuerySpec chain = pair;
  chain.relations.resize(3);
  chain.relations[2].name = "sub";
  chain.relations[2].variants = {sub.get()};
  chain.edges.push_back({1, 2, "sub", "sid"});

  const int num_pstates = platform_->cpu().num_pstates();
  ASSERT_EQ(num_pstates, 3);
  // The planner prices with the ExecOptions the run bills with.
  const auto expect_priced_as_billed =
      [&](const QuerySpec& spec, const PhysicalPlan& plan,
          const exec::ExecOptions& options = SmallMorsels()) {
    CostModel model(platform_.get(), CostModelParams{}, options);
    const Planner planner(&model);
    for (int pstate = 0; pstate < num_pstates; ++pstate) {
      for (int dop : {1, 2, 4, 8}) {
        SCOPED_TRACE("pstate=" + std::to_string(pstate) +
                     " dop=" + std::to_string(dop));
        PhysicalPlan at = plan;
        at.pstate = pstate;
        at.dop = dop;
        auto priced = planner.PricePlan(spec, at);
        ASSERT_TRUE(priced.ok()) << priced.status().message();
        const double billed =
            RunAtDop(spec, at, dop, options).stats.cpu_elapsed_seconds;
        ASSERT_GT(billed, 0.0);
        EXPECT_NEAR(priced->seconds, billed, 1e-12 * billed);
      }
    }
  };

  // Two relations under each join algorithm, with no tail, an aggregate,
  // and an aggregate + ORDER BY.
  for (JoinAlgorithm algo : {JoinAlgorithm::kHash, JoinAlgorithm::kMerge,
                             JoinAlgorithm::kNestedLoop}) {
    for (int tail = 0; tail < 3; ++tail) {
      SCOPED_TRACE(std::string(JoinAlgorithmName(algo)) +
                   " tail=" + std::to_string(tail));
      QuerySpec spec = pair;
      if (tail >= 1) {
        spec.group_by = {"grp"};
        spec.aggregates.push_back({"total", exec::AggFunc::kSum, Col("val")});
        spec.aggregates.push_back({"n", exec::AggFunc::kCount, nullptr});
        spec.aggregates.push_back({"weight", exec::AggFunc::kSum, Col("w")});
      }
      if (tail == 2) spec.order_by = {{"grp", true}};
      auto plan = CanonicalJoinPlan(spec);
      ASSERT_TRUE(plan.ok()) << plan.status().message();
      plan->join_nodes[plan->join_root].algo = algo;
      expect_priced_as_billed(spec, *plan);
    }
  }

  // A chain whose upper hash join probes the lower join's output.
  {
    SCOPED_TRACE("chain");
    auto plan = CanonicalJoinPlan(chain);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    expect_priced_as_billed(chain, *plan);
  }

  // Non-default shared options. A decode scale, which every scan bills:
  exec::ExecOptions decode;
  decode.decode_scale = 8.0;
  for (const QuerySpec* spec : {&pair, &chain}) {
    SCOPED_TRACE(std::to_string(spec->relations.size()) +
                 " relations, decode_scale 8");
    auto plan = CanonicalJoinPlan(*spec);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    expect_priced_as_billed(*spec, *plan, decode);
  }
  // And a morsel size under which ORDER BY over the fact scan (no zone
  // maps) forms four equal runs, which the sort bills and merges.
  SCOPED_TRACE("ORDER BY over four 5,000-row runs");
  QuerySpec sorted;
  sorted.relations.resize(1);
  sorted.relations[0].name = "fact";
  sorted.relations[0].variants = {fact.get()};
  sorted.order_by = {{"grp", true}, {"val", false}};
  exec::ExecOptions morsels;
  morsels.morsel_rows = 5000;
  auto plan = CanonicalJoinPlan(sorted);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  expect_priced_as_billed(sorted, *plan, morsels);
}

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
