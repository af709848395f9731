// Tests for the energy-aware optimizer: selectivity estimation, two-
// objective pricing, and the paper's two headline plan flips — compression
// choice under an energy objective (Figure 2) and hash-vs-nested-loop under
// memory-power pricing (Section 4.1).

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ecodb.h"
#include "exec/scan.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/btree.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "naive_reference.h"

namespace ecodb::optimizer {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::ExprPtr;
using exec::Lit;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : platform_(power::MakeFlashScanPlatform()) {
    power::SsdSpec spec;
    spec.read_bw_bytes_per_s = 100e6;
    spec.active_watts = 5.0 / 3.0;
    ssd_ = std::make_unique<storage::SsdDevice>("ssd", spec,
                                                platform_->meter());
  }

  /// Columns `k` (i % ndv), `v` (i) and `w` (i / 2), each name prefixed
  /// by `prefix` so two tables in one join can keep their names apart. `k`
  /// is stored as `key_type`: i % ndv as an int64 or date, i % ndv + 0.5
  /// as a double, "key<i % ndv>" as a string.
  std::unique_ptr<storage::TableStorage> MakeTable(
      catalog::TableId id, int n, int ndv, const std::string& prefix = "",
      DataType key_type = DataType::kInt64) {
    Schema schema({Column{prefix + "k", key_type, 8},
                   Column{prefix + "v", DataType::kInt64, 8},
                   Column{prefix + "w", DataType::kDouble, 8}});
    auto table = std::make_unique<storage::TableStorage>(
        id, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(3);
    cols[0].type = key_type;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    for (int i = 0; i < n; ++i) {
      const int key = i % ndv;
      if (key_type == DataType::kDouble) {
        cols[0].f64.push_back(key + 0.5);
      } else if (key_type == DataType::kString) {
        cols[0].str.push_back("key" + std::to_string(key));
      } else {
        cols[0].i64.push_back(key);
      }
      cols[1].i64.push_back(i);
      cols[2].f64.push_back(i * 0.5);
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  /// `plan`'s rows with the columns in name order, sorted, so plans that
  /// orient or run the join differently compare equal.
  std::vector<exec::naive::Row> CanonicalRows(const Planner& planner,
                                              const QuerySpec& spec,
                                              const PhysicalPlan& plan) {
    auto op = planner.BuildOperator(spec, plan);
    EXPECT_TRUE(op.ok()) << op.status().message();
    if (!op.ok()) return {};
    const exec::naive::Rows rows =
        exec::naive::Materialize(op->get(), platform_.get());
    std::vector<size_t> order(static_cast<size_t>(rows.schema.num_columns()));
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return rows.schema.column(static_cast<int>(a)).name <
             rows.schema.column(static_cast<int>(b)).name;
    });
    std::vector<exec::naive::Row> out;
    for (const exec::naive::Row& row : rows.rows) {
      exec::naive::Row& named = out.emplace_back();
      for (size_t c : order) named.push_back(row[c]);
    }
    return exec::naive::Canonical(std::move(out));
  }

  CostModel MakeModel(double memory_premium = 1.0) {
    CostModelParams params;
    params.memory_power_premium = memory_premium;
    // The flash platform's DRAM model excludes background power (to match
    // the paper's Figure 2 accounting); price residency explicitly.
    params.dram_watts_per_gib_override = 0.65;
    return CostModel(platform_.get(), params);
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

// --- Selectivity estimation ---------------------------------------------------

TEST_F(OptimizerTest, SelectivityNullFilterIsOne) {
  catalog::TableStats stats;
  EXPECT_DOUBLE_EQ(
      Planner::EstimateSelectivity(nullptr, Schema(), stats), 1.0);
}

TEST_F(OptimizerTest, SelectivityRangeInterpolates) {
  auto table = MakeTable(1, 1000, 1000);
  catalog::TableStats stats;
  ASSERT_TRUE(table->AnalyzeInto(&stats).ok());
  // v uniform over [0, 999]; v < 250 has selectivity ~0.25.
  const double sel = Planner::EstimateSelectivity(
      Col("v") < Lit(int64_t{250}), table->schema(), stats);
  EXPECT_NEAR(sel, 0.25, 0.01);
  const double sel_gt = Planner::EstimateSelectivity(
      Col("v") >= Lit(int64_t{250}), table->schema(), stats);
  EXPECT_NEAR(sel_gt, 0.75, 0.01);
}

TEST_F(OptimizerTest, SelectivityEqUsesNdv) {
  auto table = MakeTable(1, 1000, 50);
  catalog::TableStats stats;
  ASSERT_TRUE(table->AnalyzeInto(&stats).ok());
  const double sel = Planner::EstimateSelectivity(
      Col("k") == Lit(int64_t{7}), table->schema(), stats);
  EXPECT_NEAR(sel, 1.0 / 50, 1e-9);
}

TEST_F(OptimizerTest, SelectivityConjunctionMultiplies) {
  auto table = MakeTable(1, 1000, 1000);
  catalog::TableStats stats;
  ASSERT_TRUE(table->AnalyzeInto(&stats).ok());
  // Bounds on DIFFERENT columns are independent: multiply.
  const double sel = Planner::EstimateSelectivity(
      exec::And(Col("v") < Lit(int64_t{500}), Col("w") >= Lit(124.75)),
      table->schema(), stats);
  EXPECT_NEAR(sel, 0.5 * 0.75, 0.02);
}

TEST_F(OptimizerTest, SelectivitySameColumnBandIntersects) {
  auto table = MakeTable(1, 1000, 1000);
  catalog::TableStats stats;
  ASSERT_TRUE(table->AnalyzeInto(&stats).ok());
  // Bounds on the SAME column form one interval, not two independent
  // predicates: v in [250, 500) over uniform [0, 999] selects ~25%, and
  // pricing it as 0.5 * 0.75 would overestimate every TPC-H date window.
  const double band = Planner::EstimateSelectivity(
      exec::And(Col("v") < Lit(int64_t{500}), Col("v") >= Lit(int64_t{250})),
      table->schema(), stats);
  EXPECT_NEAR(band, 0.25, 0.02);
  // Contradictory bounds collapse to (near) zero rather than multiplying.
  const double empty = Planner::EstimateSelectivity(
      exec::And(Col("v") < Lit(int64_t{100}), Col("v") >= Lit(int64_t{900})),
      table->schema(), stats);
  EXPECT_NEAR(empty, 0.0, 1e-9);
}

TEST_F(OptimizerTest, SelectivityLiteralOnLeftNormalized) {
  auto table = MakeTable(1, 1000, 1000);
  catalog::TableStats stats;
  ASSERT_TRUE(table->AnalyzeInto(&stats).ok());
  // `lit op col` estimates exactly as the flipped `col op' lit`, for every
  // comparison and inside a same-column band.
  const ExprPtr lit = Lit(int64_t{250});
  const ExprPtr hi = Lit(int64_t{600});
  const std::vector<std::pair<ExprPtr, ExprPtr>> pairs = {
      {lit > Col("v"), Col("v") < lit},
      {lit >= Col("v"), Col("v") <= lit},
      {lit < Col("v"), Col("v") > lit},
      {lit <= Col("v"), Col("v") >= lit},
      {lit == Col("v"), Col("v") == lit},
      {lit != Col("v"), Col("v") != lit},
      {exec::And(lit <= Col("v"), hi > Col("v")),
       exec::And(Col("v") >= lit, Col("v") < hi)},
  };
  for (const auto& [left_literal, right_literal] : pairs) {
    SCOPED_TRACE(left_literal->ToString());
    EXPECT_EQ(Planner::EstimateSelectivity(left_literal, table->schema(),
                                           stats),
              Planner::EstimateSelectivity(right_literal, table->schema(),
                                           stats));
    int64_t lo_a = 0, hi_a = 0, lo_b = 0, hi_b = 0;
    EXPECT_EQ(Planner::ExtractKeyRange(left_literal, "v", &lo_a, &hi_a),
              Planner::ExtractKeyRange(right_literal, "v", &lo_b, &hi_b));
    EXPECT_EQ(lo_a, lo_b);
    EXPECT_EQ(hi_a, hi_b);
  }
}

// --- Pricing -------------------------------------------------------------------

TEST_F(OptimizerTest, PriceUsesCriticalPath) {
  CostModel model = MakeModel();
  ResourceEstimate demand;
  demand.cpu_instructions = 3e9;  // 1 s on the 3 GHz core
  demand.device_bytes[ssd_.get()] = 1000e6;  // 10 s on the SSD
  const PlanCost cost = model.Price(demand, 1, 0);
  EXPECT_NEAR(cost.seconds, 10.0, 0.1);
}

TEST_F(OptimizerTest, EnergySumsComponents) {
  CostModel model = MakeModel();
  ResourceEstimate demand;
  demand.cpu_instructions = 3e9;  // 1 core-second at 90 W
  const PlanCost cost = model.Price(demand, 1, 0);
  EXPECT_NEAR(cost.joules, 90.0 + cost.seconds * platform_->meter()->TotalWatts(),
              2.0);
}

TEST_F(OptimizerTest, ScalarizeBlendsObjectives) {
  PlanCost cost{2.0, 100.0};
  EXPECT_DOUBLE_EQ(cost.Scalarize(Objective::Performance()), 2.0);
  EXPECT_DOUBLE_EQ(cost.Scalarize(Objective::Balanced(0.1)), 12.0);
  EXPECT_GT(cost.Scalarize(Objective::Energy()), 1e10);
}

TEST_F(OptimizerTest, ScanDemandTracksCompression) {
  auto plain = MakeTable(1, 100000, 1000);
  auto packed = MakeTable(2, 100000, 1000);
  ASSERT_TRUE(
      packed->SetCompression("v", storage::CompressionKind::kDelta).ok());
  CostModel model = MakeModel();
  const ResourceEstimate d_plain = model.ScanDemand(*plain, {1});
  const ResourceEstimate d_packed = model.ScanDemand(*packed, {1});
  EXPECT_LT(d_packed.device_bytes.at(ssd_.get()),
            d_plain.device_bytes.at(ssd_.get()));
  EXPECT_GT(d_packed.cpu_instructions, d_plain.cpu_instructions);
}

// --- Plan choice: the Figure 2 flip --------------------------------------------

TEST_F(OptimizerTest, CompressionVariantFlipsWithObjective) {
  // Two variants of the same table: uncompressed (I/O heavy) and
  // compressed (CPU heavy). On a platform with a 90 W CPU and ~2 W SSD,
  // performance favors compressed while energy favors uncompressed —
  // exactly Figure 2.
  auto plain = MakeTable(1, 200000, 1000);
  auto packed = MakeTable(2, 200000, 1000);
  ASSERT_TRUE(
      packed->SetCompression("v", storage::CompressionKind::kDelta).ok());
  ASSERT_TRUE(
      packed->SetCompression("k", storage::CompressionKind::kRle).ok());

  exec::ExecOptions exec;
  // Make decode genuinely expensive relative to I/O so CPU time dominates
  // the compressed plan (calibration stands in for [HLA+06] decode rates).
  exec.decode_scale = 40.0;
  CostModel model(platform_.get(), {}, exec);
  Planner planner(&model);

  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {plain.get(), packed.get()};
  spec.left.columns = {"k", "v"};

  auto perf_plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(perf_plan.ok());
  auto energy_plan = planner.ChoosePlan(spec, Objective::Energy());
  ASSERT_TRUE(energy_plan.ok());

  EXPECT_EQ(perf_plan->join_nodes[perf_plan->join_root].variant, 1)
      << "performance picks compressed";
  EXPECT_EQ(energy_plan->join_nodes[energy_plan->join_root].variant, 0)
      << "energy picks uncompressed";
}

// --- Plan choice: the Section 4.1 join flip --------------------------------------

TEST_F(OptimizerTest, MemoryPowerPremiumFlipsHashJoinToAlternative) {
  auto big = MakeTable(1, 20000, 500);
  auto small = MakeTable(2, 400, 400, "s");

  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "big";
  spec.relations[0].variants = {big.get()};
  spec.relations[0].columns = {"k", "v"};
  spec.relations[1].name = "small";
  spec.relations[1].variants = {small.get()};
  spec.relations[1].columns = {"sk"};
  spec.edges = {{0, 1, "k", "sk"}};
  auto root_algo = [](const PhysicalPlan& plan) {
    return plan.join_nodes[plan.join_root].algo;
  };

  // Cheap memory: hash join wins on both objectives.
  CostModel cheap = MakeModel(/*memory_premium=*/1.0);
  Planner planner_cheap(&cheap);
  auto plan_cheap = planner_cheap.ChoosePlan(spec, Objective::Energy());
  ASSERT_TRUE(plan_cheap.ok());
  EXPECT_EQ(root_algo(*plan_cheap), JoinAlgorithm::kHash);

  // Price memory residency like a scarce, power-hungry resource: the
  // energy objective should abandon the hash table.
  CostModel dear = MakeModel(/*memory_premium=*/1e7);
  Planner planner_dear(&dear);
  auto plan_dear = planner_dear.ChoosePlan(spec, Objective::Energy());
  ASSERT_TRUE(plan_dear.ok());
  EXPECT_TRUE(root_algo(*plan_dear) == JoinAlgorithm::kMerge ||
              root_algo(*plan_dear) == JoinAlgorithm::kNestedLoop)
      << JoinAlgorithmName(root_algo(*plan_dear));

  // Performance objective is indifferent to the premium.
  auto plan_perf = planner_dear.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan_perf.ok());
  EXPECT_EQ(root_algo(*plan_perf), JoinAlgorithm::kHash);
}

// --- Built plans actually execute ------------------------------------------------

TEST_F(OptimizerTest, AllJoinAlgorithmsBuildAndAgree) {
  auto big = MakeTable(1, 2000, 100);
  auto small = MakeTable(2, 100, 100, "s");

  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "big";
  spec.relations[0].variants = {big.get()};
  spec.relations[0].columns = {"k", "v"};
  spec.relations[1].name = "small";
  spec.relations[1].variants = {small.get()};
  spec.relations[1].columns = {"sk"};
  spec.edges = {{0, 1, "k", "sk"}};

  CostModel model = MakeModel();
  Planner planner(&model);
  auto canonical = CanonicalJoinPlan(spec);
  ASSERT_TRUE(canonical.ok()) << canonical.status().message();

  // Every algorithm, plus the hash join with its children swapped (build
  // on big instead of small).
  size_t expected_rows = 0;
  for (int shape = 0; shape < 4; ++shape) {
    PhysicalPlan plan = *canonical;
    PlanJoinNode& join = plan.join_nodes[plan.join_root];
    if (shape == 1) {
      std::swap(join.left, join.right);
      std::swap(join.left_key, join.right_key);
    } else if (shape > 1) {
      join.algo = shape == 2 ? JoinAlgorithm::kMerge
                             : JoinAlgorithm::kNestedLoop;
    }
    const std::string desc = plan.Describe(spec);
    auto op = planner.BuildOperator(spec, plan);
    ASSERT_TRUE(op.ok()) << desc;
    exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
    auto rows = exec::CollectAll(op->get(), &ctx);
    ctx.Finish();
    ASSERT_TRUE(rows.ok()) << desc;
    if (expected_rows == 0) {
      expected_rows = rows->TotalRows();
      EXPECT_GT(expected_rows, 0u);
    } else {
      EXPECT_EQ(rows->TotalRows(), expected_rows) << desc;
    }
  }
}

TEST_F(OptimizerTest, ChosenJoinRunsItsKeyType) {
  // A1's rig (bench/ablate_join_energy: 20,000 rows joined to 400 on
  // i % 400) with the key columns retyped. Whatever the memory premium and
  // however many algorithms the planner enumerates, the join it picks must
  // run the keys it joins on: a hash join cannot hash doubles, a merge join
  // walks int64 lanes only. Hash-only planning of double keys has no
  // runnable plan and says which edge.
  const std::pair<DataType, const char*> kKeyTypes[] = {
      {DataType::kInt64, "int64"},
      {DataType::kDate, "date"},
      {DataType::kString, "string"},
      {DataType::kDouble, "double"}};
  for (const auto& [type, type_name] : kKeyTypes) {
    SCOPED_TRACE(std::string(type_name) + " keys");
    auto big = MakeTable(1, 20000, 400, "", type);
    auto small = MakeTable(2, 400, 400, "s", type);
    QuerySpec spec;
    spec.relations.resize(2);
    spec.relations[0].name = "big";
    spec.relations[0].variants = {big.get()};
    spec.relations[0].columns = {"k", "v"};
    spec.relations[1].name = "small";
    spec.relations[1].variants = {small.get()};
    spec.relations[1].columns = {"sk"};
    spec.edges = {{0, 1, "k", "sk"}};

    // The reference: a nested-loop join runs any comparable key types.
    CostModel reference_model = MakeModel();
    Planner reference_planner(&reference_model);
    auto canonical = CanonicalJoinPlan(spec);
    ASSERT_TRUE(canonical.ok()) << canonical.status().message();
    PhysicalPlan nested = *canonical;
    nested.join_nodes[nested.join_root].algo = JoinAlgorithm::kNestedLoop;
    const std::vector<exec::naive::Row> expected =
        CanonicalRows(reference_planner, spec, nested);
    ASSERT_EQ(expected.size(), 20000u);

    for (double premium : {1.0, 1e8}) {
      for (bool enumerate : {true, false}) {
        SCOPED_TRACE("premium " + std::to_string(premium) +
                     (enumerate ? ", all algorithms" : ", hash only"));
        CostModel model = MakeModel(premium);
        PlannerOptions options;
        options.enumerate_join_algorithms = enumerate;
        Planner planner(&model, options);
        auto plan = planner.ChoosePlan(spec, Objective::Energy());
        if (type == DataType::kDouble && !enumerate) {
          ASSERT_FALSE(plan.ok());
          EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
          EXPECT_NE(plan.status().message().find("join edge k = sk"),
                    std::string::npos)
              << plan.status().message();
          continue;
        }
        ASSERT_TRUE(plan.ok()) << plan.status().message();
        EXPECT_TRUE(CanonicalRows(planner, spec, *plan) == expected)
            << plan->Describe(spec);
      }
    }
  }
}

TEST_F(OptimizerTest, HandSetPlanWithUnrunnableKeysRejected) {
  // PricePlan applies the same rule the DP does: a merge join on double
  // keys, or a hash join on them, is no plan at all. String keys cannot
  // meet numeric ones under any algorithm, so Analyze rejects that edge.
  auto big = MakeTable(1, 200, 40, "", DataType::kDouble);
  auto small = MakeTable(2, 40, 40, "s", DataType::kDouble);
  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "big";
  spec.relations[0].variants = {big.get()};
  spec.relations[1].name = "small";
  spec.relations[1].variants = {small.get()};
  spec.edges = {{0, 1, "k", "sk"}};
  CostModel model = MakeModel();
  Planner planner(&model);
  auto canonical = CanonicalJoinPlan(spec);
  ASSERT_TRUE(canonical.ok()) << canonical.status().message();
  for (JoinAlgorithm algo : {JoinAlgorithm::kHash, JoinAlgorithm::kMerge,
                             JoinAlgorithm::kNestedLoop}) {
    PhysicalPlan plan = *canonical;
    plan.join_nodes[plan.join_root].algo = algo;
    EXPECT_EQ(planner.PricePlan(spec, plan).ok(),
              algo == JoinAlgorithm::kNestedLoop)
        << JoinAlgorithmName(algo);
  }

  auto strings = MakeTable(3, 40, 40, "s", DataType::kString);
  spec.relations[1].variants = {strings.get()};
  auto mixed = planner.ChoosePlan(spec, Objective::Energy());
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mixed.status().message().find("join edge k = sk"),
            std::string::npos)
      << mixed.status().message();
}

TEST_F(OptimizerTest, SharedColumnNameAcrossRelationsRejected) {
  // big JOIN small ON k = sk, where both tables also hold a column `v`.
  // Renaming one `v` would leave the name meaning whichever table the
  // chosen plan put first, so the planner rejects the spec instead.
  auto big = MakeTable(1, 200, 50);
  Schema small_schema({Column{"sk", DataType::kInt64, 8},
                       Column{"v", DataType::kInt64, 8}});
  storage::TableStorage small(2, small_schema, storage::TableLayout::kColumn,
                              ssd_.get());
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kInt64;
  for (int i = 0; i < 40; ++i) {
    cols[0].i64.push_back(i);
    cols[1].i64.push_back(-i);
  }
  ASSERT_TRUE(small.Append(cols).ok());

  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "big";
  spec.relations[0].variants = {big.get()};
  spec.relations[0].columns = {"k", "v"};
  spec.relations[1].name = "small";
  spec.relations[1].variants = {&small};
  spec.relations[1].columns = {"sk", "v"};
  spec.edges = {{0, 1, "k", "sk"}};
  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("'v'"), std::string::npos)
      << plan.status().message();
}

TEST_F(OptimizerTest, ChosenCostSelfConsistentForLeafAlternatives) {
  // PricePlan(spec, ChoosePlan(spec)) reproduces the chosen cost bit for
  // bit when leaves carry variants and index paths: one relation with two
  // variants, the same with an index, and that relation joined to another.
  auto plain = MakeTable(1, 20000, 500);
  auto packed = MakeTable(2, 20000, 500);
  ASSERT_TRUE(
      packed->SetCompression("v", storage::CompressionKind::kDelta).ok());
  auto small = MakeTable(3, 400, 400, "s");
  storage::BTreeIndex index;
  for (int i = 0; i < 20000; ++i) index.Insert(i, static_cast<uint64_t>(i));

  QuerySpec variants;
  variants.left.name = "t";
  variants.left.variants = {plain.get(), packed.get()};
  variants.left.columns = {"k", "v"};

  QuerySpec indexed = variants;
  indexed.left.filter = exec::And(Col("v") >= Lit(int64_t{100}),
                                  Col("v") < Lit(int64_t{140}));
  indexed.left.index = &index;
  indexed.left.index_column = "v";

  QuerySpec joined;
  joined.relations = {indexed.left, TableAlternatives{}};
  joined.relations[1].name = "small";
  joined.relations[1].variants = {small.get()};
  joined.relations[1].columns = {"sk"};
  joined.edges = {{0, 1, "k", "sk"}};
  joined.group_by = {"sk"};
  joined.aggregates.push_back({"n", exec::AggFunc::kCount, nullptr});

  CostModel model = MakeModel(/*memory_premium=*/1e4);
  PlannerOptions options;
  options.dops = {1, 2, 4};
  Planner planner(&model, options);
  bool index_leaf_chosen = false;
  for (const QuerySpec* spec : {&variants, &indexed, &joined}) {
    for (const Objective& objective :
         {Objective::Performance(), Objective::Balanced(1.0),
          Objective::Energy()}) {
      auto plan = planner.ChoosePlan(*spec, objective);
      ASSERT_TRUE(plan.ok()) << plan.status().message();
      SCOPED_TRACE(plan->Describe(*spec));
      auto repriced = planner.PricePlan(*spec, *plan);
      ASSERT_TRUE(repriced.ok()) << repriced.status().message();
      EXPECT_EQ(plan->cost.seconds, repriced->seconds);
      EXPECT_EQ(plan->cost.joules, repriced->joules);
      for (const PlanJoinNode& node : plan->join_nodes) {
        if (node.path == AccessPath::kIndexScan) index_leaf_chosen = true;
      }
    }
  }
  EXPECT_TRUE(index_leaf_chosen) << "the narrow range should use the index";
}

TEST_F(OptimizerTest, PricePlanRejectsOutOfRangeDopAndPState) {
  // A hand-set plan's dop and P-state index the cost model's CPU tables;
  // out of range they must be rejected, not priced.
  auto table = MakeTable(1, 1000, 100);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.left.columns = {"k", "v"};
  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  ASSERT_TRUE(planner.PricePlan(spec, *plan).ok());
  const int num_pstates = platform_->cpu().num_pstates();
  const std::pair<int, int> bad_dop_pstate[] = {
      {0, 0}, {1, -1}, {1, num_pstates}};
  for (const auto& [dop, pstate] : bad_dop_pstate) {
    PhysicalPlan bad = *plan;
    bad.dop = dop;
    bad.pstate = pstate;
    EXPECT_EQ(planner.PricePlan(spec, bad).status().code(),
              StatusCode::kInvalidArgument)
        << "dop=" << dop << " pstate=" << pstate;
  }
}

TEST_F(OptimizerTest, FilteredPlanBuildsAndFilters) {
  auto table = MakeTable(1, 1000, 1000);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.left.columns = {"v"};
  spec.left.filter = Col("v") < Lit(int64_t{100});

  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  auto op = planner.BuildOperator(spec, *plan);
  ASSERT_TRUE(op.ok());
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  auto rows = exec::CollectAll(op->get(), &ctx);
  ctx.Finish();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->TotalRows(), 100u);
  // Planner's cardinality estimate should be in the ballpark.
  EXPECT_NEAR(plan->output_rows, 100.0, 30.0);
}

TEST_F(OptimizerTest, AggregatePlanBuilds) {
  auto table = MakeTable(1, 1000, 10);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.group_by = {"k"};
  exec::AggregateItem item;
  item.name = "total";
  item.func = exec::AggFunc::kSum;
  item.input = Col("v");
  spec.aggregates.push_back(item);

  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Balanced(0.01));
  ASSERT_TRUE(plan.ok());
  auto op = planner.BuildOperator(spec, *plan);
  ASSERT_TRUE(op.ok());
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  auto rows = exec::CollectAll(op->get(), &ctx);
  ctx.Finish();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->TotalRows(), 10u);  // 10 distinct keys
}

/// The one-leaf plan that reads relation 0 by a table scan.
PhysicalPlan TableScanPlan() {
  PhysicalPlan plan;
  plan.join_nodes.emplace_back().relation = 0;
  plan.join_root = 0;
  return plan;
}

TEST_F(OptimizerTest, NodeSharedByFilterAndAggregateInputRuns) {
  // SELECT SUM(v + 0), COUNT(*) FROM t WHERE v < 100, where the filter and
  // the aggregate input read one Col("v") node. The scan's fused filter
  // reads only its own lane and the aggregate reads the scan's whole
  // batch, so each binds the node to a different lane: binding must leave
  // the node as it was, or one of them reads the other's lane.
  auto table = MakeTable(1, 1000, 1000);
  const auto spec_reading = [&](ExprPtr filter_v, ExprPtr input_v) {
    QuerySpec spec;
    spec.left.name = "t";
    spec.left.variants = {table.get()};
    spec.left.filter = std::move(filter_v) < Lit(int64_t{100});
    spec.aggregates.push_back(
        {"total", exec::AggFunc::kSum, std::move(input_v) + Lit(int64_t{0})});
    spec.aggregates.push_back({"n", exec::AggFunc::kCount, nullptr});
    return spec;
  };
  const ExprPtr v = Col("v");
  const QuerySpec shared = spec_reading(v, v);
  const QuerySpec fresh = spec_reading(Col("v"), Col("v"));
  for (int dop : {1, 4}) {
    SCOPED_TRACE("dop " + std::to_string(dop));
    std::vector<std::vector<exec::Value>> rows;
    for (const QuerySpec* spec : {&fresh, &shared}) {
      auto op = Planner::BuildOperator(*spec, TableScanPlan());
      ASSERT_TRUE(op.ok()) << op.status().message();
      exec::ExecOptions options;
      options.dop = dop;
      exec::ExecContext ctx(platform_.get(), options);
      auto result = exec::CollectAll(op->get(), &ctx);
      ctx.Finish();
      ASSERT_TRUE(result.ok()) << result.status().message();
      ASSERT_EQ(result->TotalRows(), 1u);
      rows.push_back({result->batches[0].GetValue(0, 0),
                      result->batches[0].GetValue(0, 1)});
    }
    EXPECT_EQ(rows[0][0].f64, 4950.0);  // 0 + 1 + ... + 99
    EXPECT_EQ(rows[0][1].i64, 100);
    EXPECT_EQ(rows[1], rows[0]);
  }
}

TEST_F(OptimizerTest, FilterNodeSharedByIndexAndTableScanRelationsRuns) {
  // t JOIN s ON k = sk, t filtered by one node, 100 <= v < 140. Two trees
  // built from the one spec bind that node at once: one reads t through
  // its index on `v` (the filter runs over the index scan's whole batch),
  // the other through a table scan (the fused filter reads only its `v`
  // lane). Both trees are open before either is drained.
  auto t = MakeTable(1, 2000, 10);
  auto s = MakeTable(2, 400, 10, "s");
  storage::BTreeIndex index;
  for (int i = 0; i < 2000; ++i) index.Insert(i, static_cast<uint64_t>(i));
  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "t";
  spec.relations[0].variants = {t.get()};
  spec.relations[0].columns = {"k", "v"};
  spec.relations[0].filter = exec::And(Col("v") >= Lit(int64_t{100}),
                                       Col("v") < Lit(int64_t{140}));
  spec.relations[0].index = &index;
  spec.relations[0].index_column = "v";
  spec.relations[1].name = "s";
  spec.relations[1].variants = {s.get()};
  spec.relations[1].columns = {"sk"};
  spec.edges = {{0, 1, "k", "sk"}};

  // t probes the hash join, which builds on s's scan.
  PhysicalPlan by_table;
  by_table.join_nodes.resize(3);
  by_table.join_nodes[0].relation = 0;
  by_table.join_nodes[1].relation = 1;
  by_table.join_nodes[2].left = 0;
  by_table.join_nodes[2].right = 1;
  by_table.join_nodes[2].left_key = "k";
  by_table.join_nodes[2].right_key = "sk";
  by_table.join_root = 2;
  PhysicalPlan by_index = by_table;
  by_index.join_nodes[0].path = AccessPath::kIndexScan;

  std::vector<exec::OperatorPtr> trees;
  std::vector<std::unique_ptr<exec::ExecContext>> contexts;
  for (const PhysicalPlan* plan : {&by_index, &by_table}) {
    auto op = Planner::BuildOperator(spec, *plan);
    ASSERT_TRUE(op.ok()) << op.status().message();
    trees.push_back(std::move(op).value());
    contexts.push_back(std::make_unique<exec::ExecContext>(
        platform_.get(), exec::ExecOptions{}));
    ASSERT_TRUE(trees.back()->Open(contexts.back().get()).ok());
  }
  std::vector<size_t> rows(trees.size(), 0);
  std::vector<bool> done(trees.size(), false);
  while (std::count(done.begin(), done.end(), false) > 0) {
    for (size_t i = 0; i < trees.size(); ++i) {
      if (done[i]) continue;
      exec::RecordBatch batch;
      bool eos = false;
      ASSERT_TRUE(trees[i]->Next(&batch, &eos).ok());
      rows[i] += batch.num_rows();
      done[i] = eos;
    }
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    trees[i]->Close();
    contexts[i]->Finish();
  }
  // 40 rows of t pass, 4 per key of 10, and s holds 40 rows per key.
  EXPECT_EQ(rows[0], 1600u);
  EXPECT_EQ(rows[1], rows[0]);
}

TEST_F(OptimizerTest, ColumnNameScannedByTwoRelationsIsRejected) {
  // t and s both hold `v`. Analyze rejects the spec, and BuildOperator and
  // TableScanLeaves reject a plan handed to them over it with the same
  // error, so a joined `v` never silently means the build side's copy.
  auto t = MakeTable(1, 200, 10);
  storage::TableStorage s(
      2,
      Schema({Column{"sk", DataType::kInt64, 8},
              Column{"v", DataType::kInt64, 8}}),
      storage::TableLayout::kColumn, ssd_.get());
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kInt64;
  for (int i = 0; i < 40; ++i) {
    cols[0].i64.push_back(i % 10);
    cols[1].i64.push_back(i);
  }
  ASSERT_TRUE(s.Append(cols).ok());
  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "t";
  spec.relations[0].variants = {t.get()};
  spec.relations[0].columns = {"k", "v"};
  spec.relations[1].name = "s";
  spec.relations[1].variants = {&s};
  spec.relations[1].columns = {"sk", "v"};
  spec.edges = {{0, 1, "k", "sk"}};
  PhysicalPlan plan;
  plan.join_nodes.resize(3);
  plan.join_nodes[0].relation = 0;
  plan.join_nodes[1].relation = 1;
  plan.join_nodes[2].left = 0;
  plan.join_nodes[2].right = 1;
  plan.join_nodes[2].left_key = "k";
  plan.join_nodes[2].right_key = "sk";
  plan.join_root = 2;

  const Status analyzed = JoinGraph::Analyze(spec).status();
  EXPECT_EQ(analyzed.code(), StatusCode::kInvalidArgument);
  const Status built = Planner::BuildOperator(spec, plan).status();
  EXPECT_EQ(built.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(built.message(), analyzed.message());
  const Status leaves = Planner::TableScanLeaves(spec, plan).status();
  EXPECT_EQ(leaves.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(leaves.message(), analyzed.message());
}

TEST_F(OptimizerTest, OrderByPlansBuildSerialAndParallelSorts) {
  auto table = MakeTable(1, 5000, 50);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.order_by = {{"k", true}, {"v", false}};

  CostModel model = MakeModel();
  PlannerOptions options;
  options.dops = {1, 4};
  Planner planner(&model, options);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->Describe(spec).find("-> sort"), std::string::npos);

  // The realized tree (one SortOp at every dop) sorts identically at dop 1
  // and dop 4 — the engine's determinism contract.
  std::vector<std::vector<exec::Value>> reference;
  for (int dop : {1, 4}) {
    PhysicalPlan variant = *plan;
    variant.dop = dop;
    auto op = planner.BuildOperator(spec, variant);
    ASSERT_TRUE(op.ok());
    exec::ExecOptions exec_options;
    exec_options.dop = dop;
    exec::ExecContext ctx(platform_.get(), exec_options);
    auto rows = exec::CollectAll(op->get(), &ctx);
    ctx.Finish();
    ASSERT_TRUE(rows.ok());
    std::vector<std::vector<exec::Value>> collected;
    for (const auto& batch : rows->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        collected.push_back({batch.GetValue(r, 0), batch.GetValue(r, 1)});
      }
    }
    ASSERT_EQ(collected.size(), 5000u);
    for (size_t r = 1; r < collected.size(); ++r) {
      ASSERT_LE(collected[r - 1][0].i64, collected[r][0].i64);
      if (collected[r - 1][0].i64 == collected[r][0].i64) {
        ASSERT_GE(collected[r - 1][1].i64, collected[r][1].i64);
      }
    }
    if (dop == 1) {
      reference = std::move(collected);
    } else {
      EXPECT_EQ(collected, reference);
    }
  }

  // A sort priced for spilling includes the spill device's I/O.
  QuerySpec spilling = spec;
  spilling.sort_memory_budget_bytes = 4 * 1024;
  spilling.sort_spill_device = ssd_.get();
  auto spill_plan = planner.PricePlan(spilling, *plan);
  ASSERT_TRUE(spill_plan.ok());
  EXPECT_GT(spill_plan->seconds, plan->cost.seconds);
  EXPECT_GT(spill_plan->joules, plan->cost.joules);
}

TEST_F(OptimizerTest, PlannerFusesTopKForSmallLimit) {
  auto table = MakeTable(1, 50000, 50);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.order_by = {{"k", true}, {"v", false}};
  spec.limit = 10;
  // Tight budget: the full sort spills ~1 MiB to the SSD while the fused
  // top-k holds 10 rows in memory, so fusion wins on wall-clock seconds
  // even under the pure-performance objective.
  spec.sort_memory_budget_bytes = 4 * 1024;
  spec.sort_spill_device = ssd_.get();

  CostModel model = MakeModel();
  PlannerOptions options;
  options.dops = {1, 4};
  Planner planner(&model, options);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  // O(n log 10) comparisons and zero spill beat O(n log n) plus spill I/O.
  EXPECT_TRUE(plan->use_topk);
  EXPECT_NE(plan->Describe(spec).find("-> topk(10)"), std::string::npos);
  EXPECT_DOUBLE_EQ(plan->output_rows, 10.0);

  // The fused tree emits exactly the rows Sort + Limit would.
  PhysicalPlan unfused = *plan;
  unfused.use_topk = false;
  std::vector<std::vector<exec::Value>> reference;
  for (const PhysicalPlan* p : {&*plan, &unfused}) {
    auto op = planner.BuildOperator(spec, *p);
    ASSERT_TRUE(op.ok());
    exec::ExecOptions exec_options;
    exec_options.dop = p->dop;
    exec::ExecContext ctx(platform_.get(), exec_options);
    auto rows = exec::CollectAll(op->get(), &ctx);
    ctx.Finish();
    ASSERT_TRUE(rows.ok());
    std::vector<std::vector<exec::Value>> collected;
    for (const auto& batch : rows->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        collected.push_back({batch.GetValue(r, 0), batch.GetValue(r, 1)});
      }
    }
    ASSERT_EQ(collected.size(), 10u);
    if (reference.empty()) {
      reference = std::move(collected);
    } else {
      EXPECT_EQ(collected, reference);
    }
  }
}

TEST_F(OptimizerTest, PlannerFallsBackToSortLimitForLargeLimit) {
  auto table = MakeTable(1, 5000, 50);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.order_by = {{"k", true}};
  spec.limit = 5000;  // k ~ n: the top-k merge covers all rows serially

  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->use_topk);
  EXPECT_NE(plan->Describe(spec).find("-> sort -> limit(5000)"),
            std::string::npos);

  // The same comparison at the demand level: top-k total comparison work at
  // k = n is never below the full sort's.
  const ResourceEstimate sort = model.SortDemand(5000.0, 1);
  const ResourceEstimate topk = model.SortDemand(5000.0, 1, 5000.0);
  EXPECT_GE(topk.cpu_instructions + topk.serial_cpu_instructions,
            sort.cpu_instructions + sort.serial_cpu_instructions);
  // ... while small k prices far below it.
  const ResourceEstimate topk10 = model.SortDemand(5000.0, 1, 10.0);
  EXPECT_LT(topk10.cpu_instructions + topk10.serial_cpu_instructions,
            0.5 * (sort.cpu_instructions + sort.serial_cpu_instructions));
}

TEST_F(OptimizerTest, TopKPricingHasZeroSpillWhenKFitsBudget) {
  auto table = MakeTable(1, 50000, 50);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.order_by = {{"k", true}};
  spec.limit = 10;
  spec.sort_memory_budget_bytes = 4 * 1024;  // the full sort must spill
  spec.sort_spill_device = ssd_.get();

  CostModel model = MakeModel();
  Planner planner(&model);
  auto canonical = CanonicalJoinPlan(spec);
  ASSERT_TRUE(canonical.ok()) << canonical.status().message();
  PhysicalPlan fused = *canonical;
  fused.use_topk = true;
  auto fused_cost = planner.PricePlan(spec, fused);
  ASSERT_TRUE(fused_cost.ok());

  // Removing the spill device changes nothing for the fused plan: its
  // 10-row candidate set fits the budget, so zero spill bytes are priced.
  QuerySpec no_spill = spec;
  no_spill.sort_spill_device = nullptr;
  auto fused_no_device = planner.PricePlan(no_spill, fused);
  ASSERT_TRUE(fused_no_device.ok());
  EXPECT_DOUBLE_EQ(fused_cost->seconds, fused_no_device->seconds);
  EXPECT_DOUBLE_EQ(fused_cost->joules, fused_no_device->joules);

  // The unfused plan spills all 50k rows; pricing must show it.
  PhysicalPlan unfused = *canonical;
  unfused.use_topk = false;
  auto unfused_cost = planner.PricePlan(spec, unfused);
  auto unfused_no_device = planner.PricePlan(no_spill, unfused);
  ASSERT_TRUE(unfused_cost.ok());
  ASSERT_TRUE(unfused_no_device.ok());
  EXPECT_GT(unfused_cost->seconds, unfused_no_device->seconds);
  EXPECT_GT(unfused_cost->joules, fused_cost->joules);
}

TEST_F(OptimizerTest, LimitWithoutOrderByBuildsPlainLimit) {
  auto table = MakeTable(1, 1000, 50);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.limit = 25;

  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->use_topk);
  EXPECT_NE(plan->Describe(spec).find("-> limit(25)"), std::string::npos);
  auto op = planner.BuildOperator(spec, *plan);
  ASSERT_TRUE(op.ok());
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  auto rows = exec::CollectAll(op->get(), &ctx);
  ctx.Finish();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->TotalRows(), 25u);
}

TEST_F(OptimizerTest, PlatformDopLadderPinsToCoreCount) {
  // Dl785 models 8 sockets x 4 cores; the engine-level ladder policy stops
  // exactly at the physical core count.
  auto dl785 = power::MakeDl785Platform();
  EXPECT_EQ(PlatformDopLadder(*dl785),
            (std::vector<int>{1, 2, 4, 8, 16, 32}));
  // FlashScan models a single core: a one-entry ladder.
  EXPECT_EQ(PlatformDopLadder(*platform_), (std::vector<int>{1}));
  // Non-power-of-two core counts keep the top rung.
  EXPECT_EQ(DopLadder(6), (std::vector<int>{1, 2, 4, 6}));
}

TEST(PlannerPStateTest, EnumeratedPStateIsPricedAndRun) {
  // An aggregate + ORDER BY over a 200k-row SSD table is I/O-bound on the
  // Proportional platform, so under an energy-weighted objective a slower
  // P-state buys CPU Joules at no cost in seconds.
  core::DbConfig config;
  config.preset = core::PlatformPreset::kProportional;
  config.planner_options.enumerate_pstates = true;
  auto opened = core::EcoDb::Open(config);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  core::EcoDb& db = **opened;
  ASSERT_TRUE(db.CreateTable("t", Schema({Column{"grp", DataType::kInt64, 8},
                                          Column{"val", DataType::kDouble, 8}}))
                  .ok());
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kDouble;
  for (int i = 0; i < 200000; ++i) {
    cols[0].i64.push_back(i % 64);
    cols[1].f64.push_back((i % 37) * 0.25);
  }
  ASSERT_TRUE(db.Load("t", cols).ok());
  QuerySpec spec;
  spec.relations.resize(1);
  spec.relations[0].name = "t";
  spec.relations[0].variants = {*db.table("t")};
  spec.group_by = {"grp"};
  spec.aggregates.push_back({"total", exec::AggFunc::kSum, Col("val")});
  spec.order_by = {{"grp", true}};
  const Objective objective = Objective::Balanced(1.0);

  auto plan = db.planner()->ChoosePlan(spec, objective);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  SCOPED_TRACE(plan->Describe(spec));
  EXPECT_GT(plan->pstate, 0);
  auto repriced = db.planner()->PricePlan(spec, *plan);
  ASSERT_TRUE(repriced.ok()) << repriced.status().message();
  EXPECT_EQ(plan->cost.seconds, repriced->seconds);
  EXPECT_EQ(plan->cost.joules, repriced->joules);
  const power::CpuPowerModel& cpu = db.platform()->cpu();
  for (int pstate = 0; pstate < cpu.num_pstates(); ++pstate) {
    PhysicalPlan other = *plan;
    other.pstate = pstate;
    auto cost = db.planner()->PricePlan(spec, other);
    ASSERT_TRUE(cost.ok()) << cost.status().message();
    EXPECT_LE(plan->cost.Scalarize(objective), cost->Scalarize(objective))
        << "pstate=" << pstate;
  }

  auto outcome = db.Execute(spec, objective);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  ASSERT_TRUE(outcome->plan.has_value());
  EXPECT_EQ(outcome->plan->pstate, plan->pstate);
  const exec::QueryStats& stats = outcome->stats;
  EXPECT_NEAR(stats.cpu_seconds,
              cpu.SecondsForInstructions(stats.cpu_instructions, plan->pstate),
              1e-12 * stats.cpu_seconds);
}

TEST_F(OptimizerTest, EstimatedTimeTracksMeasuredTime) {
  // The cost model and the executor share constants, so the estimate must
  // land within a factor of ~2 of the measurement for a simple scan.
  auto table = MakeTable(1, 500000, 1000);
  QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {table.get()};
  spec.left.columns = {"k", "v", "w"};

  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  auto op = planner.BuildOperator(spec, *plan);
  ASSERT_TRUE(op.ok());
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  ASSERT_TRUE(exec::CollectAll(op->get(), &ctx).ok());
  const exec::QueryStats stats = ctx.Finish();
  EXPECT_GT(plan->cost.seconds, stats.elapsed_seconds * 0.5);
  EXPECT_LT(plan->cost.seconds, stats.elapsed_seconds * 2.0);
}

TEST_F(OptimizerTest, MalformedSpecsRejected) {
  CostModel model = MakeModel();
  Planner planner(&model);
  QuerySpec empty;
  EXPECT_FALSE(planner.ChoosePlan(empty, Objective::Performance()).ok());

  auto table = MakeTable(1, 10, 10);
  auto other = MakeTable(2, 10, 10, "o");
  QuerySpec bad_key;
  bad_key.relations.resize(2);
  bad_key.relations[0].name = "t";
  bad_key.relations[0].variants = {table.get()};
  bad_key.relations[1].name = "t2";
  bad_key.relations[1].variants = {other.get()};
  bad_key.edges = {{0, 1, "no_such", "ok"}};
  EXPECT_FALSE(planner.ChoosePlan(bad_key, Objective::Performance()).ok());

  // The one-relation shorthand and the relation list are exclusive.
  QuerySpec both;
  both.left.name = "t";
  both.left.variants = {table.get()};
  both.relations = {both.left};
  EXPECT_EQ(planner.ChoosePlan(both, Objective::Performance()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OptimizerTest, DescribeMentionsChoices) {
  auto table = MakeTable(1, 10, 10);
  QuerySpec spec;
  spec.left.name = "mytable";
  spec.left.variants = {table.get()};
  CostModel model = MakeModel();
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  const std::string desc = plan->Describe(spec);
  EXPECT_NE(desc.find("mytable"), std::string::npos);
  EXPECT_NE(desc.find("dop="), std::string::npos);
}

// --- N-way join ordering -------------------------------------------------------

/// Fixture addition: tables with per-relation column names (the planner
/// requires unique names across relations).
class JoinOrderFlipTest : public OptimizerTest {
 protected:
  /// `big` (40k narrow rows) -- `mid` (10k narrow rows) -- `fat` (2k rows,
  /// one ~400-byte string column, filtered to ~500 rows). The chain is built
  /// so the time-optimal and memory-optimal join orders differ:
  ///   right-deep  big >< (mid >< fat): fewer build rows (fast), but holds
  ///     the WIDE 2.5k-row mid><fat intermediate resident (~1.1 MB);
  ///   left-deep  (big >< mid) >< fat: builds all 10k mid rows (slower),
  ///     but only narrow tables stay resident (~0.5 MB).
  /// With lambda = 0 the planner must pick the former; with a high lambda
  /// and a DRAM power premium, the latter.
  QuerySpec MakeChainSpec() {
    QuerySpec spec;
    TableAlternatives big;
    big.name = "big";
    big.variants = {big_.get()};
    TableAlternatives mid;
    mid.name = "mid";
    mid.variants = {mid_.get()};
    TableAlternatives fat;
    fat.name = "fat";
    fat.variants = {fat_.get()};
    fat.filter = Col("fp") < Lit(int64_t{500});
    spec.relations = {std::move(big), std::move(mid), std::move(fat)};
    spec.edges = {{0, 1, "bk", "tk"}, {1, 2, "fk", "fk_f"}};
    return spec;
  }

  void SetUp() override {
    Schema big_schema({Column{"bk", DataType::kInt64, 8}});
    big_ = std::make_unique<storage::TableStorage>(
        11, big_schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> bc(1);
    bc[0].type = DataType::kInt64;
    for (int i = 0; i < 40000; ++i) bc[0].i64.push_back(i % 10000 + 1);
    ASSERT_TRUE(big_->Append(bc).ok());

    Schema mid_schema({Column{"tk", DataType::kInt64, 8},
                       Column{"fk", DataType::kInt64, 8}});
    mid_ = std::make_unique<storage::TableStorage>(
        12, mid_schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> mc(2);
    mc[0].type = DataType::kInt64;
    mc[1].type = DataType::kInt64;
    for (int i = 0; i < 10000; ++i) {
      mc[0].i64.push_back(i + 1);        // dense: big.bk always resolves
      mc[1].i64.push_back(i % 2000 + 1);  // 2000 distinct fat links
    }
    ASSERT_TRUE(mid_->Append(mc).ok());

    Schema fat_schema({Column{"fk_f", DataType::kInt64, 8},
                       Column{"fp", DataType::kInt64, 8},
                       Column{"blob", DataType::kString, 400}});
    fat_ = std::make_unique<storage::TableStorage>(
        13, fat_schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> fc(3);
    fc[0].type = DataType::kInt64;
    fc[1].type = DataType::kInt64;
    fc[2].type = DataType::kString;
    for (int i = 0; i < 2000; ++i) {
      fc[0].i64.push_back(i + 1);
      fc[1].i64.push_back(i);
      fc[2].str.push_back(std::string(400, 'x'));
    }
    ASSERT_TRUE(fat_->Append(fc).ok());
  }

  std::unique_ptr<storage::TableStorage> big_, mid_, fat_;
};

TEST_F(JoinOrderFlipTest, LambdaFlipsChosenJoinOrder) {
  const QuerySpec spec = MakeChainSpec();
  CostModel model = MakeModel(/*memory_premium=*/1e6);
  // Pin the algorithm to hash joins so the flip below is unambiguously an
  // ORDER decision: with algorithms enumerated too, a high lambda can first
  // escape into sort-merge (whose build side never sits resident) and mask
  // the reordering this test exists to prove.
  PlannerOptions options;
  options.enumerate_join_algorithms = false;
  Planner planner(&model, options);

  auto perf = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(perf.ok()) << perf.status().message();
  auto energy = planner.ChoosePlan(spec, Objective::Balanced(10.0));
  ASSERT_TRUE(energy.ok()) << energy.status().message();

  // The headline of this subsystem: raising lambda changes the chosen JOIN
  // ORDER, not merely an algorithm knob.
  EXPECT_NE(perf->LeafOrder(), energy->LeafOrder())
      << "perf:   " << perf->Describe(spec)
      << "\nenergy: " << energy->Describe(spec);
  // And in the direction the paper predicts: the energy plan trades seconds
  // for Joules.
  EXPECT_LT(energy->cost.joules, perf->cost.joules);
  EXPECT_GE(energy->cost.seconds, perf->cost.seconds);
}

TEST_F(JoinOrderFlipTest, ChosenCostSelfConsistentWithPricePlan) {
  const QuerySpec spec = MakeChainSpec();
  CostModel model = MakeModel(1e6);
  Planner planner(&model);
  for (double lambda : {0.0, 10.0}) {
    SCOPED_TRACE("lambda=" + std::to_string(lambda));
    auto plan = planner.ChoosePlan(spec, Objective::Balanced(lambda));
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    auto repriced = planner.PricePlan(spec, *plan);
    ASSERT_TRUE(repriced.ok()) << repriced.status().message();
    // Bit-identical, not merely close: ChoosePlan's final cost must come
    // from the same pricing walk PricePlan dispatches to.
    EXPECT_EQ(plan->cost.seconds, repriced->seconds);
    EXPECT_EQ(plan->cost.joules, repriced->joules);
  }
}

TEST_F(JoinOrderFlipTest, DescribeRendersFullJoinTree) {
  const QuerySpec spec = MakeChainSpec();
  CostModel model = MakeModel(1e6);
  Planner planner(&model);
  auto plan = planner.ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  const std::string desc = plan->Describe(spec);
  // All three scans and two join operators appear in one parenthesized tree.
  EXPECT_NE(desc.find("seq-scan(big v0)"), std::string::npos) << desc;
  EXPECT_NE(desc.find("seq-scan(mid v0)"), std::string::npos) << desc;
  EXPECT_NE(desc.find("seq-scan(fat v0)"), std::string::npos) << desc;
  EXPECT_NE(desc.find("("), std::string::npos) << desc;
}

TEST_F(JoinOrderFlipTest, DisconnectedGraphRejected) {
  QuerySpec spec = MakeChainSpec();
  spec.edges.pop_back();  // fat is now unreachable: a cross product
  CostModel model = MakeModel();
  Planner planner(&model);
  EXPECT_FALSE(planner.ChoosePlan(spec, Objective::Performance()).ok());
}

TEST_F(JoinOrderFlipTest, DuplicateColumnNamesRejected) {
  QuerySpec spec = MakeChainSpec();
  // Two relations over the SAME table storage share every column name.
  spec.relations[2] = spec.relations[1];
  spec.edges = {{0, 1, "bk", "tk"}, {1, 2, "fk", "fk"}};
  CostModel model = MakeModel();
  Planner planner(&model);
  EXPECT_FALSE(planner.ChoosePlan(spec, Objective::Performance()).ok());
}

}  // namespace
}  // namespace ecodb::optimizer
