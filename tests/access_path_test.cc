// Tests for planner access-path selection: key-range extraction, the
// index-vs-scan choice across selectivities, zone-map-aware scan pricing,
// and that the built plans return identical answers.

#include <memory>

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/btree.h"
#include "storage/hdd.h"
#include "storage/page.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::optimizer {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::And;
using exec::Col;
using exec::ExprPtr;
using exec::Lit;

// --- ExtractKeyRange -----------------------------------------------------------

TEST(ExtractKeyRange, SingleComparisons) {
  int64_t lo, hi;
  ASSERT_TRUE(Planner::ExtractKeyRange(Col("k") < Lit(int64_t{10}), "k",
                                       &lo, &hi));
  EXPECT_EQ(hi, 9);
  EXPECT_EQ(lo, INT64_MIN);

  ASSERT_TRUE(Planner::ExtractKeyRange(Col("k") >= Lit(int64_t{5}), "k",
                                       &lo, &hi));
  EXPECT_EQ(lo, 5);

  ASSERT_TRUE(Planner::ExtractKeyRange(Col("k") == Lit(int64_t{7}), "k",
                                       &lo, &hi));
  EXPECT_EQ(lo, 7);
  EXPECT_EQ(hi, 7);
}

TEST(ExtractKeyRange, ConjunctionIntersects) {
  int64_t lo, hi;
  auto f = And(Col("k") >= Lit(int64_t{10}), Col("k") <= Lit(int64_t{20}));
  ASSERT_TRUE(Planner::ExtractKeyRange(f, "k", &lo, &hi));
  EXPECT_EQ(lo, 10);
  EXPECT_EQ(hi, 20);
}

TEST(ExtractKeyRange, MixedColumnsKeepOnlyTarget) {
  int64_t lo, hi;
  auto f = And(Col("k") > Lit(int64_t{100}), Col("other") < Lit(int64_t{5}));
  ASSERT_TRUE(Planner::ExtractKeyRange(f, "k", &lo, &hi));
  EXPECT_EQ(lo, 101);
  EXPECT_EQ(hi, INT64_MAX);
}

TEST(ExtractKeyRange, LiteralOnLeftNormalized) {
  int64_t lo, hi;
  ASSERT_TRUE(Planner::ExtractKeyRange(Lit(int64_t{50}) > Col("k"), "k",
                                       &lo, &hi));
  EXPECT_EQ(hi, 49);
}

TEST(ExtractKeyRange, BoundsBeyondInt64AreEmpty) {
  // `< INT64_MIN` and `> INT64_MAX` admit no key: the range comes back
  // empty (lo > hi), alone and intersected with an ordinary bound, instead
  // of wrapping around to the whole key domain.
  const ExprPtr below = Col("k") < Lit(int64_t{INT64_MIN});
  const ExprPtr above = Col("k") > Lit(int64_t{INT64_MAX});
  for (const ExprPtr& f :
       {below, above, And(below, Col("k") >= Lit(int64_t{5})),
        And(Col("k") <= Lit(int64_t{5}), above), And(below, above),
        Lit(int64_t{INT64_MIN}) > Col("k")}) {
    int64_t lo = 0, hi = 0;
    ASSERT_TRUE(Planner::ExtractKeyRange(f, "k", &lo, &hi)) << f->ToString();
    EXPECT_GT(lo, hi) << f->ToString();
  }
  // The extremes themselves stay reachable.
  int64_t lo = 0, hi = 0;
  ASSERT_TRUE(Planner::ExtractKeyRange(Col("k") <= Lit(int64_t{INT64_MIN}),
                                       "k", &lo, &hi));
  EXPECT_EQ(lo, INT64_MIN);
  EXPECT_EQ(hi, INT64_MIN);
  ASSERT_TRUE(Planner::ExtractKeyRange(Col("k") >= Lit(int64_t{INT64_MAX}),
                                       "k", &lo, &hi));
  EXPECT_EQ(lo, INT64_MAX);
  EXPECT_EQ(hi, INT64_MAX);
}

TEST(ExtractKeyRange, UnconstrainedReturnsFalse) {
  int64_t lo, hi;
  EXPECT_FALSE(Planner::ExtractKeyRange(nullptr, "k", &lo, &hi));
  EXPECT_FALSE(Planner::ExtractKeyRange(Col("x") < Lit(int64_t{1}), "k",
                                        &lo, &hi));
  EXPECT_FALSE(Planner::ExtractKeyRange(Col("k") < Lit(1.5), "k", &lo, &hi));
  EXPECT_FALSE(Planner::ExtractKeyRange(
      exec::Or(Col("k") < Lit(int64_t{1}), Col("k") > Lit(int64_t{5})), "k",
      &lo, &hi));
}

// --- Planner choice -------------------------------------------------------------

class AccessPathTest : public ::testing::Test {
 protected:
  AccessPathTest() : platform_(power::MakeProportionalPlatform()) {
    // Volumetrically scaled 15K disk (as in bench/ablate_index_crossover).
    power::HddSpec spec;
    spec.sustained_bw_bytes_per_s = 2e6;
    hdd_ = std::make_unique<storage::HddDevice>("h", spec,
                                                platform_->meter());

    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"v", DataType::kDouble, 8}});
    table_ = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kRow, hdd_.get());
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kDouble;
    Rng rng(8);
    std::vector<uint64_t> pos(100000);
    for (size_t i = 0; i < pos.size(); ++i) pos[i] = i;
    rng.Shuffle(&pos);  // unclustered heap
    std::vector<int64_t> key_at_row(pos.size());
    for (size_t i = 0; i < pos.size(); ++i) {
      key_at_row[pos[i]] = static_cast<int64_t>(i);
    }
    for (size_t r = 0; r < pos.size(); ++r) {
      cols[0].i64.push_back(key_at_row[r]);
      cols[1].f64.push_back(static_cast<double>(r));
    }
    EXPECT_TRUE(table_->Append(cols).ok());
    index_ = std::make_unique<storage::BTreeIndex>(128);
    for (size_t i = 0; i < pos.size(); ++i) {
      index_->Insert(static_cast<int64_t>(i), pos[i]);
    }
    model_ = std::make_unique<CostModel>(platform_.get(),
                                         CostModelParams{});
    planner_ = std::make_unique<Planner>(model_.get());
  }

  QuerySpec SpecWithRange(int64_t hi) {
    QuerySpec spec;
    spec.left.name = "t";
    spec.left.variants = {table_.get()};
    spec.left.columns = {"id", "v"};
    spec.left.filter =
        And(Col("id") >= Lit(int64_t{0}), Col("id") <= Lit(hi));
    spec.left.index = index_.get();
    spec.left.index_column = "id";
    return spec;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::HddDevice> hdd_;
  std::unique_ptr<storage::TableStorage> table_;
  std::unique_ptr<storage::BTreeIndex> index_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(AccessPathTest, NarrowRangePicksIndex) {
  auto plan = planner_->ChoosePlan(SpecWithRange(20),
                                   Objective::Performance());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->join_nodes[plan->join_root].path, AccessPath::kIndexScan);
}

TEST_F(AccessPathTest, WideRangePicksSequentialScan) {
  auto plan = planner_->ChoosePlan(SpecWithRange(80000),
                                   Objective::Performance());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->join_nodes[plan->join_root].path, AccessPath::kTableScan);
}

TEST_F(AccessPathTest, EnergyObjectiveAlsoCrossesOver) {
  auto narrow =
      planner_->ChoosePlan(SpecWithRange(20), Objective::Energy());
  auto wide =
      planner_->ChoosePlan(SpecWithRange(80000), Objective::Energy());
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(narrow->join_nodes[narrow->join_root].path,
            AccessPath::kIndexScan);
  EXPECT_EQ(wide->join_nodes[wide->join_root].path, AccessPath::kTableScan);
}

TEST_F(AccessPathTest, NoIndexMeansNoIndexPath) {
  QuerySpec spec = SpecWithRange(20);
  spec.left.index = nullptr;
  auto plan = planner_->ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->join_nodes[plan->join_root].path, AccessPath::kTableScan);
}

TEST_F(AccessPathTest, BothPathsReturnIdenticalRows) {
  const QuerySpec spec = SpecWithRange(500);
  auto canonical = CanonicalJoinPlan(spec);
  ASSERT_TRUE(canonical.ok()) << canonical.status().message();
  for (AccessPath path :
       {AccessPath::kTableScan, AccessPath::kIndexScan}) {
    PhysicalPlan plan = *canonical;
    plan.join_nodes[plan.join_root].path = path;
    auto op = planner_->BuildOperator(spec, plan);
    ASSERT_TRUE(op.ok());
    exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
    auto rows = exec::CollectAll(op->get(), &ctx);
    ctx.Finish();
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->TotalRows(), 501u) << AccessPathName(path);
  }
}

TEST_F(AccessPathTest, KeyBelowInt64MinPlansAndRunsToNoRows) {
  // No key lies below INT64_MIN, so the index range is empty: the plan
  // reads at most the index's root-to-leaf path and returns no rows.
  QuerySpec spec = SpecWithRange(20);
  spec.left.filter = Col("id") < Lit(int64_t{INT64_MIN});
  auto plan = planner_->ChoosePlan(spec, Objective::Performance());
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->join_nodes[plan->join_root].path, AccessPath::kIndexScan);
  auto op = planner_->BuildOperator(spec, *plan);
  ASSERT_TRUE(op.ok()) << op.status().message();
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  auto rows = exec::CollectAll(op->get(), &ctx);
  const exec::QueryStats stats = ctx.Finish();
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  EXPECT_EQ(rows->TotalRows(), 0u);
  EXPECT_LE(stats.io_bytes, static_cast<uint64_t>(index_->height()) *
                                storage::Page::kPageSize);
}

TEST_F(AccessPathTest, DescribeNamesTheAccessPath) {
  auto plan = planner_->ChoosePlan(SpecWithRange(20),
                                   Objective::Performance());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->Describe(SpecWithRange(20)).find("index-scan"),
            std::string::npos);
}

// --- Zone-map-aware pricing ------------------------------------------------------

TEST_F(AccessPathTest, ZoneMapsLowerEstimatedScanCost) {
  // A clustered copy of the data with zone maps: the planner's scan price
  // must drop for a selective range filter.
  Schema schema({Column{"id", DataType::kInt64, 8},
                 Column{"v", DataType::kDouble, 8}});
  storage::TableStorage clustered(2, schema, storage::TableLayout::kRow,
                                  hdd_.get());
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kDouble;
  for (int i = 0; i < 100000; ++i) {
    cols[0].i64.push_back(i);
    cols[1].f64.push_back(i);
  }
  ASSERT_TRUE(clustered.Append(cols).ok());

  QuerySpec spec;
  spec.left.name = "c";
  spec.left.variants = {&clustered};
  spec.left.columns = {"id", "v"};
  spec.left.filter = Col("id") < Lit(int64_t{1000});

  auto scan_plan = CanonicalJoinPlan(spec);  // variant 0, table scan
  ASSERT_TRUE(scan_plan.ok()) << scan_plan.status().message();
  auto before = planner_->PricePlan(spec, *scan_plan);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(clustered.BuildZoneMaps(1000).ok());
  auto after = planner_->PricePlan(spec, *scan_plan);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->seconds, before->seconds / 5);
  EXPECT_LT(after->joules, before->joules);
}

}  // namespace
}  // namespace ecodb::optimizer
