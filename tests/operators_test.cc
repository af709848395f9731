// Tests for the physical operators: scan, filter, project, three joins
// (cross-checked against each other), aggregation, sort, and limit — all
// running over real data with a metered platform underneath.

#include <memory>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/joins.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

class OperatorTest : public ::testing::Test {
 protected:
  OperatorTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  // Builds a small "orders" table: id 1..n, customer id, price, tag.
  std::unique_ptr<storage::TableStorage> MakeOrders(int n) {
    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"cust", DataType::kInt64, 8},
                   Column{"price", DataType::kDouble, 8},
                   Column{"tag", DataType::kString, 4}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(4);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    cols[3].type = DataType::kString;
    for (int i = 1; i <= n; ++i) {
      cols[0].i64.push_back(i);
      cols[1].i64.push_back(1 + (i % 5));
      cols[2].f64.push_back(i * 10.0);
      cols[3].str.push_back(i % 2 ? "odd" : "even");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  // A "customers" table keyed 1..5.
  std::unique_ptr<storage::TableStorage> MakeCustomers() {
    Schema schema({Column{"cid", DataType::kInt64, 8},
                   Column{"name", DataType::kString, 8}});
    auto table = std::make_unique<storage::TableStorage>(
        2, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kString;
    for (int i = 1; i <= 5; ++i) {
      cols[0].i64.push_back(i);
      cols[1].str.push_back("c" + std::to_string(i));
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  StatusOr<QueryResultSet> RunPlan(Operator* root) {
    ExecContext ctx(platform_.get(), ExecOptions{});
    auto result = CollectAll(root, &ctx);
    if (result.ok()) ctx.Finish();
    return result;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

// --- Scan ---------------------------------------------------------------------

TEST_F(OperatorTest, ScanReturnsAllRows) {
  auto table = MakeOrders(100);
  TableScanOp scan(table.get());
  auto result = RunPlan(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 100u);
  EXPECT_EQ(result->schema.num_columns(), 4);
}

TEST_F(OperatorTest, ScanProjectsRequestedColumns) {
  auto table = MakeOrders(10);
  TableScanOp scan(table.get(), {"price", "id"});
  auto result = RunPlan(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema.num_columns(), 2);
  EXPECT_EQ(result->schema.column(0).name, "price");
  EXPECT_EQ(result->batches[0].GetValue(0, 1).i64, 1);
}

TEST_F(OperatorTest, ScanUnknownColumnFails) {
  auto table = MakeOrders(10);
  TableScanOp scan(table.get(), {"nope"});
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_EQ(scan.Open(&ctx).code(), StatusCode::kNotFound);
}

TEST_F(OperatorTest, ScanBatchesRespectBatchSize) {
  auto table = MakeOrders(10000);
  TableScanOp scan(table.get(), {"id"});
  ExecOptions options;
  options.batch_rows = 1024;
  ExecContext ctx(platform_.get(), options);
  auto result = CollectAll(&scan, &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batches.size(), 10u);  // ceil(10000/1024)
  EXPECT_EQ(result->batches[0].num_rows(), 1024u);
}

TEST_F(OperatorTest, ScanOfCompressedColumnDecodesCorrectly) {
  auto table = MakeOrders(500);
  ASSERT_TRUE(
      table->SetCompression("id", storage::CompressionKind::kDelta).ok());
  ASSERT_TRUE(table
                  ->SetCompression("tag",
                                   storage::CompressionKind::kDictionary)
                  .ok());
  TableScanOp scan(table.get(), {"id", "tag"});
  auto result = RunPlan(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 500u);
  EXPECT_EQ(result->batches[0].GetValue(41, 0).i64, 42);
  EXPECT_EQ(result->batches[0].GetValue(41, 1).str, "even");
}

TEST_F(OperatorTest, ScanChargesDeviceIo) {
  auto table = MakeOrders(10000);
  const power::MeterSnapshot s0 = platform_->meter()->Snapshot();
  TableScanOp scan(table.get(), {"id"});
  ASSERT_TRUE(RunPlan(&scan).ok());
  const auto delta =
      power::EnergyMeter::Delta(s0, platform_->meter()->Snapshot());
  EXPECT_GT(delta.busy_seconds[ssd_->channel().index], 0.0);
}

// --- Filter / Project -----------------------------------------------------------

TEST_F(OperatorTest, FilterKeepsMatchingRows) {
  auto table = MakeOrders(100);
  auto plan = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(table.get()),
      Col("price") > Lit(500.0));
  auto result = RunPlan(plan.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 50u);
}

TEST_F(OperatorTest, FilterOnStringColumn) {
  auto table = MakeOrders(100);
  auto plan = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(table.get()), Col("tag") == Lit("odd"));
  auto result = RunPlan(plan.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 50u);
}

TEST_F(OperatorTest, FilterUnboundColumnFailsOpen) {
  auto table = MakeOrders(10);
  auto plan = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(table.get(), std::vector<std::string>{"id"}),
      Col("price") > Lit(1.0));
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_FALSE(plan->Open(&ctx).ok());
}

TEST_F(OperatorTest, ProjectComputesExpressions) {
  auto table = MakeOrders(10);
  std::vector<ProjectionItem> items;
  items.push_back({"double_price", Col("price") * Lit(2.0)});
  items.push_back({"id", Col("id")});
  auto plan = std::make_unique<ProjectOp>(
      std::make_unique<TableScanOp>(table.get()), std::move(items));
  auto result = RunPlan(plan.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema.column(0).name, "double_price");
  EXPECT_DOUBLE_EQ(result->batches[0].GetValue(2, 0).f64, 60.0);
}

// --- Joins ----------------------------------------------------------------------

TEST_F(OperatorTest, HashJoinMatchesKeys) {
  auto orders = MakeOrders(50);
  auto customers = MakeCustomers();
  HashJoinOp join(std::make_unique<TableScanOp>(orders.get()),
                  std::make_unique<TableScanOp>(customers.get()), "cust",
                  "cid");
  auto result = RunPlan(&join);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 50u);  // every order has one customer
  // Output schema is left columns then right columns.
  EXPECT_EQ(result->schema.column(0).name, "id");
  EXPECT_EQ(result->schema.column(4).name, "cid");
}

TEST_F(OperatorTest, HashJoinDuplicateBuildKeysFanOut) {
  auto orders = MakeOrders(10);
  // Join orders to orders on cust: each probe row matches two build rows
  // per key (10 rows / 5 keys = 2 each) -> 20 results.
  auto left = MakeOrders(10);
  HashJoinOp join(std::make_unique<TableScanOp>(left.get(), std::vector<std::string>{"id", "cust"}),
                  std::make_unique<TableScanOp>(orders.get(), std::vector<std::string>{"cust"}),
                  "cust", "cust");
  auto result = RunPlan(&join);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 20u);
  // Collided column name got the _r suffix.
  EXPECT_EQ(result->schema.column(2).name, "cust_r");
}

TEST_F(OperatorTest, HashJoinStringKeys) {
  auto a = MakeOrders(20);
  auto b = MakeOrders(6);
  HashJoinOp join(std::make_unique<TableScanOp>(a.get(), std::vector<std::string>{"id", "tag"}),
                  std::make_unique<TableScanOp>(b.get(), std::vector<std::string>{"tag"}), "tag",
                  "tag");
  auto result = RunPlan(&join);
  ASSERT_TRUE(result.ok());
  // 20 probe rows x 3 matching build rows each (6 rows, 2 tags).
  EXPECT_EQ(result->TotalRows(), 60u);
}

TEST_F(OperatorTest, HashJoinEmptyBuildSideYieldsNothing) {
  auto orders = MakeOrders(10);
  auto empty = MakeCustomers();
  auto filtered = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(empty.get()),
      Col("cid") > Lit(int64_t{100}));
  HashJoinOp join(std::make_unique<TableScanOp>(orders.get()),
                  std::move(filtered), "cust", "cid");
  auto result = RunPlan(&join);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 0u);
}

TEST_F(OperatorTest, HashJoinReopenBuildsOnce) {
  // Open is retried after a mid-query error (a sort or top-k over a join):
  // the second Open must rebuild the build table, not add to it.
  auto left = MakeOrders(100);
  auto right = MakeOrders(100);
  HashJoinOp join(
      std::make_unique<TableScanOp>(left.get(), std::vector<std::string>{"id"}),
      std::make_unique<TableScanOp>(right.get(),
                                    std::vector<std::string>{"id"}),
      "id", "id");
  ExecContext ctx(platform_.get(), ExecOptions{});
  ASSERT_TRUE(join.Open(&ctx).ok());
  ASSERT_TRUE(join.Open(&ctx).ok());
  size_t rows = 0;
  RecordBatch batch;
  bool eos = false;
  while (true) {
    ASSERT_TRUE(join.Next(&batch, &eos).ok());
    if (eos) break;
    rows += batch.num_rows();
  }
  join.Close();
  ctx.Finish();
  EXPECT_EQ(rows, 100u);
}

TEST_F(OperatorTest, HashJoinMissingKeyFailsOpen) {
  auto orders = MakeOrders(5);
  auto customers = MakeCustomers();
  HashJoinOp join(std::make_unique<TableScanOp>(orders.get()),
                  std::make_unique<TableScanOp>(customers.get()), "cust",
                  "no_such_key");
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_EQ(join.Open(&ctx).code(), StatusCode::kNotFound);
}

TEST_F(OperatorTest, ThreeJoinAlgorithmsAgreeOnRowCount) {
  auto orders = MakeOrders(60);
  auto customers = MakeCustomers();

  HashJoinOp hash(std::make_unique<TableScanOp>(orders.get()),
                  std::make_unique<TableScanOp>(customers.get()), "cust",
                  "cid");
  auto hash_rows = RunPlan(&hash);
  ASSERT_TRUE(hash_rows.ok());

  MergeJoinOp merge(std::make_unique<TableScanOp>(orders.get()),
                    std::make_unique<TableScanOp>(customers.get()), "cust",
                    "cid");
  auto merge_rows = RunPlan(&merge);
  ASSERT_TRUE(merge_rows.ok());

  NestedLoopJoinOp nlj(std::make_unique<TableScanOp>(orders.get()),
                       std::make_unique<TableScanOp>(customers.get()),
                       Col("cust") == Col("cid"));
  auto nlj_rows = RunPlan(&nlj);
  ASSERT_TRUE(nlj_rows.ok());

  EXPECT_EQ(hash_rows->TotalRows(), 60u);
  EXPECT_EQ(merge_rows->TotalRows(), 60u);
  EXPECT_EQ(nlj_rows->TotalRows(), 60u);
}

TEST_F(OperatorTest, NestedLoopSupportsInequalityPredicates) {
  auto a = MakeOrders(10);
  auto b = MakeCustomers();
  NestedLoopJoinOp join(std::make_unique<TableScanOp>(a.get(), std::vector<std::string>{"id"}),
                        std::make_unique<TableScanOp>(b.get(), std::vector<std::string>{"cid"}),
                        Col("id") < Col("cid"));
  auto result = RunPlan(&join);
  ASSERT_TRUE(result.ok());
  // Pairs (id, cid) with id < cid, id in 1..10, cid in 1..5: 4+3+2+1 = 10.
  EXPECT_EQ(result->TotalRows(), 10u);
}

TEST_F(OperatorTest, HashJoinReportsBuildBytes) {
  auto orders = MakeOrders(50);
  auto customers = MakeCustomers();
  HashJoinOp join(std::make_unique<TableScanOp>(orders.get()),
                  std::make_unique<TableScanOp>(customers.get()), "cust",
                  "cid");
  ExecContext ctx(platform_.get(), ExecOptions{});
  ASSERT_TRUE(join.Open(&ctx).ok());
  EXPECT_GT(join.build_bytes(), 0u);
  join.Close();
  ctx.Finish();
}

// --- Aggregate -------------------------------------------------------------------

TEST_F(OperatorTest, GlobalAggregates) {
  auto table = MakeOrders(100);
  std::vector<AggregateItem> aggs;
  aggs.push_back({"n", AggFunc::kCount, nullptr});
  aggs.push_back({"total", AggFunc::kSum, Col("price")});
  aggs.push_back({"lo", AggFunc::kMin, Col("price")});
  aggs.push_back({"hi", AggFunc::kMax, Col("price")});
  aggs.push_back({"avg", AggFunc::kAvg, Col("price")});
  HashAggregateOp agg(std::make_unique<TableScanOp>(table.get()), {},
                      std::move(aggs));
  auto result = RunPlan(&agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 1u);
  const RecordBatch& row = result->batches[0];
  EXPECT_EQ(row.GetValue(0, 0).i64, 100);
  EXPECT_DOUBLE_EQ(row.GetValue(0, 1).f64, 50500.0);  // 10+20+...+1000
  EXPECT_DOUBLE_EQ(row.GetValue(0, 2).f64, 10.0);
  EXPECT_DOUBLE_EQ(row.GetValue(0, 3).f64, 1000.0);
  EXPECT_DOUBLE_EQ(row.GetValue(0, 4).f64, 505.0);
}

TEST_F(OperatorTest, GroupByAggregates) {
  auto table = MakeOrders(100);
  std::vector<AggregateItem> aggs;
  aggs.push_back({"n", AggFunc::kCount, nullptr});
  HashAggregateOp agg(std::make_unique<TableScanOp>(table.get()), {"tag"},
                      std::move(aggs));
  auto result = RunPlan(&agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 2u);  // odd / even
  int64_t total = 0;
  for (size_t r = 0; r < result->batches[0].num_rows(); ++r) {
    total += result->batches[0].GetValue(r, 1).i64;
  }
  EXPECT_EQ(total, 100);
}

TEST_F(OperatorTest, GroupByMultipleKeys) {
  auto table = MakeOrders(100);
  std::vector<AggregateItem> aggs;
  aggs.push_back({"n", AggFunc::kCount, nullptr});
  HashAggregateOp agg(std::make_unique<TableScanOp>(table.get()),
                      {"tag", "cust"}, std::move(aggs));
  auto result = RunPlan(&agg);
  ASSERT_TRUE(result.ok());
  // 2 tags x 5 customers, but parity correlates with cust (both from i):
  // odd i -> cust in {2,4,1,3,0}+1... verify total instead of shape.
  size_t rows = result->TotalRows();
  EXPECT_GE(rows, 5u);
  EXPECT_LE(rows, 10u);
}

TEST_F(OperatorTest, AggregateOverExpression) {
  auto table = MakeOrders(10);
  std::vector<AggregateItem> aggs;
  aggs.push_back({"revenue", AggFunc::kSum, Col("price") * Lit(0.1)});
  HashAggregateOp agg(std::make_unique<TableScanOp>(table.get()), {},
                      std::move(aggs));
  auto result = RunPlan(&agg);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->batches[0].GetValue(0, 0).f64, 55.0, 1e-9);
}

TEST_F(OperatorTest, GlobalAggregateOverEmptyInputEmitsOneRow) {
  auto table = MakeOrders(10);
  auto filtered = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(table.get()),
      Col("price") > Lit(1e12));
  std::vector<AggregateItem> aggs;
  aggs.push_back({"n", AggFunc::kCount, nullptr});
  HashAggregateOp agg(std::move(filtered), {}, std::move(aggs));
  auto result = RunPlan(&agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 1u);
  EXPECT_EQ(result->batches[0].GetValue(0, 0).i64, 0);
}

TEST_F(OperatorTest, AggregateOnStringInputRejected) {
  auto table = MakeOrders(10);
  std::vector<AggregateItem> aggs;
  aggs.push_back({"bad", AggFunc::kSum, Col("tag")});
  HashAggregateOp agg(std::make_unique<TableScanOp>(table.get()), {},
                      std::move(aggs));
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_FALSE(agg.Open(&ctx).ok());
}

// --- Sort / Limit ------------------------------------------------------------------

TEST_F(OperatorTest, SortAscendingAndDescending) {
  auto table = MakeOrders(50);
  SortOp asc(std::make_unique<TableScanOp>(table.get()),
             {{"price", /*ascending=*/true}});
  auto up = RunPlan(&asc);
  ASSERT_TRUE(up.ok());
  EXPECT_DOUBLE_EQ(up->batches[0].GetValue(0, 2).f64, 10.0);

  SortOp desc(std::make_unique<TableScanOp>(table.get()),
              {{"price", /*ascending=*/false}});
  auto down = RunPlan(&desc);
  ASSERT_TRUE(down.ok());
  EXPECT_DOUBLE_EQ(down->batches[0].GetValue(0, 2).f64, 500.0);
}

TEST_F(OperatorTest, SortMultiKeyTieBreaks) {
  auto table = MakeOrders(20);
  SortOp sort(std::make_unique<TableScanOp>(table.get()),
              {{"tag", true}, {"id", false}});
  auto result = RunPlan(&sort);
  ASSERT_TRUE(result.ok());
  // "even" before "odd"; within even, ids descend: 20, 18, ...
  EXPECT_EQ(result->batches[0].GetValue(0, 3).str, "even");
  EXPECT_EQ(result->batches[0].GetValue(0, 0).i64, 20);
  EXPECT_EQ(result->batches[0].GetValue(1, 0).i64, 18);
}

TEST_F(OperatorTest, SortSpillsWhenOverBudget) {
  auto table = MakeOrders(10000);
  SortOp sort(std::make_unique<TableScanOp>(table.get()), {{"id", true}},
              /*memory_budget_bytes=*/1024, ssd_.get());
  auto result = RunPlan(&sort);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(sort.spilled());
  EXPECT_EQ(result->TotalRows(), 10000u);
}

TEST_F(OperatorTest, SortUnknownColumnFails) {
  auto table = MakeOrders(10);
  SortOp sort(std::make_unique<TableScanOp>(table.get()), {{"zzz", true}});
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_FALSE(sort.Open(&ctx).ok());
}

TEST_F(OperatorTest, LimitTruncates) {
  auto table = MakeOrders(100);
  LimitOp limit(std::make_unique<TableScanOp>(table.get()), 7);
  auto result = RunPlan(&limit);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 7u);
}

TEST_F(OperatorTest, LimitLargerThanInputPassesAll) {
  auto table = MakeOrders(5);
  LimitOp limit(std::make_unique<TableScanOp>(table.get()), 100);
  auto result = RunPlan(&limit);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 5u);
}

TEST_F(OperatorTest, TopKViaSortThenLimit) {
  auto table = MakeOrders(100);
  auto sort = std::make_unique<SortOp>(
      std::make_unique<TableScanOp>(table.get()),
      std::vector<SortKey>{{"price", false}});
  LimitOp limit(std::move(sort), 3);
  auto result = RunPlan(&limit);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 3u);
  EXPECT_DOUBLE_EQ(result->batches[0].GetValue(0, 2).f64, 1000.0);
  EXPECT_DOUBLE_EQ(result->batches[0].GetValue(2, 2).f64, 980.0);
}

}  // namespace
}  // namespace ecodb::exec
