// Tests for zone maps and scan pruning: correctness (never drops matching
// rows), effectiveness on clustered data, and I/O-volume accounting.

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "exec/filter_project.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;
using exec::LitDate;

class ZoneMapTest : public ::testing::Test {
 protected:
  ZoneMapTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s", power::SsdSpec{},
                                                platform_->meter());
  }

  // day is clustered (sorted); noise is uniform random (unclustered).
  std::unique_ptr<storage::TableStorage> MakeTable(int rows,
                                                   size_t block_rows) {
    Schema schema({Column{"day", DataType::kDate, 8},
                   Column{"noise", DataType::kInt64, 8},
                   Column{"amount", DataType::kDouble, 8},
                   Column{"tag", DataType::kString, 2}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(4);
    cols[0].type = DataType::kDate;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    cols[3].type = DataType::kString;
    Rng rng(6);
    for (int i = 0; i < rows; ++i) {
      cols[0].i64.push_back(i / 10);  // clustered: 10 rows per day
      cols[1].i64.push_back(rng.Uniform(0, rows));
      cols[2].f64.push_back(i * 0.5);
      cols[3].str.push_back(i < rows / 2 ? "aa" : "zz");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    EXPECT_TRUE(table->BuildZoneMaps(block_rows).ok());
    return table;
  }

  exec::QueryStats RunScan(const storage::TableStorage& table,
                           exec::ExprPtr filter, size_t* rows_out,
                           size_t* blocks_skipped = nullptr) {
    exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
    // Exact filter downstream of the pruning scan.
    auto scan = std::make_unique<exec::TableScanOp>(
        &table, std::vector<std::string>{}, filter);
    exec::TableScanOp* scan_ptr = scan.get();
    exec::FilterOp plan(std::move(scan), filter);
    auto result = exec::CollectAll(&plan, &ctx);
    EXPECT_TRUE(result.ok());
    *rows_out = result->TotalRows();
    if (blocks_skipped != nullptr) {
      *blocks_skipped = scan_ptr->blocks_skipped();
    }
    return ctx.Finish();
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

TEST_F(ZoneMapTest, BuildComputesPerBlockMinMax) {
  auto table = MakeTable(1000, 100);
  const storage::ZoneMapSet& zones = table->zone_maps();
  ASSERT_EQ(zones.num_blocks(), 10u);
  // Block 3 holds rows 300..399 -> days 30..39.
  EXPECT_EQ(zones.entries[0][3].min_i64, 30);
  EXPECT_EQ(zones.entries[0][3].max_i64, 39);
  // Doubles use the f64 lanes.
  EXPECT_DOUBLE_EQ(zones.entries[2][0].min_f64, 0.0);
  EXPECT_DOUBLE_EQ(zones.entries[2][0].max_f64, 99 * 0.5);
}

TEST_F(ZoneMapTest, ZeroBlockRowsRejected) {
  auto table = MakeTable(100, 10);
  EXPECT_FALSE(table->BuildZoneMaps(0).ok());
}

TEST_F(ZoneMapTest, PruningNeverChangesTheAnswer) {
  auto table = MakeTable(2000, 100);
  const exec::ExprPtr filters[] = {
      Col("day") < LitDate(40),
      Col("day") >= LitDate(180),
      exec::And(Col("day") >= LitDate(50), Col("day") < LitDate(60)),
      Col("noise") < Lit(int64_t{100}),           // unclustered
      Col("amount") > Lit(900.0),                 // double lane
      exec::Or(Col("day") < LitDate(5), Col("day") > LitDate(195)),
      Col("tag") == Lit("aa"),                    // string equality
  };
  for (const exec::ExprPtr& f : filters) {
    // Reference: same plan without pruning.
    size_t pruned_rows = 0, plain_rows = 0;
    RunScan(*table, f, &pruned_rows);

    exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
    exec::FilterOp plain(std::make_unique<exec::TableScanOp>(table.get()),
                         f);
    auto result = exec::CollectAll(&plain, &ctx);
    ASSERT_TRUE(result.ok());
    ctx.Finish();
    plain_rows = result->TotalRows();

    EXPECT_EQ(pruned_rows, plain_rows) << f->ToString();
  }
}

TEST_F(ZoneMapTest, ClusteredPredicateSkipsBlocks) {
  auto table = MakeTable(2000, 100);
  size_t rows = 0, skipped = 0;
  RunScan(*table, Col("day") < LitDate(20), &rows, &skipped);
  EXPECT_EQ(rows, 200u);
  // Rows 0..199 live in blocks 0-1 of 20 -> 18 blocks skipped.
  EXPECT_EQ(skipped, 18u);
}

TEST_F(ZoneMapTest, UnclusteredPredicateSkipsNothing) {
  auto table = MakeTable(2000, 100);
  size_t rows = 0, skipped = 0;
  // Every 100-row block almost surely holds a value below 500 of 2000, so
  // nothing can be pruned on the unclustered column.
  RunScan(*table, Col("noise") < Lit(int64_t{500}), &rows, &skipped);
  EXPECT_EQ(skipped, 0u);
}

TEST_F(ZoneMapTest, PruningReducesIoBytes) {
  auto table = MakeTable(5000, 100);
  size_t rows = 0;
  const exec::QueryStats pruned =
      RunScan(*table, Col("day") < LitDate(50), &rows);

  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  exec::FilterOp plain(std::make_unique<exec::TableScanOp>(table.get()),
                       Col("day") < LitDate(50));
  ASSERT_TRUE(exec::CollectAll(&plain, &ctx).ok());
  const exec::QueryStats full = ctx.Finish();

  EXPECT_LT(pruned.io_bytes, full.io_bytes / 5);
  EXPECT_LT(pruned.Joules(), full.Joules());
}

TEST_F(ZoneMapTest, NoZoneMapsMeansNoPruning) {
  // Table without zone maps: the prune filter is ignored gracefully.
  Schema schema({Column{"x", DataType::kInt64, 8}});
  storage::TableStorage table(2, schema, storage::TableLayout::kColumn,
                              ssd_.get());
  std::vector<storage::ColumnData> cols(1);
  cols[0].type = DataType::kInt64;
  for (int i = 0; i < 100; ++i) cols[0].i64.push_back(i);
  ASSERT_TRUE(table.Append(cols).ok());

  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  exec::TableScanOp scan(&table, std::vector<std::string>{},
                         Col("x") < Lit(int64_t{10}));
  auto result = exec::CollectAll(&scan, &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 100u);  // conservative: emits everything
  EXPECT_EQ(scan.blocks_skipped(), 0u);
}

TEST_F(ZoneMapTest, StringRangePredicatesAreConservative) {
  auto table = MakeTable(2000, 100);
  size_t rows = 0, skipped = 0;
  RunScan(*table, Col("tag") < Lit("bb"), &rows, &skipped);
  EXPECT_EQ(rows, 1000u);   // exact filter still correct
  EXPECT_EQ(skipped, 0u);   // prefix summaries prune only equality
  RunScan(*table, Col("tag") == Lit("zz"), &rows, &skipped);
  EXPECT_EQ(rows, 1000u);
  EXPECT_GT(skipped, 0u);   // equality does prune
}

TEST_F(ZoneMapTest, LiteralOnLeftPrunesLikeFlippedComparison) {
  // "lit op col" prunes through the same normalizer as "col op' lit": for
  // each of the six comparisons both spellings skip the same blocks and
  // return the same rows. 20 blocks of 10 days each; the literal is day 50.
  auto table = MakeTable(2000, 100);
  using exec::CompareOp;
  const std::pair<CompareOp, CompareOp> ops[] = {
      {CompareOp::kEq, CompareOp::kEq}, {CompareOp::kNe, CompareOp::kNe},
      {CompareOp::kLt, CompareOp::kGt}, {CompareOp::kLe, CompareOp::kGe},
      {CompareOp::kGt, CompareOp::kLt}, {CompareOp::kGe, CompareOp::kLe}};
  for (const auto& [op, flipped] : ops) {
    const exec::ExprPtr lit_col =
        exec::Expr::Compare(op, LitDate(50), Col("day"));
    const exec::ExprPtr col_lit =
        exec::Expr::Compare(flipped, Col("day"), LitDate(50));
    size_t lit_rows = 0, lit_skipped = 0, col_rows = 0, col_skipped = 0;
    RunScan(*table, lit_col, &lit_rows, &lit_skipped);
    RunScan(*table, col_lit, &col_rows, &col_skipped);
    EXPECT_EQ(lit_skipped, col_skipped) << lit_col->ToString();
    EXPECT_EQ(lit_rows, col_rows) << lit_col->ToString();
    if (op != CompareOp::kNe) {
      EXPECT_GT(lit_skipped, 0u) << lit_col->ToString();
    }
  }
}

TEST_F(ZoneMapTest, RandomizedPruningEquivalence) {
  auto table = MakeTable(3000, 64);
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const int64_t lo = rng.Uniform(0, 300);
    const int64_t hi = lo + rng.Uniform(0, 100);
    exec::ExprPtr f = exec::And(Col("day") >= LitDate(lo),
                                Col("day") <= LitDate(hi));
    size_t pruned_rows = 0;
    RunScan(*table, f, &pruned_rows);
    // Analytic expectation: days are i/10 over 0..299, 10 rows each.
    const int64_t first = std::max<int64_t>(lo, 0);
    const int64_t last = std::min<int64_t>(hi, 299);
    const size_t expect =
        last >= first ? static_cast<size_t>(last - first + 1) * 10 : 0;
    EXPECT_EQ(pruned_rows, expect) << "[" << lo << "," << hi << "]";
  }
}

}  // namespace
}  // namespace ecodb
