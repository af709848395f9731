// Tests for the TPC-H-like generator and the throughput-test workload.

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "power/platform.h"
#include "storage/ssd.h"
#include "tpch/generator.h"
#include "tpch/workload.h"

namespace ecodb::tpch {
namespace {

TpchConfig SmallConfig() {
  TpchConfig config;
  config.scale_factor = 0.2;  // 3000 orders, ~12000 lineitems
  return config;
}

TEST(TpchGenerator, SchemasHaveExpectedShape) {
  EXPECT_EQ(OrdersSchema().num_columns(), 7);  // the [HLA+06] 7-attr ORDERS
  EXPECT_EQ(LineitemSchema().num_columns(), 8);
  EXPECT_GE(OrdersSchema().FindColumn("o_orderkey"), 0);
  EXPECT_GE(LineitemSchema().FindColumn("l_shipdate"), 0);
}

TEST(TpchGenerator, DeterministicAcrossCalls) {
  const auto a = GenerateOrders(SmallConfig());
  const auto b = GenerateOrders(SmallConfig());
  EXPECT_EQ(a[0].i64, b[0].i64);
  EXPECT_EQ(a[3].f64, b[3].f64);
  EXPECT_EQ(a[5].str, b[5].str);
}

TEST(TpchGenerator, SeedChangesData) {
  TpchConfig other = SmallConfig();
  other.seed = 999;
  const auto a = GenerateOrders(SmallConfig());
  const auto b = GenerateOrders(other);
  EXPECT_NE(a[1].i64, b[1].i64);  // custkeys differ
  EXPECT_EQ(a[0].i64, b[0].i64);  // orderkeys are structural (1..n)
}

TEST(TpchGenerator, OrdersValueRanges) {
  const auto cols = GenerateOrders(SmallConfig());
  const size_t n = cols[0].i64.size();
  EXPECT_EQ(n, 3000u);
  std::set<std::string> statuses(cols[2].str.begin(), cols[2].str.end());
  EXPECT_LE(statuses.size(), 3u);
  std::set<std::string> priorities(cols[5].str.begin(), cols[5].str.end());
  EXPECT_LE(priorities.size(), 5u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(cols[0].i64[i], static_cast<int64_t>(i + 1));
    EXPECT_GE(cols[3].f64[i], 850.0);
    EXPECT_GE(cols[4].i64[i], kDateEpochStart);
    EXPECT_LT(cols[4].i64[i], kDateEpochStart + kDateRangeDays);
    EXPECT_EQ(cols[6].i64[i], 0);  // o_shippriority constant
  }
}

TEST(TpchGenerator, LineitemReferencesOrders) {
  const auto lines = GenerateLineitem(SmallConfig());
  const size_t orders = 3000;
  for (int64_t key : lines[0].i64) {
    EXPECT_GE(key, 1);
    EXPECT_LE(key, static_cast<int64_t>(orders));
  }
  // Roughly lineitems_per_order lines per order.
  const double ratio =
      static_cast<double>(lines[0].i64.size()) / static_cast<double>(orders);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 6.0);
}

TEST(TpchGenerator, DiscountsWithinTpchRange) {
  const auto lines = GenerateLineitem(SmallConfig());
  for (double d : lines[5].f64) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 0.10 + 1e-12);
  }
}

// --- The widened schema (CUSTOMER / PART / SUPPLIER / PARTSUPP) ---------------

TEST(TpchGenerator, WidenedSchemasHaveExpectedShape) {
  EXPECT_EQ(CustomerSchema().num_columns(), 5);
  EXPECT_EQ(PartSchema().num_columns(), 5);
  EXPECT_EQ(SupplierSchema().num_columns(), 4);
  EXPECT_EQ(PartsuppSchema().num_columns(), 4);
  EXPECT_GE(CustomerSchema().FindColumn("c_mktsegment"), 0);
  EXPECT_GE(PartSchema().FindColumn("p_brand"), 0);
  EXPECT_GE(SupplierSchema().FindColumn("s_nationkey"), 0);
  EXPECT_GE(PartsuppSchema().FindColumn("ps_supplycost"), 0);
}

TEST(TpchGenerator, RowCountsScaleVolumetrically) {
  const TpchRowCounts small = RowCountsFor(SmallConfig());
  EXPECT_EQ(small.orders, 3000u);
  EXPECT_EQ(small.customers, 300u);
  EXPECT_EQ(small.parts, 375u);
  EXPECT_EQ(small.suppliers, 20u);
  EXPECT_EQ(small.partsupp, 750u);

  TpchConfig bigger = SmallConfig();
  bigger.scale_factor = 0.4;
  const TpchRowCounts big = RowCountsFor(bigger);
  EXPECT_EQ(big.orders, 2 * small.orders);
  EXPECT_EQ(big.customers, 2 * small.customers);
  EXPECT_EQ(big.partsupp, 2 * small.partsupp);

  EXPECT_EQ(GenerateCustomer(SmallConfig())[0].i64.size(), small.customers);
  EXPECT_EQ(GeneratePart(SmallConfig())[0].i64.size(), small.parts);
  EXPECT_EQ(GenerateSupplier(SmallConfig())[0].i64.size(), small.suppliers);
  EXPECT_EQ(GeneratePartsupp(SmallConfig())[0].i64.size(), small.partsupp);
}

TEST(TpchGenerator, WidenedTablesDeterministicAcrossCalls) {
  EXPECT_EQ(GenerateCustomer(SmallConfig())[3].f64,
            GenerateCustomer(SmallConfig())[3].f64);
  EXPECT_EQ(GeneratePart(SmallConfig())[1].str,
            GeneratePart(SmallConfig())[1].str);
  EXPECT_EQ(GenerateSupplier(SmallConfig())[3].f64,
            GenerateSupplier(SmallConfig())[3].f64);
  EXPECT_EQ(GeneratePartsupp(SmallConfig())[2].i64,
            GeneratePartsupp(SmallConfig())[2].i64);
}

TEST(TpchGenerator, AddingTablesDoesNotPerturbFactTables) {
  // Each table consumes its own salted RNG stream: the ORDERS/LINEITEM
  // bytes must be exactly what they were before the schema widened (bench
  // baselines depend on them). Spot-pin a few values drawn from the seed
  // streams so any reseeding shows up as a concrete diff, not just an
  // intra-run comparison.
  const auto orders = GenerateOrders(SmallConfig());
  const auto lines = GenerateLineitem(SmallConfig());
  EXPECT_EQ(orders[0].i64.size(), 3000u);
  EXPECT_EQ(lines[0].i64.size(), 12044u);
  EXPECT_EQ(orders[1].i64[0], 106);   // first o_custkey at seed 20090104
  EXPECT_EQ(orders[4].i64[0], 1220);  // first o_orderdate
  EXPECT_EQ(lines[1].i64[0], 60);     // first l_partkey
}

TEST(TpchGenerator, ForeignKeysResolve) {
  const TpchConfig config = SmallConfig();
  const TpchRowCounts counts = RowCountsFor(config);
  const auto orders = GenerateOrders(config);
  const auto lines = GenerateLineitem(config);
  const auto partsupp = GeneratePartsupp(config);

  // Every o_custkey hits CUSTOMER's dense [1, customers] key range.
  for (int64_t k : orders[1].i64) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, static_cast<int64_t>(counts.customers));
  }
  // Every l_partkey / l_suppkey resolves against PART / SUPPLIER.
  for (int64_t k : lines[1].i64) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, static_cast<int64_t>(counts.parts));
  }
  for (int64_t k : lines[2].i64) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, static_cast<int64_t>(counts.suppliers));
  }
  // PARTSUPP covers every part exactly twice, with distinct suppliers.
  EXPECT_EQ(partsupp[0].i64.size(), counts.partsupp);
  for (size_t i = 0; i < partsupp[0].i64.size(); i += 2) {
    EXPECT_EQ(partsupp[0].i64[i], partsupp[0].i64[i + 1]);  // same part
    EXPECT_NE(partsupp[1].i64[i], partsupp[1].i64[i + 1]);  // diff supplier
    EXPECT_GE(partsupp[1].i64[i], 1);
    EXPECT_LE(partsupp[1].i64[i],
              static_cast<int64_t>(counts.suppliers));
  }
}

TEST(TpchGenerator, CustomerAndPartValueShapes) {
  const auto customers = GenerateCustomer(SmallConfig());
  std::set<std::string> segments(customers[4].str.begin(),
                                 customers[4].str.end());
  EXPECT_LE(segments.size(), 5u);
  EXPECT_GE(segments.size(), 2u);
  for (size_t i = 0; i < customers[0].i64.size(); ++i) {
    EXPECT_EQ(customers[0].i64[i], static_cast<int64_t>(i + 1));
    EXPECT_GE(customers[3].f64[i], -999.99 - 1e-9);
    EXPECT_LE(customers[3].f64[i], 9999.99 + 1e-9);
  }
  const auto parts = GeneratePart(SmallConfig());
  for (size_t i = 0; i < parts[0].i64.size(); ++i) {
    EXPECT_GE(parts[3].i64[i], 1);   // p_size in [1, 50]
    EXPECT_LE(parts[3].i64[i], 50);
    EXPECT_GE(parts[4].f64[i], 900.0);
  }
}

TEST(TpchGenerator, LoadDatabaseRegistersTablesAndForeignKeys) {
  auto platform = power::MakeFlashScanPlatform();
  auto ssd = std::make_unique<storage::SsdDevice>("ssd", power::SsdSpec{},
                                                  platform->meter());
  catalog::Catalog catalog;
  auto db = LoadDatabase(SmallConfig(), storage::TableLayout::kColumn,
                         ssd.get(), &catalog);
  ASSERT_TRUE(db.ok()) << db.status().message();
  const TpchRowCounts counts = RowCountsFor(SmallConfig());
  EXPECT_EQ(db->orders.storage->row_count(), counts.orders);
  EXPECT_EQ(db->customer.storage->row_count(), counts.customers);
  EXPECT_EQ(db->part.storage->row_count(), counts.parts);
  EXPECT_EQ(db->supplier.storage->row_count(), counts.suppliers);
  EXPECT_EQ(db->partsupp.storage->row_count(), counts.partsupp);

  // Load-time statistics are populated (the planner prices from these).
  EXPECT_EQ(db->lineitem.stats.columns.size(),
            static_cast<size_t>(LineitemSchema().num_columns()));
  EXPECT_GT(db->customer.stats.columns[0].distinct_values, 0u);

  // All six names registered; FKs declared on the child tables.
  for (const char* name : {"orders", "lineitem", "customer", "part",
                           "supplier", "partsupp"}) {
    EXPECT_TRUE(catalog.GetTable(name).ok()) << name;
  }
  auto orders_entry = catalog.GetTable("orders");
  ASSERT_TRUE(orders_entry.ok());
  ASSERT_EQ((*orders_entry)->foreign_keys.size(), 1u);
  EXPECT_EQ((*orders_entry)->foreign_keys[0].column, "o_custkey");
  EXPECT_EQ((*orders_entry)->foreign_keys[0].parent_table, "customer");
  auto lineitem_entry = catalog.GetTable("lineitem");
  ASSERT_TRUE(lineitem_entry.ok());
  EXPECT_EQ((*lineitem_entry)->foreign_keys.size(), 3u);
  auto partsupp_entry = catalog.GetTable("partsupp");
  ASSERT_TRUE(partsupp_entry.ok());
  EXPECT_EQ((*partsupp_entry)->foreign_keys.size(), 2u);
}

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : platform_(power::MakeFlashScanPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("ssd", power::SsdSpec{},
                                                platform_->meter());
    auto orders = LoadOrders(SmallConfig(), 1, storage::TableLayout::kColumn,
                             ssd_.get());
    auto lineitem = LoadLineitem(SmallConfig(), 2,
                                 storage::TableLayout::kColumn, ssd_.get());
    EXPECT_TRUE(orders.ok());
    EXPECT_TRUE(lineitem.ok());
    orders_ = std::move(orders).value();
    lineitem_ = std::move(lineitem).value();
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  std::unique_ptr<storage::TableStorage> orders_;
  std::unique_ptr<storage::TableStorage> lineitem_;
};

TEST_F(WorkloadTest, PricingSummaryGroupsByReturnFlag) {
  auto q = MakePricingSummaryQuery(lineitem_.get(),
                                   kDateEpochStart + kDateRangeDays);
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  auto result = exec::CollectAll(q.get(), &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->TotalRows(), 3u);  // R / A / N
  EXPECT_GE(result->TotalRows(), 2u);
  // count_order column sums to total lineitems (cutoff covers everything).
  int64_t total = 0;
  const int count_col = result->schema.FindColumn("count_order");
  ASSERT_GE(count_col, 0);
  for (const auto& batch : result->batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      total += batch.GetValue(r, count_col).i64;
    }
  }
  EXPECT_EQ(total, static_cast<int64_t>(lineitem_->row_count()));
}

TEST_F(WorkloadTest, RevenueQueryReturnsOneRow) {
  auto q = MakeRevenueQuery(lineitem_.get(), kDateEpochStart,
                            kDateEpochStart + 365, 0.02, 0.09, 25.0);
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  auto result = exec::CollectAll(q.get(), &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 1u);
  EXPECT_GT(result->batches[0].GetValue(0, 0).f64, 0.0);
}

TEST_F(WorkloadTest, OrderRevenueJoinProducesShipPriorityGroups) {
  auto q = MakeOrderRevenueQuery(orders_.get(), lineitem_.get(),
                                 kDateEpochStart + kDateRangeDays);
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  auto result = exec::CollectAll(q.get(), &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  // o_shippriority is constant 0 -> exactly one group covering all rows.
  ASSERT_EQ(result->TotalRows(), 1u);
  const int count_col = result->schema.FindColumn("count_items");
  EXPECT_EQ(result->batches[0].GetValue(0, count_col).i64,
            static_cast<int64_t>(lineitem_->row_count()));
}

TEST_F(WorkloadTest, ThroughputStreamHasThreeQueries) {
  auto stream = MakeThroughputStream(orders_.get(), lineitem_.get(), 0);
  EXPECT_EQ(stream.size(), 3u);
}

TEST_F(WorkloadTest, ThroughputTestAccountsTimeAndEnergy) {
  auto result = RunThroughputTest(platform_.get(), orders_.get(),
                                  lineitem_.get(), 2, exec::ExecOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries_completed, 6);
  EXPECT_GT(result->elapsed_seconds, 0.0);
  EXPECT_GT(result->joules, 0.0);
  EXPECT_GT(result->QueriesPerHour(), 0.0);
  EXPECT_GT(result->EnergyEfficiency(), 0.0);
}

TEST_F(WorkloadTest, ThroughputTestRejectsMalformedExecOptions) {
  // The options reach ExecContext, which only asserts: a dop below 1 or a
  // P-state the CPU lacks must be rejected before any query runs.
  exec::ExecOptions zero_dop;
  zero_dop.dop = 0;
  exec::ExecOptions negative_pstate;
  negative_pstate.pstate = -1;
  exec::ExecOptions past_last_pstate;
  past_last_pstate.pstate = platform_->cpu().num_pstates();
  for (const exec::ExecOptions& options :
       {zero_dop, negative_pstate, past_last_pstate}) {
    const double t0 = platform_->clock()->now();
    auto result = RunThroughputTest(platform_.get(), orders_.get(),
                                    lineitem_.get(), 1, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "dop=" << options.dop << " pstate=" << options.pstate;
    EXPECT_EQ(platform_->clock()->now(), t0);
  }
}

TEST_F(WorkloadTest, StreamsVaryParameters) {
  // Different stream indexes must produce different revenue answers
  // (the TPC-H substitution-parameter idea).
  auto q0 = MakeRevenueQuery(lineitem_.get(), kDateEpochStart,
                             kDateEpochStart + 365, 0.02, 0.09, 25.0);
  auto q1 = MakeRevenueQuery(lineitem_.get(), kDateEpochStart + 365,
                             kDateEpochStart + 730, 0.02, 0.09, 25.0);
  exec::ExecContext c0(platform_.get(), exec::ExecOptions{});
  auto r0 = exec::CollectAll(q0.get(), &c0);
  c0.Finish();
  exec::ExecContext c1(platform_.get(), exec::ExecOptions{});
  auto r1 = exec::CollectAll(q1.get(), &c1);
  c1.Finish();
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(r0->batches[0].GetValue(0, 0).f64,
            r1->batches[0].GetValue(0, 0).f64);
}

}  // namespace
}  // namespace ecodb::tpch
