// Tests for the TPC-H-like generator and the throughput-test workload.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "optimizer/planner.h"
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
  // Roughly four lines per order.
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

  // All six names registered with their statistics; by those statistics
  // every foreign key's values lie inside its parent's key range.
  for (const char* name : {"orders", "lineitem", "customer", "part",
                           "supplier", "partsupp"}) {
    ASSERT_TRUE(catalog.GetTable(name).ok()) << name;
  }
  const auto stats_of = [&](const char* table, const char* column) {
    const catalog::TableEntry* entry = *catalog.GetTable(table);
    const int c = entry->schema.FindColumn(column);
    EXPECT_GE(c, 0) << column;
    return entry->stats.columns.at(static_cast<size_t>(c));
  };
  const struct {
    const char* table;
    const char* column;
    const char* parent;
    const char* key;
  } kForeignKeys[] = {
      {"orders", "o_custkey", "customer", "c_custkey"},
      {"lineitem", "l_orderkey", "orders", "o_orderkey"},
      {"lineitem", "l_partkey", "part", "p_partkey"},
      {"lineitem", "l_suppkey", "supplier", "s_suppkey"},
      {"partsupp", "ps_partkey", "part", "p_partkey"},
      {"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
  };
  for (const auto& fk : kForeignKeys) {
    const catalog::ColumnStats child = stats_of(fk.table, fk.column);
    const catalog::ColumnStats parent = stats_of(fk.parent, fk.key);
    EXPECT_GE(child.min_i64, parent.min_i64) << fk.column;
    EXPECT_LE(child.max_i64, parent.max_i64) << fk.column;
  }
}

/// ORDERS and LINEITEM at SmallConfig on an SSD of their own platform,
/// built the way the Figure 1 harness builds them.
struct WorkloadRig {
  WorkloadRig()
      : platform(power::MakeFlashScanPlatform()),
        ssd("ssd", power::SsdSpec{}, platform->meter()),
        orders(1, OrdersSchema(), storage::TableLayout::kColumn, &ssd),
        lineitem(2, LineitemSchema(), storage::TableLayout::kColumn, &ssd) {
    EXPECT_TRUE(orders.Append(GenerateOrders(SmallConfig())).ok());
    EXPECT_TRUE(lineitem.Append(GenerateLineitem(SmallConfig())).ok());
  }

  std::unique_ptr<power::HardwarePlatform> platform;
  storage::SsdDevice ssd;
  storage::TableStorage orders;
  storage::TableStorage lineitem;
};

class WorkloadTest : public ::testing::Test {
 protected:
  /// Builds query `query_class` with `param`'s substitution parameters.
  exec::OperatorPtr Build(int query_class, int64_t param) {
    const ServingQuery q =
        MakeServingQuery(&rig_.orders, &rig_.lineitem, query_class, param);
    auto root = optimizer::Planner::BuildOperator(q.spec, q.plan);
    EXPECT_TRUE(root.ok()) << root.status().message();
    return root.ok() ? std::move(root).value() : nullptr;
  }

  StatusOr<exec::QueryResultSet> Run(exec::Operator* root) {
    exec::ExecContext ctx(rig_.platform.get(), exec::ExecOptions{});
    auto result = exec::CollectAll(root, &ctx);
    ctx.Finish();
    return result;
  }

  /// Value of column `name` in the first row.
  static exec::Value FirstRow(const exec::QueryResultSet& result,
                              const char* name) {
    return result.batches[0].GetValue(0, result.schema.FindColumn(name));
  }

  WorkloadRig rig_;
};

TEST_F(WorkloadTest, PricingSummaryGroupsByReturnFlag) {
  // Stream 0's cutoff is 90 days before the end of the date range.
  const int64_t cutoff = kDateEpochStart + kDateRangeDays - 90;
  auto result = Run(Build(0, 0).get());
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->TotalRows(), 3u);  // R / A / N
  EXPECT_GE(result->TotalRows(), 2u);
  // count_order sums to the lineitems shipped by the cutoff.
  const std::vector<int64_t>& ship =
      rig_.lineitem
          .RawColumn(rig_.lineitem.schema().FindColumn("l_shipdate"))
          .i64;
  const int64_t shipped =
      std::count_if(ship.begin(), ship.end(),
                    [&](int64_t d) { return d <= cutoff; });
  ASSERT_GT(shipped, 0);
  int64_t total = 0;
  const int count_col = result->schema.FindColumn("count_order");
  ASSERT_GE(count_col, 0);
  for (const auto& batch : result->batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      total += batch.GetValue(r, count_col).i64;
    }
  }
  EXPECT_EQ(total, shipped);
}

TEST_F(WorkloadTest, RevenueQueryReturnsOneRow) {
  auto result = Run(Build(1, 0).get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 1u);
  EXPECT_GT(FirstRow(*result, "revenue").f64, 0.0);
}

TEST_F(WorkloadTest, OrderRevenueJoinProducesShipPriorityGroups) {
  // Stream 0 keeps the orders placed in the first half of the range.
  const int64_t cutoff = kDateEpochStart + kDateRangeDays / 2;
  auto result = Run(Build(2, 0).get());
  ASSERT_TRUE(result.ok());
  // o_shippriority is constant 0 -> exactly one group, counting every
  // lineitem of a kept order.
  ASSERT_EQ(result->TotalRows(), 1u);
  const storage::TableStorage& o = rig_.orders;
  const std::vector<int64_t>& order_date =
      o.RawColumn(o.schema().FindColumn("o_orderdate")).i64;
  const std::vector<int64_t>& order_key =
      o.RawColumn(o.schema().FindColumn("o_orderkey")).i64;
  std::set<int64_t> kept;
  for (size_t i = 0; i < order_key.size(); ++i) {
    if (order_date[i] < cutoff) kept.insert(order_key[i]);
  }
  const storage::TableStorage& l = rig_.lineitem;
  const std::vector<int64_t>& line_order =
      l.RawColumn(l.schema().FindColumn("l_orderkey")).i64;
  const int64_t items =
      std::count_if(line_order.begin(), line_order.end(),
                    [&](int64_t k) { return kept.count(k) > 0; });
  ASSERT_GT(items, 0);
  EXPECT_EQ(FirstRow(*result, "count_items").i64, items);
}

TEST_F(WorkloadTest, ThroughputStreamHasThreeQueries) {
  auto stream = MakeThroughputStream(&rig_.orders, &rig_.lineitem, 0);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->size(), 3u);
}

TEST_F(WorkloadTest, ThroughputTestAccountsTimeAndEnergy) {
  auto result = RunThroughputTest(rig_.platform.get(), &rig_.orders,
                                  &rig_.lineitem, 2, exec::ExecOptions{});
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
  past_last_pstate.pstate = rig_.platform->cpu().num_pstates();
  for (const exec::ExecOptions& options :
       {zero_dop, negative_pstate, past_last_pstate}) {
    const double t0 = rig_.platform->clock()->now();
    auto result = RunThroughputTest(rig_.platform.get(), &rig_.orders,
                                    &rig_.lineitem, 1, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "dop=" << options.dop << " pstate=" << options.pstate;
    EXPECT_EQ(rig_.platform->clock()->now(), t0);
  }
}

TEST_F(WorkloadTest, StreamsVaryParameters) {
  // Different stream indexes must produce different revenue answers
  // (the TPC-H substitution-parameter idea).
  auto r0 = Run(Build(1, 0).get());
  auto r1 = Run(Build(1, 1).get());
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(FirstRow(*r0, "revenue").f64, FirstRow(*r1, "revenue").f64);
}

// --- The hand-built trees the mixture ran before it was planned ---------
// The oracle of ServingEquivalence: each shape's operator tree and scan
// requests written out by hand, with the substitution rule spelled again.

struct HandBuiltQuery {
  exec::OperatorPtr root;
  /// The tree's table scans: each table and the columns it projects.
  std::vector<std::pair<const storage::TableStorage*,
                        std::vector<std::string>>>
      scans;
};

HandBuiltQuery HandBuilt(const storage::TableStorage* orders,
                         const storage::TableStorage* lineitem,
                         int query_class, int64_t param) {
  using exec::AggFunc;
  using exec::AggregateItem;
  using exec::And;
  using exec::Col;
  using exec::Lit;
  using exec::LitDate;
  const int stream = static_cast<int>(param % 8);
  const int64_t year = 365;
  HandBuiltQuery q;
  std::vector<AggregateItem> aggs;
  switch (query_class) {
    case 0: {
      const std::vector<std::string> cols = {
          "l_returnflag", "l_quantity", "l_extendedprice", "l_discount",
          "l_shipdate"};
      q.scans = {{lineitem, cols}};
      auto scan = std::make_unique<exec::TableScanOp>(
          lineitem, cols, /*prune_filter=*/nullptr,
          Col("l_shipdate") <=
              LitDate(kDateEpochStart + kDateRangeDays - 90 - 30 * stream));
      aggs.push_back({"sum_qty", AggFunc::kSum, Col("l_quantity")});
      aggs.push_back(
          {"sum_base_price", AggFunc::kSum, Col("l_extendedprice")});
      aggs.push_back(
          {"sum_disc_price", AggFunc::kSum,
           Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))});
      aggs.push_back({"avg_qty", AggFunc::kAvg, Col("l_quantity")});
      aggs.push_back({"count_order", AggFunc::kCount, nullptr});
      q.root = std::make_unique<exec::HashAggregateOp>(
          std::move(scan), std::vector<std::string>{"l_returnflag"},
          std::move(aggs));
      break;
    }
    case 1: {
      const int64_t lo = kDateEpochStart + (stream % 5) * year;
      exec::ExprPtr pred =
          And(And(Col("l_shipdate") >= LitDate(lo),
                  Col("l_shipdate") < LitDate(lo + year)),
              And(And(Col("l_discount") >= Lit(0.02),
                      Col("l_discount") <= Lit(0.09)),
                  Col("l_quantity") < Lit(25.0 + stream)));
      const std::vector<std::string> cols = {"l_quantity", "l_extendedprice",
                                             "l_discount", "l_shipdate"};
      q.scans = {{lineitem, cols}};
      auto scan = std::make_unique<exec::TableScanOp>(
          lineitem, cols, /*prune_filter=*/nullptr, std::move(pred));
      aggs.push_back({"revenue", AggFunc::kSum,
                      Col("l_extendedprice") * Col("l_discount")});
      q.root = std::make_unique<exec::HashAggregateOp>(
          std::move(scan), std::vector<std::string>{}, std::move(aggs));
      break;
    }
    default: {
      const std::vector<std::string> ocols = {"o_orderkey", "o_orderdate",
                                              "o_shippriority"};
      const std::vector<std::string> lcols = {"l_orderkey",
                                              "l_extendedprice", "l_discount"};
      q.scans = {{orders, ocols}, {lineitem, lcols}};
      auto oscan = std::make_unique<exec::TableScanOp>(
          orders, ocols, /*prune_filter=*/nullptr,
          Col("o_orderdate") <
              LitDate(kDateEpochStart + kDateRangeDays / 2 + 60 * stream));
      auto lscan = std::make_unique<exec::TableScanOp>(lineitem, lcols);
      auto join = std::make_unique<exec::HashJoinOp>(
          std::move(lscan), std::move(oscan), "l_orderkey", "o_orderkey");
      aggs.push_back(
          {"revenue", AggFunc::kSum,
           Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))});
      aggs.push_back({"count_items", AggFunc::kCount, nullptr});
      q.root = std::make_unique<exec::HashAggregateOp>(
          std::move(join), std::vector<std::string>{"o_shippriority"},
          std::move(aggs));
      break;
    }
  }
  return q;
}

/// Every row of `result`, in order.
std::vector<std::vector<exec::Value>> RowsOf(
    const exec::QueryResultSet& result) {
  std::vector<std::vector<exec::Value>> rows;
  for (const exec::RecordBatch& batch : result.batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      std::vector<exec::Value>& row = rows.emplace_back();
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        row.push_back(batch.GetValue(r, c));
      }
    }
  }
  return rows;
}

/// Runs `root` on `rig` at `dop`, returning its rows and its bill.
std::pair<std::vector<std::vector<exec::Value>>, exec::QueryStats> RunAt(
    WorkloadRig* rig, exec::Operator* root, int dop) {
  exec::ExecOptions options;
  options.dop = dop;
  exec::ExecContext ctx(rig->platform.get(), options);
  auto result = exec::CollectAll(root, &ctx);
  const exec::QueryStats stats = ctx.Finish();
  EXPECT_TRUE(result.ok()) << result.status().message();
  return {result.ok() ? RowsOf(*result)
                      : std::vector<std::vector<exec::Value>>{},
          stats};
}

TEST(ServingEquivalence, PlannedQueriesMatchHandBuiltTreesRowsBillsAndScans) {
  // Two identical rigs, compressed as ecobench's serving rig compresses
  // them, so that both sides see the same clock and device state at every
  // query: the hand-built oracle runs on one, the served query on the other.
  WorkloadRig hand_rig;
  WorkloadRig plan_rig;
  for (WorkloadRig* rig : {&hand_rig, &plan_rig}) {
    using storage::CompressionKind;
    ASSERT_TRUE(rig->lineitem.SetCompression("l_orderkey",
                                             CompressionKind::kRle).ok());
    ASSERT_TRUE(rig->lineitem.SetCompression("l_shipdate",
                                             CompressionKind::kFor).ok());
    ASSERT_TRUE(rig->lineitem.SetCompression("l_returnflag",
                                             CompressionKind::kDictionary)
                    .ok());
    ASSERT_TRUE(
        rig->orders.SetCompression("o_orderkey", CompressionKind::kDelta)
            .ok());
    ASSERT_TRUE(
        rig->orders.SetCompression("o_orderdate", CompressionKind::kBitpack)
            .ok());
  }
  const sched::SessionManager::QueryFactory factory =
      MakeServingFactory(&plan_rig.orders, &plan_rig.lineitem);
  for (int dop : {1, 4}) {
    for (int query_class = 0; query_class < 3; ++query_class) {
      for (int64_t param = 0; param < 10; ++param) {
        SCOPED_TRACE("dop " + std::to_string(dop) + " class " +
                     std::to_string(query_class) + " param " +
                     std::to_string(param));
        HandBuiltQuery hand = HandBuilt(&hand_rig.orders, &hand_rig.lineitem,
                                        query_class, param);
        sim::TraceRequest req;
        req.query_class = query_class;
        req.param = param;
        auto planned = factory(req);
        ASSERT_TRUE(planned.ok()) << planned.status().message();

        // Every scan request is one of the tree's table scans (same table,
        // same column set), and the tree has no other.
        ASSERT_EQ(planned->scans.size(), hand.scans.size());
        for (const sched::SessionManager::ScanRequest& scan : planned->scans) {
          const storage::TableStorage* hand_table =
              scan.table == &plan_rig.orders ? &hand_rig.orders
                                             : &hand_rig.lineitem;
          std::set<std::string> names;
          for (int c : scan.columns) {
            names.insert(scan.table->schema().column(c).name);
          }
          const bool matched = std::any_of(
              hand.scans.begin(), hand.scans.end(), [&](const auto& h) {
                return h.first == hand_table &&
                       std::set<std::string>(h.second.begin(),
                                             h.second.end()) == names;
              });
          EXPECT_TRUE(matched);
        }

        const auto [hand_rows, hand_stats] =
            RunAt(&hand_rig, hand.root.get(), dop);
        const auto [plan_rows, plan_stats] =
            RunAt(&plan_rig, planned->root.get(), dop);
        ASSERT_EQ(plan_rows.size(), hand_rows.size());
        ASSERT_FALSE(plan_rows.empty());
        for (size_t r = 0; r < hand_rows.size(); ++r) {
          ASSERT_EQ(plan_rows[r].size(), hand_rows[r].size());
          for (size_t c = 0; c < hand_rows[r].size(); ++c) {
            EXPECT_EQ(plan_rows[r][c].type, hand_rows[r][c].type);
            EXPECT_EQ(plan_rows[r][c].i64, hand_rows[r][c].i64);
            EXPECT_EQ(plan_rows[r][c].f64, hand_rows[r][c].f64);
            EXPECT_EQ(plan_rows[r][c].str, hand_rows[r][c].str);
          }
        }
        EXPECT_EQ(plan_stats.cpu_instructions, hand_stats.cpu_instructions);
        EXPECT_EQ(plan_stats.io_bytes, hand_stats.io_bytes);
        EXPECT_EQ(plan_stats.dram_joules, hand_stats.dram_joules);
        EXPECT_EQ(plan_stats.elapsed_seconds, hand_stats.elapsed_seconds);
      }
    }
  }
}

}  // namespace
}  // namespace ecodb::tpch
