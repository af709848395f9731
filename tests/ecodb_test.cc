// End-to-end tests of the EcoDb facade: open, load, plan, execute, clone
// physical variants, and read energy reports — the integration surface a
// downstream user programs against.

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/ecodb.h"
#include "exec/scan.h"
#include "tpch/generator.h"

namespace ecodb::core {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;

DbConfig SsdConfig() {
  DbConfig config;
  config.preset = PlatformPreset::kProportional;
  config.hdd_count = 0;
  config.ssd_count = 1;
  return config;
}

Schema SalesSchema() {
  return Schema({Column{"id", DataType::kInt64, 8},
                 Column{"region", DataType::kString, 6},
                 Column{"amount", DataType::kDouble, 8}});
}

std::vector<storage::ColumnData> SalesRows(int n) {
  std::vector<storage::ColumnData> cols(3);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kString;
  cols[2].type = DataType::kDouble;
  const char* regions[] = {"east", "west", "north"};
  for (int i = 0; i < n; ++i) {
    cols[0].i64.push_back(i);
    cols[1].str.push_back(regions[i % 3]);
    cols[2].f64.push_back(i * 2.0);
  }
  return cols;
}

TEST(EcoDb, OpenRequiresStorage) {
  DbConfig config;
  config.hdd_count = 0;
  config.ssd_count = 0;
  EXPECT_FALSE(EcoDb::Open(config).ok());
}

TEST(EcoDb, OpenRejectsMalformedExecOptions) {
  const int num_pstates =
      power::MakeProportionalPlatform()->cpu().num_pstates();
  std::vector<exec::ExecOptions> bad(7);
  bad[0].dop = 0;
  bad[1].batch_rows = 0;  // a zero-row batch never advances a pull loop
  bad[2].pstate = -1;
  bad[3].pstate = num_pstates;
  bad[4].decode_scale = -1.0;  // would bill negative instructions
  bad[5].decode_scale = std::numeric_limits<double>::quiet_NaN();
  bad[6].decode_scale = std::numeric_limits<double>::infinity();
  for (const exec::ExecOptions& options : bad) {
    DbConfig config = SsdConfig();
    config.exec_options = options;
    EXPECT_EQ(EcoDb::Open(config).status().code(),
              StatusCode::kInvalidArgument);
  }
  DbConfig slowest = SsdConfig();
  slowest.exec_options.pstate = num_pstates - 1;
  EXPECT_TRUE(EcoDb::Open(slowest).ok());
  DbConfig free_decode = SsdConfig();
  free_decode.exec_options.decode_scale = 0.0;
  EXPECT_TRUE(EcoDb::Open(free_decode).ok());
}

TEST(EcoDb, ExecuteRejectsDopCandidateBelowOne) {
  DbConfig config = SsdConfig();
  config.derive_dop_ladder = false;
  config.planner_options.dops = {0};
  auto db = EcoDb::Open(config);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(30)).ok());
  optimizer::QuerySpec spec;
  spec.relations.resize(1);
  spec.relations[0].name = "sales";
  spec.relations[0].variants = {*(*db)->table("sales")};
  EXPECT_EQ(
      (*db)->Execute(spec, optimizer::Objective::Performance()).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(EcoDb, OpenWithHddArrayConfiguresTrays) {
  DbConfig config;
  config.preset = PlatformPreset::kDl785;
  config.hdd_count = 36;
  config.ssd_count = 0;
  auto db = EcoDb::Open(config);
  ASSERT_TRUE(db.ok());
  EXPECT_NE((*db)->primary_device(), nullptr);
  // 36 disks / 16 per tray -> 3 trays of chassis power.
  (*db)->platform()->clock()->Advance(1.0);
  const auto report = (*db)->EnergyReport();
  const double chassis_joules =
      report.entries[(*db)->platform()->chassis_channel().index].joules;
  EXPECT_NEAR(chassis_joules, 80.0 + 3 * 45.0, 1e-6);
}

TEST(EcoDb, OpenHonorsArraySpecLevel) {
  // Two drives cannot hold RAID-5, so this opens only if the array is
  // built at the level the spec asks for.
  DbConfig config;
  config.hdd_count = 2;
  config.ssd_count = 0;
  config.array_spec.level = storage::RaidLevel::kRaid0;
  auto db = EcoDb::Open(config);
  ASSERT_TRUE(db.ok()) << db.status().message();
  ASSERT_NE((*db)->raid_array(), nullptr);
  EXPECT_EQ((*db)->raid_array()->spec().level, storage::RaidLevel::kRaid0);
}

TEST(EcoDb, DeriveDopLadderFollowsPlatformCores) {
  // Deriving the ladder from the platform is the default.
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->planner()->options().dops,
            optimizer::PlatformDopLadder(*(*db)->platform()));

  // Dl785 models 32 physical cores -> the full power-of-two ladder.
  DbConfig big = SsdConfig();
  big.preset = PlatformPreset::kDl785;
  auto big_db = EcoDb::Open(big);
  ASSERT_TRUE(big_db.ok());
  EXPECT_EQ((*big_db)->planner()->options().dops,
            (std::vector<int>{1, 2, 4, 8, 16, 32}));

  // Opting out keeps the hand-tuned (here: default serial-only) ladder.
  DbConfig manual = SsdConfig();
  manual.derive_dop_ladder = false;
  auto manual_db = EcoDb::Open(manual);
  ASSERT_TRUE(manual_db.ok());
  EXPECT_EQ((*manual_db)->planner()->options().dops, (std::vector<int>{1}));
}

TEST(EcoDb, CreateLoadQueryRoundTrip) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(300)).ok());

  optimizer::QuerySpec spec;
  spec.left.name = "sales";
  spec.left.variants = {*(*db)->table("sales")};
  spec.left.filter = Col("amount") >= Lit(400.0);

  auto outcome = (*db)->Execute(spec, optimizer::Objective::Performance());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows.TotalRows(), 100u);  // amount = 2i >= 400 -> i>=200
  EXPECT_GT(outcome->stats.elapsed_seconds, 0.0);
  EXPECT_GT(outcome->stats.Joules(), 0.0);
  ASSERT_TRUE(outcome->plan.has_value());
}

TEST(EcoDb, DuplicateTableRejected) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("t", SalesSchema()).ok());
  EXPECT_EQ((*db)->CreateTable("t", SalesSchema()).code(),
            StatusCode::kAlreadyExists);
}

TEST(EcoDb, LoadUnknownTableFails) {
  auto db = EcoDb::Open(SsdConfig());
  EXPECT_EQ((*db)->Load("ghost", SalesRows(1)).code(),
            StatusCode::kNotFound);
}

TEST(EcoDb, AnalyzeUpdatesCatalogStats) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(90)).ok());
  auto entry = (*db)->catalog()->GetTable("sales");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->stats.row_count, 90u);
  EXPECT_EQ((*entry)->stats.columns[1].distinct_values, 3u);
}

TEST(EcoDb, CloneWithCompressionCreatesSmallerVariant) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(5000)).ok());
  ASSERT_TRUE((*db)
                  ->CloneWithCompression(
                      "sales", "sales_packed",
                      {{"id", storage::CompressionKind::kDelta},
                       {"region", storage::CompressionKind::kDictionary}})
                  .ok());
  auto plain = (*db)->table("sales");
  auto packed = (*db)->table("sales_packed");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ((*packed)->row_count(), 5000u);
  EXPECT_LT((*packed)->TotalBytes(), (*plain)->TotalBytes());
}

TEST(EcoDb, PlannerChoosesAmongVariants) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(20000)).ok());
  ASSERT_TRUE((*db)
                  ->CloneWithCompression(
                      "sales", "sales_packed",
                      {{"id", storage::CompressionKind::kDelta}})
                  .ok());

  optimizer::QuerySpec spec;
  spec.left.name = "sales";
  spec.left.variants = {*(*db)->table("sales"), *(*db)->table("sales_packed")};
  spec.left.columns = {"id"};

  auto outcome = (*db)->Execute(spec, optimizer::Objective::Performance());
  ASSERT_TRUE(outcome.ok());
  // Proportional platform has a modest CPU: compressed scan (5x less I/O)
  // should win on time.
  EXPECT_EQ(outcome->plan->join_nodes[outcome->plan->join_root].variant, 1);
  EXPECT_EQ(outcome->rows.TotalRows(), 20000u);
}

TEST(EcoDb, JoinWithAggregateThroughFacade) {
  auto db = EcoDb::Open(SsdConfig());
  // Small TPC-H-like pair through the facade.
  tpch::TpchConfig tconfig;
  tconfig.scale_factor = 0.1;
  ASSERT_TRUE((*db)->CreateTable("orders", tpch::OrdersSchema()).ok());
  ASSERT_TRUE((*db)->Load("orders", tpch::GenerateOrders(tconfig)).ok());
  ASSERT_TRUE((*db)->CreateTable("lineitem", tpch::LineitemSchema()).ok());
  ASSERT_TRUE((*db)->Load("lineitem", tpch::GenerateLineitem(tconfig)).ok());

  optimizer::QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].name = "lineitem";
  spec.relations[0].variants = {*(*db)->table("lineitem")};
  spec.relations[0].columns = {"l_orderkey", "l_extendedprice"};
  spec.relations[1].name = "orders";
  spec.relations[1].variants = {*(*db)->table("orders")};
  spec.relations[1].columns = {"o_orderkey"};
  spec.edges = {{0, 1, "l_orderkey", "o_orderkey"}};
  exec::AggregateItem item;
  item.name = "revenue";
  item.func = exec::AggFunc::kSum;
  item.input = Col("l_extendedprice");
  spec.aggregates.push_back(item);

  auto outcome = (*db)->Execute(spec, optimizer::Objective::Balanced(0.01));
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->rows.TotalRows(), 1u);
  EXPECT_GT(outcome->rows.batches[0].GetValue(0, 0).f64, 0.0);
}

TEST(EcoDb, RunExecutesHandBuiltPlan) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(50)).ok());
  exec::TableScanOp scan(*(*db)->table("sales"));
  auto outcome = (*db)->Run(&scan);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows.TotalRows(), 50u);
  EXPECT_FALSE(outcome->plan.has_value());
}

TEST(EcoDb, EnergyReportAccumulatesAcrossQueries) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(10000)).ok());
  exec::TableScanOp scan1(*(*db)->table("sales"));
  ASSERT_TRUE((*db)->Run(&scan1).ok());
  const double joules_after_one = (*db)->EnergyReport().it_joules;
  exec::TableScanOp scan2(*(*db)->table("sales"));
  ASSERT_TRUE((*db)->Run(&scan2).ok());
  EXPECT_GT((*db)->EnergyReport().it_joules, joules_after_one);
}

TEST(EcoDb, ObjectiveChangesMeasuredEnergyOrdering) {
  // Planner freedom (two variants) + two objectives: the energy objective
  // must never pick a plan with more measured energy than the plan the
  // performance objective picked (on this platform the choices coincide or
  // energy does strictly better).
  auto db_perf = EcoDb::Open(SsdConfig());
  auto db_energy = EcoDb::Open(SsdConfig());
  for (auto* db : {&db_perf, &db_energy}) {
    ASSERT_TRUE((**db)->CreateTable("sales", SalesSchema()).ok());
    ASSERT_TRUE((**db)->Load("sales", SalesRows(20000)).ok());
    ASSERT_TRUE((**db)
                    ->CloneWithCompression(
                        "sales", "packed",
                        {{"id", storage::CompressionKind::kDelta}})
                    .ok());
  }
  auto run = [](std::unique_ptr<EcoDb>& db, optimizer::Objective obj) {
    optimizer::QuerySpec spec;
    spec.left.name = "sales";
    spec.left.variants = {*db->table("sales"), *db->table("packed")};
    spec.left.columns = {"id"};
    auto outcome = db->Execute(spec, obj);
    EXPECT_TRUE(outcome.ok());
    return outcome->stats.Joules();
  };
  const double perf_joules =
      run(*db_perf, optimizer::Objective::Performance());
  const double energy_joules = run(*db_energy, optimizer::Objective::Energy());
  EXPECT_LE(energy_joules, perf_joules * 1.05);
}

TEST(EcoDb, CreateIndexEnablesIndexScanPath) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(50000)).ok());
  auto index = (*db)->CreateIndex("sales", "id");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->size(), 50000u);

  optimizer::QuerySpec spec;
  spec.left.name = "sales";
  spec.left.variants = {*(*db)->table("sales")};
  spec.left.columns = {"id", "amount"};
  spec.left.filter = Col("id") == Lit(int64_t{123});
  spec.left.index = *index;
  spec.left.index_column = "id";

  auto outcome = (*db)->Execute(spec, optimizer::Objective::Performance());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows.TotalRows(), 1u);
  EXPECT_EQ(outcome->plan->join_nodes[outcome->plan->join_root].path,
            optimizer::AccessPath::kIndexScan);
}

TEST(EcoDb, CreateIndexRejectsNonIntegerColumns) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(10)).ok());
  EXPECT_FALSE((*db)->CreateIndex("sales", "region").ok());
  EXPECT_FALSE((*db)->CreateIndex("ghost", "id").ok());
}

TEST(EcoDb, BuildZoneMapsThroughFacade) {
  auto db = EcoDb::Open(SsdConfig());
  ASSERT_TRUE((*db)->CreateTable("sales", SalesSchema()).ok());
  ASSERT_TRUE((*db)->Load("sales", SalesRows(5000)).ok());
  ASSERT_TRUE((*db)->BuildZoneMaps("sales", 500).ok());
  EXPECT_EQ((*(*db)->table("sales"))->zone_maps().num_blocks(), 10u);
  EXPECT_FALSE((*db)->BuildZoneMaps("ghost", 500).ok());
}

}  // namespace
}  // namespace ecodb::core
