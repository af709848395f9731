// Tests for TableStorage: loading, per-column compression with real
// round-trips, layout-dependent scan volumes, decode-cost accounting, and
// statistics.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::storage {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

Schema TestSchema() {
  return Schema({
      Column{"id", DataType::kInt64, 8},
      Column{"price", DataType::kDouble, 8},
      Column{"status", DataType::kString, 4},
      Column{"day", DataType::kDate, 8},
  });
}

std::vector<ColumnData> TestRows(int n) {
  std::vector<ColumnData> cols(4);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kDouble;
  cols[2].type = DataType::kString;
  cols[3].type = DataType::kDate;
  for (int i = 0; i < n; ++i) {
    cols[0].i64.push_back(i + 1);
    cols[1].f64.push_back(i * 1.5);
    cols[2].str.push_back(i % 2 ? "ok" : "bad");
    cols[3].i64.push_back(1000 + i % 30);
  }
  return cols;
}

class TableStorageTest : public ::testing::Test {
 protected:
  TableStorageTest()
      : meter_(&clock_), ssd_("s0", power::SsdSpec{}, &meter_) {}

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  SsdDevice ssd_;
};

TEST_F(TableStorageTest, AppendAndRead) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  EXPECT_EQ(table.row_count(), 100u);
  auto col = table.ReadColumn(0);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->i64.size(), 100u);
  EXPECT_EQ(col->i64[41], 42);
}

TEST_F(TableStorageTest, AppendAccumulates) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(50)).ok());
  ASSERT_TRUE(table.Append(TestRows(30)).ok());
  EXPECT_EQ(table.row_count(), 80u);
}

TEST_F(TableStorageTest, AppendRejectsWrongArity) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  std::vector<ColumnData> three(3);
  EXPECT_EQ(table.Append(three).code(), StatusCode::kInvalidArgument);
}

TEST_F(TableStorageTest, AppendRejectsTypeMismatch) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  auto rows = TestRows(10);
  rows[0].type = DataType::kDouble;
  EXPECT_EQ(table.Append(rows).code(), StatusCode::kInvalidArgument);
}

TEST_F(TableStorageTest, AppendRejectsRaggedColumns) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  auto rows = TestRows(10);
  rows[0].i64.pop_back();
  EXPECT_EQ(table.Append(rows).code(), StatusCode::kInvalidArgument);
}

TEST_F(TableStorageTest, CompressionRoundTripsThroughCodec) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(500)).ok());
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  ASSERT_TRUE(table.SetCompression("status",
                                   CompressionKind::kDictionary).ok());
  ASSERT_TRUE(table.SetCompression("day", CompressionKind::kFor).ok());

  auto id = table.ReadColumn(0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->i64, table.RawColumn(0).i64);
  auto status = table.ReadColumn(2);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->str, table.RawColumn(2).str);
  auto day = table.ReadColumn(3);
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day->i64, table.RawColumn(3).i64);
}

TEST_F(TableStorageTest, CompressionShrinksFootprint) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(2000)).ok());
  const uint64_t before = table.column_layout(0).encoded_bytes;
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  const uint64_t after = table.column_layout(0).encoded_bytes;
  EXPECT_LT(after, before / 3);
  EXPECT_LT(table.column_layout(0).Ratio(), 0.35);
}

TEST_F(TableStorageTest, BadCompressionRequestsRejected) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(10)).ok());
  EXPECT_FALSE(table.SetCompression("status", CompressionKind::kRle).ok());
  EXPECT_FALSE(table.SetCompression("price", CompressionKind::kDelta).ok());
  EXPECT_FALSE(table.SetCompression("nope", CompressionKind::kRle).ok());
  // Failed attempts must not corrupt the previous state.
  auto status = table.ReadColumn(2);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->str, table.RawColumn(2).str);
}

TEST_F(TableStorageTest, ColumnLayoutScanReadsOnlyProjection) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(1000)).ok());
  const uint64_t one = table.ScanBytes({0});
  const uint64_t two = table.ScanBytes({0, 1});
  const uint64_t all = table.ScanBytes({0, 1, 2, 3});
  EXPECT_LT(one, two);
  EXPECT_LT(two, all);
  EXPECT_EQ(one, 8000u);
}

TEST_F(TableStorageTest, RowLayoutScanReadsEverything) {
  TableStorage table(1, TestSchema(), TableLayout::kRow, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(1000)).ok());
  EXPECT_EQ(table.ScanBytes({0}), table.ScanBytes({0, 1, 2, 3}));
}

TEST_F(TableStorageTest, ScanBytesDeduplicatesAndIgnoresBadIndexes) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  EXPECT_EQ(table.ScanBytes({0, 0, 0}), table.ScanBytes({0}));
  EXPECT_EQ(table.ScanBytes({99}), 0u);
}

TEST_F(TableStorageTest, DecodeInstructionsGrowWithCompression) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(1000)).ok());
  const double before = table.DecodeInstructions({0});
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  const double after = table.DecodeInstructions({0});
  EXPECT_GT(after, before * 2);  // delta decode = 4 instr vs 1 touch
}

TEST_F(TableStorageTest, AnalyzeComputesStats) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  catalog::TableStats stats;
  ASSERT_TRUE(table.AnalyzeInto(&stats).ok());
  EXPECT_EQ(stats.row_count, 100u);
  EXPECT_EQ(stats.columns[0].min_i64, 1);
  EXPECT_EQ(stats.columns[0].max_i64, 100);
  EXPECT_EQ(stats.columns[0].distinct_values, 100u);
  EXPECT_EQ(stats.columns[2].distinct_values, 2u);   // "ok"/"bad"
  EXPECT_EQ(stats.columns[3].distinct_values, 30u);  // 30 distinct days
  EXPECT_DOUBLE_EQ(stats.columns[1].max_f64, 99 * 1.5);
}

TEST_F(TableStorageTest, AnalyzeDistinctCountsMatchUnorderedSet) {
  // Planner estimates were built on std::unordered_set counts, so the flat
  // key index must reproduce them exactly: ±0.0 counts once, each NaN on
  // its own.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<int64_t> edge_ints = {INT64_MIN, INT64_MAX, 0, -1,
                                          INT64_MIN, -1};
  const std::vector<double> edge_doubles = {0.0, -0.0, nan, nan, -nan, inf};
  const std::vector<std::string> edge_strings = {
      "", "", std::string("a\0b", 3), std::string("a\0c", 3),
      std::string(1, '\0'), std::string("a\0b", 3)};
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Rng rng(seed);
    const int64_t domain = rng.Uniform(1, 2000);
    std::vector<ColumnData> cols = TestRows(0);
    for (int i = 0; i < 3000; ++i) {
      cols[0].i64.push_back(rng.Uniform(-domain, domain));
      cols[1].f64.push_back(static_cast<double>(rng.Uniform(-domain, domain)) *
                            0.5);
      cols[2].str.push_back(std::to_string(rng.Uniform(0, domain)));
      cols[3].i64.push_back(rng.Uniform(0, domain));
    }
    for (size_t i = 0; i < edge_ints.size(); ++i) {
      cols[0].i64.push_back(edge_ints[i]);
      cols[1].f64.push_back(edge_doubles[i]);
      cols[2].str.push_back(edge_strings[i]);
      cols[3].i64.push_back(edge_ints[i]);
    }
    TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
    ASSERT_TRUE(table.Append(cols).ok());
    catalog::TableStats stats;
    ASSERT_TRUE(table.AnalyzeInto(&stats).ok());
    EXPECT_EQ(stats.columns[0].distinct_values,
              std::unordered_set<int64_t>(cols[0].i64.begin(),
                                          cols[0].i64.end())
                  .size());
    EXPECT_EQ(stats.columns[1].distinct_values,
              std::unordered_set<double>(cols[1].f64.begin(),
                                         cols[1].f64.end())
                  .size());
    EXPECT_EQ(stats.columns[2].distinct_values,
              std::unordered_set<std::string>(cols[2].str.begin(),
                                              cols[2].str.end())
                  .size());
    EXPECT_EQ(stats.columns[3].distinct_values,
              std::unordered_set<int64_t>(cols[3].i64.begin(),
                                          cols[3].i64.end())
                  .size());
  }
}

TEST_F(TableStorageTest, TotalBytesTracksCompression) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(2000)).ok());
  const uint64_t before = table.TotalBytes();
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  ASSERT_TRUE(
      table.SetCompression("status", CompressionKind::kDictionary).ok());
  EXPECT_LT(table.TotalBytes(), before);
}

TEST_F(TableStorageTest, RebindChangesDevice) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  SsdDevice other("s1", power::SsdSpec{}, &meter_);
  EXPECT_EQ(table.device(), &ssd_);
  table.Rebind(&other);
  EXPECT_EQ(table.device(), &other);
}

// --- Catalog ----------------------------------------------------------------

TEST(Catalog, CreateLookupDrop) {
  catalog::Catalog cat;
  auto id = cat.CreateTable("t", TestSchema());
  ASSERT_TRUE(id.ok());
  auto entry = cat.GetTable("t");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->name, "t");
  EXPECT_EQ((*entry)->schema.num_columns(), 4);
  ASSERT_TRUE(cat.GetTable(*id).ok());
  ASSERT_TRUE(cat.DropTable("t").ok());
  EXPECT_FALSE(cat.GetTable("t").ok());
}

TEST(Catalog, DuplicateNameRejected) {
  catalog::Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", TestSchema()).ok());
  EXPECT_EQ(cat.CreateTable("t", TestSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(Catalog, UpdateStatsRoundTrips) {
  catalog::Catalog cat;
  auto id = cat.CreateTable("t", TestSchema());
  catalog::TableStats stats;
  stats.row_count = 77;
  stats.columns.resize(4);
  ASSERT_TRUE(cat.UpdateStats(*id, stats).ok());
  EXPECT_EQ((*cat.GetTable("t"))->stats.row_count, 77u);
}

TEST(Schema, ProjectByNameAndIndex) {
  const Schema s = TestSchema();
  auto proj = s.Project({"status", "id"});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->num_columns(), 2);
  EXPECT_EQ(proj->column(0).name, "status");
  EXPECT_FALSE(s.Project({"missing"}).ok());
  const Schema byidx = s.ProjectIndexes({3, 0});
  EXPECT_EQ(byidx.column(0).name, "day");
}

TEST(Schema, RowWidthSumsTypeWidths) {
  EXPECT_EQ(TestSchema().RowWidthBytes(), 8 + 8 + 4 + 8);
}

TEST(Schema, FindColumn) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.FindColumn("price"), 1);
  EXPECT_EQ(s.FindColumn("nope"), -1);
}

}  // namespace
}  // namespace ecodb::storage
