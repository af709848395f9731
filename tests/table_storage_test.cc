// Tests for TableStorage: loading, per-column compression with real
// round-trips, layout-dependent scan volumes, decode-cost accounting, and
// statistics.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/flat_key_index.h"
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
  const auto expect_set_counts = [&](const std::vector<ColumnData>& cols) {
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
  };
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
    expect_set_counts(cols);
  }
  // The int64 lane spans exactly the directory's density bound, so it is
  // counted by key offset; the date lane spans one key more, so it is
  // hashed.
  constexpr int64_t kRows = 3000;
  const int64_t bound = kRows * FlatKeyIndex::kMaxDirectorySlotsPerRow;
  Rng rng(6);
  std::vector<ColumnData> cols = TestRows(0);
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t pin = i == 0 ? 0 : i == 1 ? bound : rng.Uniform(0, 999);
    cols[0].i64.push_back(std::min(pin, bound - 1) - 7);
    cols[1].f64.push_back(0.5 * static_cast<double>(i % 10));
    cols[2].str.push_back(std::to_string(i % 10));
    cols[3].i64.push_back(pin + 8000);
  }
  FlatKeyIndex index;
  index.Build(std::span<const int64_t>(cols[0].i64));
  EXPECT_TRUE(index.direct());
  index.Build(std::span<const int64_t>(cols[3].i64));
  EXPECT_FALSE(index.direct());
  expect_set_counts(cols);
}

TEST_F(TableStorageTest, DoubleBoundsIgnoreNaNWhereverItSits) {
  // The same values with one NaN first, in the middle and last: the bounds
  // are the other values' every time.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> orders = {
      {nan, 2.5, -1.0, 7.0}, {2.5, -1.0, nan, 7.0}, {2.5, -1.0, 7.0, nan}};
  for (const std::vector<double>& values : orders) {
    std::vector<ColumnData> cols = TestRows(static_cast<int>(values.size()));
    cols[1].f64 = values;
    TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
    ASSERT_TRUE(table.Append(cols).ok());
    catalog::TableStats stats;
    ASSERT_TRUE(table.AnalyzeInto(&stats).ok());
    EXPECT_EQ(stats.columns[1].min_f64, -1.0);
    EXPECT_EQ(stats.columns[1].max_f64, 7.0);
    EXPECT_EQ(stats.columns[1].distinct_values, 4u);
  }
  // With nothing but NaN, the bounds stay NaN.
  std::vector<ColumnData> cols = TestRows(2);
  cols[1].f64 = {nan, nan};
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(cols).ok());
  catalog::TableStats stats;
  ASSERT_TRUE(table.AnalyzeInto(&stats).ok());
  EXPECT_TRUE(std::isnan(stats.columns[1].min_f64));
  EXPECT_TRUE(std::isnan(stats.columns[1].max_f64));
}

TEST_F(TableStorageTest, DictionaryColumnExpandsToReadColumn) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(500)).ok());
  ASSERT_TRUE(table.SetCompression("status", CompressionKind::kDictionary)
                  .ok());
  const StatusOr<DictionaryColumn> coded = table.ReadDictionaryColumn(2);
  ASSERT_TRUE(coded.ok()) << coded.status().message();
  const StatusOr<ColumnData> full = table.ReadColumn(2);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(coded->codes.size(), full->str.size());
  for (size_t r = 0; r < coded->codes.size(); ++r) {
    ASSERT_LT(coded->codes[r], coded->dictionary.size());
    EXPECT_EQ(coded->dictionary[coded->codes[r]], full->str[r]) << r;
  }
  EXPECT_EQ(table.ReadDictionaryColumn(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.ReadDictionaryColumn(4).status().code(),
            StatusCode::kOutOfRange);
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

TEST(Catalog, CreateAndLookup) {
  catalog::Catalog cat;
  auto id = cat.CreateTable("t", TestSchema());
  ASSERT_TRUE(id.ok());
  auto entry = cat.GetTable("t");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->id, *id);
  EXPECT_EQ((*entry)->name, "t");
  EXPECT_EQ((*entry)->schema.num_columns(), 4);
  EXPECT_EQ(cat.size(), 1u);
  EXPECT_EQ(cat.GetTable("u").status().code(), StatusCode::kNotFound);
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
  const Schema proj =
      s.ProjectIndexes({s.FindColumn("status"), s.FindColumn("id")});
  EXPECT_EQ(proj.num_columns(), 2);
  EXPECT_EQ(proj.column(0).name, "status");
  EXPECT_EQ(proj.column(1).name, "id");
  EXPECT_EQ(s.FindColumn("missing"), -1);
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
