// Differential test of the scan's fused exact filter against a FilterOp
// over the same scan without one.
//
// The fused filter evaluates the predicate over only the lanes it reads and
// gathers the surviving rows of every projected lane from the column
// source; the reference copies every lane and filters the whole batch.
// Both must emit the same rows in the same order and bill the same work,
// whether the rows leave the scan through Next() or through ProduceMorsel,
// at every dop.

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/filter_project.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "naive_reference.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using Row = std::vector<Value>;
using storage::CompressionKind;

constexpr size_t kRows = 6000;
constexpr size_t kZoneRows = 128;
constexpr size_t kMorselRows = 512;

struct Outcome {
  std::vector<Row> rows;
  QueryStats stats;
};

struct Case {
  std::string name;
  std::vector<std::string> columns;  // projection; empty = all
  std::function<ExprPtr()> filter;
  bool prune = false;  // also prune zone blocks with the same ExprPtr
  size_t expected_rows = 0;
};

// Names the case in test listings (its raw bytes hold heap addresses).
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// Raw id, x and name lanes next to FOR-, RLE- and dictionary-compressed
/// ones, with zone maps.
class ScanFilterDifferentialTest : public ::testing::TestWithParam<Case> {
 protected:
  ScanFilterDifferentialTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
    const Schema schema({Column{"id", DataType::kInt64, 8},
                         Column{"k", DataType::kInt64, 8},
                         Column{"run", DataType::kInt64, 8},
                         Column{"mode", DataType::kString, 8},
                         Column{"x", DataType::kDouble, 8},
                         Column{"name", DataType::kString, 12},
                         Column{"odd", DataType::kInt64, 8}});
    table_ = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    const char* modes[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
    std::vector<ColumnData> cols(7);
    for (int c = 0; c < 7; ++c) cols[c].type = schema.column(c).type;
    for (size_t r = 0; r < kRows; ++r) {
      cols[0].i64.push_back(static_cast<int64_t>(r));
      cols[1].i64.push_back(static_cast<int64_t>(r * 7 % 1000));
      cols[2].i64.push_back(static_cast<int64_t>(r / 100 % 6));
      cols[3].str.push_back(modes[r * 3 % 4]);
      cols[4].f64.push_back(static_cast<double>(r % 40) * 0.5);
      cols[5].str.push_back("customer#" + std::to_string(r % 97));
      cols[6].i64.push_back(static_cast<int64_t>(r % 2));
    }
    EXPECT_TRUE(table_->Append(cols).ok());
    EXPECT_TRUE(table_->SetCompression("k", CompressionKind::kFor).ok());
    EXPECT_TRUE(table_->SetCompression("run", CompressionKind::kRle).ok());
    EXPECT_TRUE(
        table_->SetCompression("mode", CompressionKind::kDictionary).ok());
    EXPECT_TRUE(table_->BuildZoneMaps(kZoneRows).ok());
  }

  ExecOptions Options(int dop) const {
    ExecOptions options;
    options.dop = dop;
    options.morsel_rows = kMorselRows;
    return options;
  }

  /// The fused scan: one ExprPtr as exact filter, and as prune filter too
  /// when the case prunes.
  std::unique_ptr<TableScanOp> Fused() const {
    ExprPtr filter = GetParam().filter();
    return std::make_unique<TableScanOp>(
        table_.get(), GetParam().columns,
        GetParam().prune ? filter : nullptr, filter);
  }

  /// The reference: a FilterOp over the scan with the same pruning.
  OperatorPtr Reference() const {
    return std::make_unique<FilterOp>(
        std::make_unique<TableScanOp>(
            table_.get(), GetParam().columns,
            GetParam().prune ? GetParam().filter() : nullptr),
        GetParam().filter());
  }

  Outcome ThroughNext(Operator* root, int dop) {
    ExecContext ctx(platform_.get(), Options(dop));
    StatusOr<QueryResultSet> result = CollectAll(root, &ctx);
    Outcome out;
    out.stats = ctx.Finish();
    EXPECT_TRUE(result.ok()) << result.status().message();
    if (result.ok()) out.rows = naive::RowsOf(result->batches);
    return out;
  }

  /// Pulls every morsel across the pool, as a morsel consumer does, and
  /// concatenates them in morsel order.
  Outcome ThroughMorsels(TableScanOp* scan, int dop) {
    ExecContext ctx(platform_.get(), Options(dop));
    EXPECT_TRUE(scan->Open(&ctx).ok());
    std::vector<RecordBatch> morsels(scan->morsel_count());
    WorkerPool* pool = ctx.worker_pool();
    EXPECT_TRUE(pool->Run(morsels.size(), [&](size_t m, int /*slot*/) -> Status {
                      return scan->ProduceMorsel(m, &morsels[m]);
                    })
                    .ok());
    Outcome out;
    out.rows = naive::RowsOf(morsels);
    scan->Close();
    out.stats = ctx.Finish();
    return out;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  std::unique_ptr<storage::TableStorage> table_;
};

void ExpectSame(const Outcome& got, const Outcome& want,
                const std::string& label) {
  EXPECT_EQ(got.rows, want.rows) << label;
  EXPECT_EQ(got.stats.rows_emitted, want.stats.rows_emitted) << label;
  EXPECT_EQ(got.stats.io_bytes, want.stats.io_bytes) << label;
  EXPECT_EQ(got.stats.cpu_instructions, want.stats.cpu_instructions)
      << label;
}

TEST_P(ScanFilterDifferentialTest, MatchesFilterOpAtEveryDop) {
  OperatorPtr reference = Reference();
  const Outcome want = ThroughNext(reference.get(), 1);
  EXPECT_EQ(want.rows.size(), GetParam().expected_rows);
  for (int dop : {1, 2, 4, 8}) {
    const std::string label = "dop=" + std::to_string(dop);
    OperatorPtr ref = Reference();
    ExpectSame(ThroughNext(ref.get(), dop), want, "reference " + label);
    // One operator opened twice: each run rebinds the filter and rebuilds
    // the morsels from scratch.
    std::unique_ptr<TableScanOp> fused = Fused();
    ExpectSame(ThroughNext(fused.get(), dop), want, "Next " + label);
    ExpectSame(ThroughNext(fused.get(), dop), want, "Next again " + label);
    const Outcome morsels = ThroughMorsels(Fused().get(), dop);
    EXPECT_EQ(morsels.rows, want.rows) << "morsels " << label;
    EXPECT_EQ(morsels.stats.io_bytes, want.stats.io_bytes) << label;
    EXPECT_EQ(morsels.stats.cpu_instructions, want.stats.cpu_instructions)
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Filters, ScanFilterDifferentialTest,
    ::testing::Values(
        Case{"strict_subset",
             {"x", "name", "id", "k"},
             [] { return Col("id") < Lit(int64_t{1000}); },
             false,
             1000},
        Case{"string_and_column_twice",
             {},
             [] {
               return And(Col("mode") == Lit("RAIL"),
                          Or(Col("x") < Lit(2.0), Col("x") >= Lit(18.0)));
             },
             false,
             300},
        Case{"compressed_lanes",
             {"mode", "run", "id", "k"},
             [] {
               return And(Col("k") >= Lit(int64_t{500}),
                          Col("run") != Lit(int64_t{3}));
             },
             false,
             2486},
        Case{"zone_pruned",
             {},
             [] {
               return And(Col("id") >= Lit(int64_t{2000}),
                          Col("id") < Lit(int64_t{2700}));
             },
             true,
             700},
        Case{"none", {}, [] { return Col("id") < Lit(int64_t{0}); }, true, 0},
        Case{"alternating",
             {"name", "odd", "id"},
             [] { return Col("odd") == Lit(int64_t{1}); },
             false,
             kRows / 2},
        Case{"all",
             {},
             [] { return Col("id") >= Lit(int64_t{0}); },
             true,
             kRows}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ecodb::exec
