// Differential test of HashAggregateOp against a row-at-a-time oracle.
//
// The oracle folds every row on its own: it encodes the row's group key
// with EncodeGroupKey, finds the group in a std::map and updates a sum, a
// count, a minimum and a maximum per aggregate. Over a morsel child it folds
// each morsel into a partial map and merges the partials in morsel order;
// over any other child it folds every batch straight into one map. The
// aggregate inputs are multiples of 0.1, which binary doubles cannot hold
// exactly, so a change in any group's fold order changes result bits. Rows
// are compared by bit pattern, in order, which pins both the values and
// the emission order (ascending encoded key).

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "naive_reference.h"
#include "power/platform.h"
#include "storage/table_storage.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using Row = std::vector<Value>;

constexpr size_t kMorselRows = 256;

// --- The oracle --------------------------------------------------------------

struct OracleGroup {
  Row keys;
  std::vector<double> sum, min, max;
  std::vector<int64_t> count;
};
using OracleMap = std::map<std::string, OracleGroup>;

void OracleFold(const RecordBatch& batch, const std::vector<int>& group_by,
                const std::vector<AggregateItem>& aggs,
                const std::vector<BoundExpr>& bound, OracleMap* groups) {
  std::vector<ColumnData> inputs(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].input != nullptr) inputs[a] = bound[a].Evaluate(batch);
  }
  std::string key;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    EncodeGroupKey(batch, group_by, r, &key);
    auto [it, inserted] = groups->try_emplace(key);
    OracleGroup& g = it->second;
    if (inserted) {
      for (int c : group_by) g.keys.push_back(batch.GetValue(r, c));
      g.sum.assign(aggs.size(), 0.0);
      g.count.assign(aggs.size(), 0);
      g.min.assign(aggs.size(), std::numeric_limits<double>::infinity());
      g.max.assign(aggs.size(), -std::numeric_limits<double>::infinity());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      double v = 0.0;
      if (aggs[a].input != nullptr) {
        v = inputs[a].type == DataType::kDouble
                ? inputs[a].f64[r]
                : static_cast<double>(inputs[a].i64[r]);
      }
      g.sum[a] += v;
      g.count[a] += 1;
      g.min[a] = std::min(g.min[a], v);
      g.max[a] = std::max(g.max[a], v);
    }
  }
}

void OracleMerge(const OracleMap& partial, OracleMap* groups) {
  for (const auto& [key, from] : partial) {
    auto [it, inserted] = groups->try_emplace(key, from);
    if (inserted) continue;
    OracleGroup& into = it->second;
    for (size_t a = 0; a < into.sum.size(); ++a) {
      into.sum[a] += from.sum[a];
      into.count[a] += from.count[a];
      into.min[a] = std::min(into.min[a], from.min[a]);
      into.max[a] = std::max(into.max[a], from.max[a]);
    }
  }
}

std::vector<Row> OracleRows(const OracleMap& groups, bool global,
                            const std::vector<AggregateItem>& aggs) {
  std::vector<Row> out;
  for (const auto& [key, g] : groups) {
    Row& row = out.emplace_back(g.keys);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const double n = static_cast<double>(g.count[a]);
      switch (aggs[a].func) {
        case AggFunc::kSum:
          row.push_back(Value::Double(g.sum[a]));
          break;
        case AggFunc::kCount:
          row.push_back(Value::Int64(g.count[a]));
          break;
        case AggFunc::kMin:
          row.push_back(Value::Double(g.min[a]));
          break;
        case AggFunc::kMax:
          row.push_back(Value::Double(g.max[a]));
          break;
        case AggFunc::kAvg:
          row.push_back(Value::Double(g.sum[a] / n));
          break;
      }
    }
  }
  if (out.empty() && global) {
    out.emplace_back();
    for (const AggregateItem& item : aggs) {
      out.back().push_back(item.func == AggFunc::kCount ? Value::Int64(0)
                                                        : Value::Double(0.0));
    }
  }
  return out;
}

// --- Helpers -----------------------------------------------------------------

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << label << " row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_TRUE(naive::SameBits(got[r][c], want[r][c]))
          << label << " row " << r << " col " << c << ": "
          << got[r][c].f64 << " vs " << want[r][c].f64;
    }
  }
}

std::vector<AggregateItem> Aggregates() {
  return {
      {"sum_v", AggFunc::kSum, Col("v")},
      {"avg_v", AggFunc::kAvg, Col("v")},
      {"min_v", AggFunc::kMin, Col("v")},
      {"max_v", AggFunc::kMax, Col("v")},
      {"n", AggFunc::kCount, nullptr},
      {"n_v", AggFunc::kCount, Col("v")},
      {"sum_mix", AggFunc::kSum, Col("v") * Lit(0.3) + Col("w")},
      {"min_w", AggFunc::kMin, Col("w")},
      {"max_w", AggFunc::kMax, Col("w")},
      {"avg_w", AggFunc::kAvg, Col("w")},
  };
}

/// Group keys that stress the key words: extreme and negative integers,
/// NaNs with two payloads, denormals, infinities, and strings around the
/// 7-byte packing limit, with embedded NULs and pairs that differ only
/// after byte 7. A single key whose words are its keys is addressed by
/// key offset in a batch where its words are dense and hashed elsewhere:
/// `w` and `d` are dense everywhere and `i` nowhere; the one-letter flags
/// `t` are dense except in the morsels holding an empty string; and `u`'s
/// two 7-byte strings are dense except in the even morsels, which mix in
/// an 8-byte string that extends one of them.
std::unique_ptr<storage::TableStorage> MakeTable(size_t rows) {
  const Schema schema({Column{"i", DataType::kInt64, 8},
                       Column{"d", DataType::kDate, 8},
                       Column{"f", DataType::kDouble, 8},
                       Column{"s", DataType::kString, 8},
                       Column{"c", DataType::kInt64, 8},
                       Column{"v", DataType::kDouble, 8},
                       Column{"w", DataType::kInt64, 8},
                       Column{"t", DataType::kString, 1},
                       Column{"u", DataType::kString, 8}});
  const int64_t ints[] = {INT64_MIN, INT64_MAX, 0, -1};
  double other_nan = 0.0;
  const uint64_t nan_bits = 0x7ff8000000000123ULL;
  std::memcpy(&other_nan, &nan_bits, sizeof(other_nan));
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double doubles[] = {std::numeric_limits<double>::quiet_NaN(),
                            other_nan,
                            denorm,
                            3 * denorm,
                            -denorm,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            1.5,
                            -2.25,
                            0.1,
                            1e300};
  const std::string strings[] = {"",
                                 "a",
                                 "abcdefg",
                                 "abcdefgh",
                                 "abcdefgi",
                                 "abcdefghX",
                                 "abcdefghY",
                                 "0123456789abcde",
                                 "0123456789abcdef",
                                 "0123456789abcdeF",
                                 std::string("\0", 1),
                                 std::string("\0\0", 2),
                                 std::string("a\0b", 3),
                                 std::string("abcdefg\0", 8),
                                 std::string("abcdefg\0x", 9)};
  const std::string flags[] = {"N", "O", "R"};
  std::vector<ColumnData> cols(9);
  for (int c = 0; c < 9; ++c) cols[c].type = schema.column(c).type;
  for (size_t r = 0; r < rows; ++r) {
    cols[0].i64.push_back(r % 50 == 0 ? ints[(r / 50) % 4]
                                      : static_cast<int64_t>(r * 7919 % 401) -
                                            200);
    cols[1].i64.push_back(8000 + static_cast<int64_t>(r % 30));
    cols[2].f64.push_back(doubles[r * 13 % std::size(doubles)]);
    cols[3].str.push_back(strings[r * 7 % std::size(strings)]);
    cols[4].i64.push_back(42);
    cols[5].f64.push_back(static_cast<double>(
                              static_cast<int64_t>(r * 37 % 1000) - 500) *
                          0.1);
    cols[6].i64.push_back(static_cast<int64_t>(r % 17) - 8);
    cols[7].str.push_back(r % 600 == 0 ? "" : flags[r % 3]);
    const bool mixed = r / kMorselRows % 2 == 0 && r % 5 == 0;
    cols[8].str.push_back(mixed ? "a2345678" : r % 3 ? "a234567" : "b234567");
  }
  auto table = std::make_unique<storage::TableStorage>(
      1, schema, storage::TableLayout::kColumn, nullptr);
  EXPECT_TRUE(table->Append(cols).ok());
  return table;
}

// --- The differential --------------------------------------------------------

struct Case {
  std::string name;
  std::vector<std::string> group_by;
  bool empty = false;  // a filter that keeps no row
};

// Names the case in test listings (its raw bytes hold heap addresses).
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class AggregateDifferentialTest : public ::testing::TestWithParam<Case> {
 protected:
  AggregateDifferentialTest()
      : platform_(power::MakeProportionalPlatform()), table_(MakeTable(3000)) {}

  ExprPtr Filter() const {
    return GetParam().empty ? Col("w") > Lit(int64_t{100})
                            : Col("w") != Lit(int64_t{3});
  }

  ExecOptions Options(int dop) const {
    ExecOptions options;
    options.dop = dop;
    options.morsel_rows = kMorselRows;
    return options;
  }

  /// Runs GROUP BY over `child` at `dop`; returns rows and stats.
  std::vector<Row> RunAggregate(OperatorPtr child, int dop,
                                QueryStats* stats) {
    HashAggregateOp agg(std::move(child), GetParam().group_by, Aggregates());
    ExecContext ctx(platform_.get(), Options(dop));
    StatusOr<QueryResultSet> result = CollectAll(&agg, &ctx);
    *stats = ctx.Finish();
    EXPECT_TRUE(result.ok()) << result.status().message();
    return result.ok() ? naive::RowsOf(result->batches) : std::vector<Row>{};
  }

  /// The oracle over `child`: per morsel then merged when `child` is a
  /// scan, otherwise batch by batch.
  std::vector<Row> RunOracle(OperatorPtr child) {
    ExecContext ctx(platform_.get(), Options(1));
    EXPECT_TRUE(child->Open(&ctx).ok());
    const std::vector<AggregateItem> aggs = Aggregates();
    std::vector<int> group_by;
    std::vector<BoundExpr> inputs;
    Schema out;
    EXPECT_TRUE(BindAggregation(child->output_schema(), GetParam().group_by,
                                aggs, &group_by, &inputs, &out)
                    .ok());
    OracleMap groups;
    if (auto* source = dynamic_cast<MorselSource*>(child.get())) {
      for (size_t m = 0; m < source->morsel_count(); ++m) {
        RecordBatch batch;
        EXPECT_TRUE(source->ProduceMorsel(m, &batch).ok());
        OracleMap partial;
        OracleFold(batch, group_by, aggs, inputs, &partial);
        OracleMerge(partial, &groups);
      }
    } else {
      bool eos = false;
      while (true) {
        RecordBatch batch;
        EXPECT_TRUE(child->Next(&batch, &eos).ok());
        if (eos) break;
        OracleFold(batch, group_by, aggs, inputs, &groups);
      }
    }
    child->Close();
    ctx.Finish();
    return OracleRows(groups, group_by.empty(), aggs);
  }

  OperatorPtr MorselChild() const {
    return std::make_unique<TableScanOp>(table_.get(),
                                         std::vector<std::string>{}, nullptr,
                                         GetParam().empty ? Filter() : nullptr);
  }
  OperatorPtr FilterChild() const {
    return std::make_unique<FilterOp>(
        std::make_unique<TableScanOp>(table_.get()), Filter());
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::TableStorage> table_;
};

TEST_P(AggregateDifferentialTest, MatchesRowAtATimeFoldAtEveryDop) {
  const struct {
    const char* name;
    std::function<OperatorPtr()> make;
  } children[] = {
      {"morsel", [&] { return MorselChild(); }},
      {"filter", [&] { return FilterChild(); }},
  };
  for (const auto& child : children) {
    const std::vector<Row> want = RunOracle(child.make());
    if (GetParam().empty) {
      EXPECT_EQ(want.size(), GetParam().group_by.empty() ? 1u : 0u);
    } else {
      EXPECT_GT(want.size(), 0u);
    }
    QueryStats base;
    for (int dop : {1, 2, 4, 8}) {
      QueryStats stats;
      const std::vector<Row> got = RunAggregate(child.make(), dop, &stats);
      const std::string label =
          std::string(child.name) + " dop=" + std::to_string(dop);
      ExpectSameRows(got, want, label);
      if (dop == 1) {
        base = stats;
        continue;
      }
      EXPECT_EQ(stats.cpu_instructions, base.cpu_instructions) << label;
      EXPECT_EQ(stats.dram_joules, base.dram_joules) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Keys, AggregateDifferentialTest,
    ::testing::Values(Case{"int64", {"i"}}, Case{"dense_int64", {"w"}},
                      Case{"date", {"d"}}, Case{"double", {"f"}},
                      Case{"string", {"s"}}, Case{"short_string", {"t"}},
                      Case{"string_7_and_8_bytes", {"u"}},
                      Case{"int64_string", {"i", "s"}},
                      Case{"string_double_date", {"s", "f", "d"}},
                      Case{"one_group", {"c"}}, Case{"global", {}},
                      Case{"empty_grouped", {"i"}, true},
                      Case{"empty_global", {}, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

// --- GROUP BY equality on doubles --------------------------------------------

TEST(AggregateGroupKeyTest, NegativeAndPositiveZeroShareOneGroup) {
  auto platform = power::MakeProportionalPlatform();
  const Schema schema({Column{"d", DataType::kDouble, 8}});
  storage::TableStorage table(1, schema, storage::TableLayout::kColumn,
                              nullptr);
  std::vector<ColumnData> cols(1);
  cols[0].type = DataType::kDouble;
  cols[0].f64 = {0.0, -0.0, 0.0, -0.0, 1.0};
  ASSERT_TRUE(table.Append(cols).ok());
  for (bool morsel_child : {true, false}) {
    OperatorPtr child = std::make_unique<TableScanOp>(&table);
    if (!morsel_child) {
      child = std::make_unique<FilterOp>(std::move(child),
                                         Col("d") < Lit(2.0));
    }
    HashAggregateOp agg(std::move(child), {"d"},
                        {{"n", AggFunc::kCount, nullptr}});
    ExecContext ctx(platform.get(), ExecOptions{});
    StatusOr<QueryResultSet> result = CollectAll(&agg, &ctx);
    ctx.Finish();
    ASSERT_TRUE(result.ok()) << result.status().message();
    const std::vector<Row> rows = naive::RowsOf(result->batches);
    ASSERT_EQ(rows.size(), 2u) << "morsel child: " << morsel_child;
    // The zero group's key is emitted as +0.0.
    EXPECT_TRUE(naive::SameBits(rows[0][0], Value::Double(0.0)));
    EXPECT_EQ(rows[0][1].i64, 4);
    EXPECT_EQ(rows[1][0].f64, 1.0);
    EXPECT_EQ(rows[1][1].i64, 1);
  }
}

}  // namespace
}  // namespace ecodb::exec
