// Differential tests for HashJoinOp against a nested-loop reference kept in
// this file. Rows must match in exact order: probe order, then ascending
// build row. Keys are seeded int64, date and string lanes heavy with
// duplicates, plus INT64_MIN, INT64_MAX, 0 and -1. The modeled charges must
// be bit-identical at every probe dop, and the merge and nested-loop joins,
// which emit through the same RecordBatch::Gather, are checked against the
// same reference.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/filter_project.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using Rows = std::vector<std::vector<Value>>;

constexpr DataType kKeyTypes[] = {DataType::kInt64, DataType::kDate,
                                  DataType::kString};

/// String form of an integer key: 0 is the empty string, and every third
/// key carries an embedded NUL.
std::string StringKey(int64_t k) {
  if (k == 0) return "";
  std::string s = std::to_string(k);
  if (k % 3 == 0) s += std::string(1, '\0') + "z";
  return s;
}

/// `n` keys drawn from [-domain, domain], so duplicates pile up, plus two
/// copies of each edge key, shuffled.
std::vector<int64_t> SeededKeys(uint64_t seed, int n, int64_t domain) {
  Rng rng(seed);
  std::vector<int64_t> keys;
  for (int i = 0; i < n; ++i) keys.push_back(rng.Uniform(-domain, domain));
  for (int copy = 0; copy < 2; ++copy) {
    keys.insert(keys.end(), {INT64_MIN, INT64_MAX, 0, -1});
  }
  rng.Shuffle(&keys);
  return keys;
}

/// The reference: probe rows in order, each paired with every build row
/// whose key (column 0) equals its own, in build-row order.
Rows NestedLoopReference(const Rows& probe, const Rows& build) {
  Rows out;
  for (const std::vector<Value>& p : probe) {
    for (const std::vector<Value>& b : build) {
      if (p[0].i64 != b[0].i64 || p[0].str != b[0].str) continue;
      std::vector<Value> row = p;
      row.insert(row.end(), b.begin(), b.end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

class HashJoinTest : public ::testing::Test {
 protected:
  HashJoinTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  /// Table (k, v, w, s): key k of `type` (strings through StringKey), then
  /// the row number, a double and a short string.
  std::unique_ptr<storage::TableStorage> MakeTable(
      DataType type, const std::vector<int64_t>& keys) {
    Schema schema({Column{"k", type, 8}, Column{"v", DataType::kInt64, 8},
                   Column{"w", DataType::kDouble, 8},
                   Column{"s", DataType::kString, 4}});
    std::vector<storage::ColumnData> cols(4);
    for (int c = 0; c < 4; ++c) cols[c].type = schema.column(c).type;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (type == DataType::kString) {
        cols[0].str.push_back(StringKey(keys[i]));
      } else {
        cols[0].i64.push_back(keys[i]);
      }
      cols[1].i64.push_back(static_cast<int64_t>(i));
      cols[2].f64.push_back(static_cast<double>(i) * 0.25);
      cols[3].str.push_back("p" + std::to_string(i % 7));
    }
    auto table = std::make_unique<storage::TableStorage>(
        next_table_id_++, schema, storage::TableLayout::kColumn, ssd_.get());
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  struct Outcome {
    Rows rows;
    QueryStats stats;
  };

  /// Runs `root` with small batches and morsels, so joins straddle several.
  Outcome Run(Operator* root, int dop = 1) {
    ExecOptions options;
    options.dop = dop;
    options.batch_rows = 128;
    options.morsel_rows = 64;
    ExecContext ctx(platform_.get(), options);
    auto result = CollectAll(root, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    Outcome out;
    out.stats = ctx.Finish();
    if (!result.ok()) return out;
    for (const RecordBatch& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<Value> row;
        for (size_t c = 0; c < batch.num_columns(); ++c) {
          row.push_back(batch.GetValue(r, c));
        }
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  Rows Scan(const storage::TableStorage* table) {
    TableScanOp scan(table);
    return Run(&scan).rows;
  }

  Rows HashJoin(const storage::TableStorage* probe,
                const storage::TableStorage* build) {
    HashJoinOp join(std::make_unique<TableScanOp>(probe),
                    std::make_unique<TableScanOp>(build), "k", "k");
    return Run(&join).rows;
  }

  catalog::TableId next_table_id_ = 1;
  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

TEST_F(HashJoinTest, MatchesReferenceInOrderOnSeededKeys) {
  for (DataType type : kKeyTypes) {
    for (uint64_t seed : {1, 2, 3}) {
      auto probe = MakeTable(type, SeededKeys(seed, 400, 25));
      auto build = MakeTable(type, SeededKeys(seed + 100, 300, 25));
      const Rows expected =
          NestedLoopReference(Scan(probe.get()), Scan(build.get()));
      ASSERT_GT(expected.size(), 400u);
      EXPECT_EQ(HashJoin(probe.get(), build.get()), expected)
          << "type " << static_cast<int>(type) << " seed " << seed;
    }
  }
}

TEST_F(HashJoinTest, AllEqualKeysPairEveryProbeRowWithEveryBuildRow) {
  for (DataType type : kKeyTypes) {
    auto probe = MakeTable(type, std::vector<int64_t>(30, 7));
    auto build = MakeTable(type, std::vector<int64_t>(40, 7));
    const Rows got = HashJoin(probe.get(), build.get());
    EXPECT_EQ(got.size(), 1200u);
    EXPECT_EQ(got, NestedLoopReference(Scan(probe.get()), Scan(build.get())));
  }
}

TEST_F(HashJoinTest, EmptyBuildOrProbeSideJoinsToNothing) {
  for (DataType type : kKeyTypes) {
    auto full = MakeTable(type, SeededKeys(5, 100, 10));
    auto empty = MakeTable(type, {});
    EXPECT_TRUE(HashJoin(full.get(), empty.get()).empty());
    EXPECT_TRUE(HashJoin(empty.get(), full.get()).empty());
  }
}

TEST_F(HashJoinTest, ChargesAreBitIdenticalAtEveryProbeDop) {
  auto probe = MakeTable(DataType::kInt64, SeededKeys(11, 3000, 40));
  auto build = MakeTable(DataType::kInt64, SeededKeys(12, 500, 40));
  const Rows expected =
      NestedLoopReference(Scan(probe.get()), Scan(build.get()));

  // A FilterOp probe child is not a MorselSource, so this join probes
  // batch by batch; the morsel probe below fuses the same pass-all filter
  // into its scan, so both bill the filter alike.
  const auto all = [] { return Col("k") >= Lit(int64_t{INT64_MIN}); };
  HashJoinOp serial(
      std::make_unique<FilterOp>(std::make_unique<TableScanOp>(probe.get()),
                                 all()),
      std::make_unique<TableScanOp>(build.get()), "k", "k");
  const Outcome base = Run(&serial);
  EXPECT_EQ(base.rows, expected);
  for (int dop : {1, 2, 4, 8}) {
    HashJoinOp join(std::make_unique<TableScanOp>(
                        probe.get(), std::vector<std::string>{}, nullptr,
                        all()),
                    std::make_unique<TableScanOp>(build.get()), "k", "k");
    const Outcome got = Run(&join, dop);
    EXPECT_EQ(got.rows, expected) << "dop=" << dop;
    EXPECT_EQ(got.stats.cpu_instructions, base.stats.cpu_instructions)
        << "dop=" << dop;
    EXPECT_EQ(got.stats.dram_joules, base.stats.dram_joules) << "dop=" << dop;
    EXPECT_EQ(got.stats.io_bytes, base.stats.io_bytes) << "dop=" << dop;
    EXPECT_EQ(join.build_bytes(), serial.build_bytes()) << "dop=" << dop;
  }
}

TEST_F(HashJoinTest, MergeAndNestedLoopJoinsMatchTheSameReference) {
  auto probe = MakeTable(DataType::kInt64, SeededKeys(21, 300, 15));
  auto build = MakeTable(DataType::kInt64, SeededKeys(22, 200, 15));
  Rows expected = NestedLoopReference(Scan(probe.get()), Scan(build.get()));

  // The nested-loop join emits the hash join's order: outer, then inner.
  NestedLoopJoinOp nlj(std::make_unique<TableScanOp>(probe.get()),
                       std::make_unique<TableScanOp>(build.get()),
                       Col("k") == Col("k_r"));
  EXPECT_EQ(Run(&nlj).rows, expected);

  // The merge join emits key order, each key's pairs as in the reference.
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const std::vector<Value>& a, const std::vector<Value>& b) {
        return a[0].i64 < b[0].i64;
      });
  MergeJoinOp merge(std::make_unique<TableScanOp>(probe.get()),
                    std::make_unique<TableScanOp>(build.get()), "k", "k");
  EXPECT_EQ(Run(&merge).rows, expected);
}

}  // namespace
}  // namespace ecodb::exec
