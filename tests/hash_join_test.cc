// Differential tests for HashJoinOp against a nested-loop reference kept in
// this file. Rows must match in exact order: probe order, then ascending
// build row. Keys are seeded int64, date and string lanes heavy with
// duplicates, plus INT64_MIN, INT64_MAX, 0 and -1 (so the build is hashed),
// and dense int64 and date lanes (so it is addressed by key offset). The
// modeled charges must be bit-identical at every probe dop, and the merge
// and nested-loop joins, which emit through the same RecordBatch::Gather,
// are checked against the same reference. Residual edges checked inside a
// join must return the rows, batches and bills of the same join under
// stacked FilterOps.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/filter_project.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "naive_reference.h"
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

/// `n` keys drawn from [lo, lo + span), duplicates once n nears span.
std::vector<int64_t> DenseKeys(uint64_t seed, int n, int64_t lo,
                               int64_t span) {
  Rng rng(seed);
  std::vector<int64_t> keys;
  for (int i = 0; i < n; ++i) keys.push_back(lo + rng.Uniform(0, span - 1));
  return keys;
}

/// lo, lo + 1, ..., lo + n - 1, shuffled: every key once.
std::vector<int64_t> UniqueKeys(uint64_t seed, int n, int64_t lo) {
  std::vector<int64_t> keys;
  for (int i = 0; i < n; ++i) keys.push_back(lo + i);
  Rng rng(seed);
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
    out.rows = naive::RowsOf(result->batches);
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

TEST_F(HashJoinTest, DenseKeysMatchReferenceInOrderAtEveryProbeDop) {
  constexpr int64_t kBound = FlatKeyIndex::kMaxDirectorySlotsPerRow;
  const auto with = [](std::vector<int64_t> keys,
                       std::initializer_list<int64_t> more) {
    keys.insert(keys.end(), more);
    return keys;
  };
  const struct {
    const char* name;
    std::vector<int64_t> build;
    std::vector<int64_t> probe;  // reaches below min and above max
    bool direct;                 // how the build is addressed
  } cases[] = {
      {"duplicates", DenseKeys(1, 300, 0, 100), DenseKeys(2, 500, -20, 140),
       true},
      {"unique", UniqueKeys(3, 300, 1000), DenseKeys(4, 500, 980, 340), true},
      {"just above INT64_MIN", DenseKeys(5, 300, INT64_MIN + 1, 200),
       with(DenseKeys(6, 400, INT64_MIN, 220), {INT64_MIN, INT64_MAX, 0}),
       true},
      {"just below INT64_MAX", DenseKeys(7, 300, INT64_MAX - 200, 200),
       with(DenseKeys(8, 400, INT64_MAX - 220, 221),
            {INT64_MAX, INT64_MIN, 0}),
       true},
      {"at the density bound",
       with(DenseKeys(9, 98, 0, 100 * kBound), {0, 100 * kBound - 1}),
       DenseKeys(10, 500, -10, 100 * kBound + 20), true},
      {"one past the density bound",
       with(DenseKeys(9, 98, 0, 100 * kBound), {0, 100 * kBound}),
       DenseKeys(10, 500, -10, 100 * kBound + 20), false},
      {"empty build", {}, DenseKeys(11, 200, -5, 10), false},
      {"single key", {42}, DenseKeys(12, 200, 40, 5), true},
      {"single key repeated", {42, 42, 42}, DenseKeys(13, 200, 40, 5), true},
  };
  for (const auto& c : cases) {
    FlatKeyIndex index;
    index.Build(std::span<const int64_t>(c.build));
    ASSERT_EQ(index.direct(), c.direct) << c.name;
    for (DataType type : {DataType::kInt64, DataType::kDate}) {
      SCOPED_TRACE(std::string(c.name) + " type " +
                   std::to_string(static_cast<int>(type)));
      auto probe = MakeTable(type, c.probe);
      auto build = MakeTable(type, c.build);
      const Rows expected =
          NestedLoopReference(Scan(probe.get()), Scan(build.get()));
      if (!c.build.empty()) {
        ASSERT_FALSE(expected.empty());
      }

      // The batch-at-a-time probe (a FilterOp child is no MorselSource).
      HashJoinOp serial(
          std::make_unique<FilterOp>(
              std::make_unique<TableScanOp>(probe.get()),
              Col("k") >= (type == DataType::kDate
                               ? LitDate(INT64_MIN)
                               : Lit(int64_t{INT64_MIN}))),
          std::make_unique<TableScanOp>(build.get()), "k", "k");
      EXPECT_EQ(Run(&serial).rows, expected);

      QueryStats first;
      for (int dop : {1, 2, 4, 8}) {
        HashJoinOp join(std::make_unique<TableScanOp>(probe.get()),
                        std::make_unique<TableScanOp>(build.get()), "k", "k");
        const Outcome got = Run(&join, dop);
        EXPECT_EQ(got.rows, expected) << "dop=" << dop;
        if (dop == 1) first = got.stats;
        EXPECT_EQ(got.stats.cpu_instructions, first.cpu_instructions)
            << "dop=" << dop;
        EXPECT_EQ(got.stats.dram_joules, first.dram_joules) << "dop=" << dop;
        EXPECT_EQ(got.stats.io_bytes, first.io_bytes) << "dop=" << dop;
      }
    }
  }
}

// --- Residual edges ---------------------------------------------------------

/// A fresh platform, device and pair of tables per run, so every run starts
/// from the same clock and meter and QueryStats compare bit for bit. The
/// left table (k, li, ld, ls, lf, lv) and the right one (k2, ri, rd, rs,
/// rf, rv) join on k = k2; their other key columns pair up by type for the
/// residual edges, over small domains so that many pairs pass and many
/// fail. The doubles hold NaN, -0.0 and +0.0.
struct ResidualRig {
  ResidualRig() : platform(power::MakeProportionalPlatform()) {
    ssd = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                               platform->meter());
    left = MakeSide(1, "l", "k", 400);
    right = MakeSide(2, "r", "k2", 150);
  }

  std::unique_ptr<storage::TableStorage> MakeSide(catalog::TableId id,
                                                  const std::string& p,
                                                  const std::string& key,
                                                  int rows) {
    Schema schema({Column{key, DataType::kInt64, 8},
                   Column{p + "i", DataType::kInt64, 8},
                   Column{p + "d", DataType::kDate, 8},
                   Column{p + "s", DataType::kString, 4},
                   Column{p + "f", DataType::kDouble, 8},
                   Column{p + "v", DataType::kInt64, 8}});
    std::vector<storage::ColumnData> cols(6);
    for (int c = 0; c < 6; ++c) cols[c].type = schema.column(c).type;
    const double doubles[] = {0.0, -0.0, 1.0,
                              std::numeric_limits<double>::quiet_NaN(), 2.5};
    const std::string strings[] = {"", "a", std::string("a\0b", 3), "b"};
    Rng rng(static_cast<uint64_t>(id) * 7919);
    for (int i = 0; i < rows; ++i) {
      cols[0].i64.push_back(rng.Uniform(0, 39));
      cols[1].i64.push_back(rng.Uniform(0, 2));
      cols[2].i64.push_back(100 + rng.Uniform(0, 2));
      cols[3].str.push_back(strings[rng.Uniform(0, 3)]);
      cols[4].f64.push_back(doubles[rng.Uniform(0, 4)]);
      cols[5].i64.push_back(i);
    }
    auto table = std::make_unique<storage::TableStorage>(
        id, schema, storage::TableLayout::kColumn, ssd.get());
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::SsdDevice> ssd;
  std::unique_ptr<storage::TableStorage> left;
  std::unique_ptr<storage::TableStorage> right;
};

/// Passes its child's batches through and bills 0.1 instructions per row,
/// plus 0.1, after each one. The amount is not dyadic, so a charge the
/// child bills with another batch than it should changes the rounding of
/// the instruction sum.
class LedgerProbe final : public Operator {
 public:
  explicit LedgerProbe(OperatorPtr child) : child_(std::move(child)) {}

  const catalog::Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    return child_->Open(ctx);
  }
  Status Next(RecordBatch* out, bool* eos) override {
    ECODB_RETURN_IF_ERROR(child_->Next(out, eos));
    ctx_->ChargeInstructions(0.1 * static_cast<double>(out->num_rows() + 1));
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  ExecContext* ctx_ = nullptr;
};

/// Every batch `root` emits, empty ones included, as exact cell strings
/// (doubles by bit pattern, so NaN and -0.0 compare), and the query's
/// stats.
struct Trace {
  std::vector<std::vector<std::string>> batches;
  QueryStats stats;
};

Trace Drive(ResidualRig* rig, Operator* root, int dop) {
  ExecOptions options;
  options.dop = dop;
  options.batch_rows = 128;
  options.morsel_rows = 64;

  ExecContext ctx(rig->platform.get(), options);
  Trace trace;
  Status status = root->Open(&ctx);
  EXPECT_TRUE(status.ok()) << status.message();
  for (bool eos = !status.ok(); !eos;) {
    RecordBatch batch;
    status = root->Next(&batch, &eos);
    EXPECT_TRUE(status.ok()) << status.message();
    if (!status.ok() || eos) break;
    std::vector<std::string> cells;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        const Value v = batch.GetValue(r, c);
        uint64_t bits = 0;
        std::memcpy(&bits, &v.f64, sizeof bits);
        cells.push_back(v.type == DataType::kString ? "s" + v.str
                        : v.type == DataType::kDouble
                            ? "f" + std::to_string(bits)
                            : "i" + std::to_string(v.i64));
      }
    }
    trace.batches.push_back(std::move(cells));
  }
  root->Close();
  trace.stats = ctx.Finish();
  return trace;
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
  EXPECT_EQ(a.cpu_elapsed_seconds, b.cpu_elapsed_seconds);
  EXPECT_EQ(a.cpu_instructions, b.cpu_instructions);
  EXPECT_EQ(a.cpu_serial_seconds, b.cpu_serial_seconds);
  EXPECT_EQ(a.active_cores, b.active_cores);
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.io_bytes, b.io_bytes);
  EXPECT_EQ(a.rows_emitted, b.rows_emitted);
  EXPECT_EQ(a.cpu_active_joules, b.cpu_active_joules);
  EXPECT_EQ(a.dram_joules, b.dram_joules);
  EXPECT_EQ(a.io_active_joules, b.io_active_joules);
  EXPECT_EQ(a.energy.elapsed_seconds, b.energy.elapsed_seconds);
  EXPECT_EQ(a.energy.it_joules, b.energy.it_joules);
  EXPECT_EQ(a.energy.wall_joules, b.energy.wall_joules);
  ASSERT_EQ(a.energy.entries.size(), b.energy.entries.size());
  for (size_t i = 0; i < a.energy.entries.size(); ++i) {
    EXPECT_EQ(a.energy.entries[i].channel, b.energy.entries[i].channel);
    EXPECT_EQ(a.energy.entries[i].joules, b.energy.entries[i].joules);
    EXPECT_EQ(a.energy.entries[i].busy_seconds,
              b.energy.entries[i].busy_seconds);
  }
}

TEST_F(HashJoinTest, ResidualEdgesBillAsStackedFilters) {
  using Edge = std::pair<std::string, std::string>;
  // One and two edges over every key type: int64, date, string, double
  // (NaN, -0.0) and mixed int64/double, in either orientation.
  const std::vector<std::vector<Edge>> edge_sets = {
      {{"li", "ri"}},
      {{"rd", "ld"}},
      {{"ls", "rs"}},
      {{"lf", "rf"}},
      {{"li", "rf"}},
      {{"li", "ri"}, {"rs", "ls"}},
      {{"rf", "lf"}, {"ld", "rd"}},
      {{"rf", "li"}, {"lf", "rf"}},
  };
  enum class Algo { kHashMorsel, kHashBatch, kMerge, kNestedLoop };
  const auto make = [](ResidualRig* rig, Algo algo, std::vector<ExprPtr> res) {
    OperatorPtr left = std::make_unique<TableScanOp>(rig->left.get());
    OperatorPtr right = std::make_unique<TableScanOp>(rig->right.get());
    switch (algo) {
      case Algo::kHashMorsel:
        break;
      case Algo::kHashBatch:
        left = std::make_unique<FilterOp>(std::move(left),
                                          Col("lv") >= Lit(int64_t{0}));
        break;
      case Algo::kMerge:
        return OperatorPtr(std::make_unique<MergeJoinOp>(
            std::move(left), std::move(right), "k", "k2", std::move(res)));
      case Algo::kNestedLoop:
        return OperatorPtr(std::make_unique<NestedLoopJoinOp>(
            std::move(left), std::move(right), Col("k") == Col("k2"),
            std::move(res)));
    }
    return OperatorPtr(std::make_unique<HashJoinOp>(
        std::move(left), std::move(right), "k", "k2", std::move(res)));
  };
  for (Algo algo : {Algo::kHashMorsel, Algo::kHashBatch, Algo::kMerge,
                    Algo::kNestedLoop}) {
    for (const std::vector<Edge>& edges : edge_sets) {
      for (int dop : {1, 2, 4, 8}) {
        SCOPED_TRACE("algo " + std::to_string(static_cast<int>(algo)) +
                     " edges " + edges[0].first + "=" + edges[0].second +
                     (edges.size() > 1 ? "..." : "") + " dop " +
                     std::to_string(dop));
        std::vector<ExprPtr> residual;
        for (const Edge& e : edges) {
          residual.push_back(Col(e.first) == Col(e.second));
        }
        ResidualRig fused_rig;
        LedgerProbe fused(make(&fused_rig, algo, std::move(residual)));
        const Trace got = Drive(&fused_rig, &fused, dop);

        ResidualRig stacked_rig;
        OperatorPtr stacked = make(&stacked_rig, algo, {});
        for (const Edge& e : edges) {
          stacked = std::make_unique<FilterOp>(
              std::move(stacked), Col(e.first) == Col(e.second));
        }
        LedgerProbe stacked_probe(std::move(stacked));
        const Trace want = Drive(&stacked_rig, &stacked_probe, dop);

        size_t rows = 0;
        for (const auto& batch : got.batches) rows += batch.size();
        EXPECT_GT(rows, 0u);
        EXPECT_EQ(got.batches, want.batches);
        ExpectSameStats(got.stats, want.stats);
      }
    }
  }
}

}  // namespace
}  // namespace ecodb::exec
