// Differential test harness for plan equivalence: randomized ORDER BY +
// LIMIT specs executed through the fused top-k (SortOp with a limit) AND
// through Sort + Limit, at dop 1/2/4/8.
//
// The oracle is a naive stable sort of the table's rows followed by the
// first k — the semantics the planner's fusion must preserve. For every
// generated case (varying n, k, key count, duplicate density, ASC/DESC,
// spill pressure, or keys drawn from the edges of each type) the harness
// asserts:
//   1. rows are byte-identical to the oracle on every path and every dop,
//      including a sort with and without a limit over a FilterOp (the
//      streamed, non-morsel branch), and
//   2. within each operator the modeled charges (instructions, I/O bytes,
//      busy core-seconds, serial core-seconds) are bit-identical across
//      dop — DESIGN.md §7's determinism contract.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/filter_project.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "power/platform.h"
#include "storage/fault_injector.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"
#include "naive_reference.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

struct CaseSpec {
  uint64_t seed = 0;
  int n = 0;
  size_t k = 0;
  std::vector<SortKey> keys;
  int64_t dup_domain = 1;  // small domain -> heavy key duplication
  uint64_t budget = UINT64_MAX;
  bool spill = false;
  bool edge_keys = false;  // draw keys from EdgeInt/EdgeDouble/EdgeString
};

/// An int64 at the edges of the range and of its sort word's bytes:
/// INT64_MIN, -1, 0, INT64_MAX and their neighbours, or a random value
/// (negative half the time).
int64_t EdgeInt(Rng& rng) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t edges[] = {kMin, kMin + 1, -256, -1, 0, 1, 255, kMax - 1, kMax};
  if (rng.Bernoulli(0.5)) return edges[rng.Uniform(0, 8)];
  return static_cast<int64_t>(rng.Next());
}

/// A double from ORDER BY's edge cases: NaNs (with other payloads and sign
/// bits too), ±0.0, ±inf, ±denorm_min, ±DBL_MAX, or a small multiple of
/// 0.25 of either sign.
double EdgeDouble(Rng& rng) {
  using limits = std::numeric_limits<double>;
  const double edges[] = {limits::quiet_NaN(),
                          -limits::quiet_NaN(),
                          std::bit_cast<double>(uint64_t{0x7ff8000000000123}),
                          0.0,
                          -0.0,
                          limits::infinity(),
                          -limits::infinity(),
                          limits::denorm_min(),
                          -limits::denorm_min(),
                          limits::max(),
                          -limits::max()};
  if (rng.Bernoulli(0.5)) return edges[rng.Uniform(0, 10)];
  return static_cast<double>(rng.Uniform(-40, 40)) * 0.25;
}

/// A string of 0-12 bytes over {0x00, 0x01, 'a', 0x7f, 0x80, 0xff}: mostly
/// one of three shared 7-byte prefixes (cut short, or extended), so sort
/// words tie and the full compare decides; otherwise random bytes.
std::string EdgeString(Rng& rng) {
  const char alphabet[] = {'\x00', '\x01', 'a', '\x7f', '\x80', '\xff'};
  const std::string prefixes[] = {
      std::string("a\x80\x00\xff\x01" "a\x7f", 7),
      std::string("a\x80\x00\xff\x01" "a\x80", 7),
      std::string("\xff\xff\xff\xff\xff\xff\xff", 7)};
  const size_t len = static_cast<size_t>(rng.Uniform(0, 12));
  std::string s;
  if (rng.Bernoulli(0.75)) s = prefixes[rng.Uniform(0, 2)].substr(0, len);
  while (s.size() < len) s.push_back(alphabet[rng.Uniform(0, 5)]);
  return s;
}

class DifferentialTopKTest : public ::testing::Test {
 protected:
  DifferentialTopKTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  /// Draws one random case: n, k, 1-3 sort keys over mixed types with
  /// random directions, duplicate density, and occasional spill pressure.
  CaseSpec DrawCase(uint64_t seed) {
    Rng rng(seed);
    CaseSpec c;
    c.seed = seed;
    c.n = static_cast<int>(rng.Uniform(0, 3000));
    switch (rng.Uniform(0, 5)) {
      case 0:
        c.k = 0;
        break;
      case 1:
        c.k = 1;
        break;
      case 2:
        c.k = static_cast<size_t>(rng.Uniform(2, 64));
        break;
      case 3:
        c.k = static_cast<size_t>(c.n) / 2;
        break;
      case 4:
        c.k = static_cast<size_t>(c.n);
        break;
      default:
        c.k = static_cast<size_t>(c.n) + 10;  // k > n
        break;
    }
    const int64_t domains[] = {2, 7, 40, std::max<int64_t>(1, c.n)};
    c.dup_domain = domains[rng.Uniform(0, 3)];
    const char* columns[] = {"a", "b", "c"};
    const int num_keys = static_cast<int>(rng.Uniform(1, 3));
    for (int i = 0; i < num_keys; ++i) {
      c.keys.push_back({columns[i], rng.Bernoulli(0.5)});
    }
    if (rng.Bernoulli(0.3)) {
      c.spill = true;
      c.budget = 1024;  // a few hundred rows overflow this
    }
    return c;
  }

  /// The device tables are built on (and spilled to): the plain SSD, or a
  /// fault-injected wrapper when a test armed a FaultPlan.
  storage::StorageDevice* device() {
    return faulty_ != nullptr ? static_cast<storage::StorageDevice*>(faulty_.get())
                              : ssd_.get();
  }

  /// Wraps a fresh SSD in a FaultInjectedDevice replaying `plan` — every
  /// table and spill I/O of the case then goes through the injector.
  void ArmFaultPlan(storage::FaultPlan plan) {
    injector_ = std::make_unique<storage::FaultInjector>(std::move(plan));
    faulty_ = std::make_unique<storage::FaultInjectedDevice>(
        std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                             platform_->meter()),
        injector_.get(), platform_->meter());
  }

  std::unique_ptr<storage::TableStorage> MakeTable(const CaseSpec& c) {
    Schema schema({Column{"a", DataType::kInt64, 8},
                   Column{"b", DataType::kDouble, 8},
                   Column{"c", DataType::kString, 2},
                   Column{"payload", DataType::kInt64, 8}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, device());
    std::vector<storage::ColumnData> cols(4);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kDouble;
    cols[2].type = DataType::kString;
    cols[3].type = DataType::kInt64;
    Rng rng(c.seed ^ 0xD1FFUL);
    for (int i = 0; i < c.n; ++i) {
      if (c.edge_keys) {
        cols[0].i64.push_back(EdgeInt(rng));
        cols[1].f64.push_back(EdgeDouble(rng));
        cols[2].str.push_back(EdgeString(rng));
        cols[3].i64.push_back(i);
        continue;
      }
      cols[0].i64.push_back(rng.Uniform(0, c.dup_domain - 1));
      // Multiples of 0.25: exact in binary floating point.
      cols[1].f64.push_back(
          static_cast<double>(rng.Uniform(0, c.dup_domain - 1)) * 0.25);
      cols[2].str.push_back(std::string(
          1, static_cast<char>('a' + rng.Uniform(
                                       0, std::min<int64_t>(c.dup_domain,
                                                            26) -
                                              1))));
      cols[3].i64.push_back(i);  // unique: exposes any tie-break drift
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  struct RunOutcome {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };

  RunOutcome Run(Operator* root, int dop) {
    ExecOptions options;
    options.dop = dop;
    options.morsel_rows = 256;  // several runs even for small n
    ExecContext ctx(platform_.get(), options);
    auto result = CollectAll(root, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    RunOutcome out;
    out.stats = ctx.Finish();
    if (!result.ok()) return out;
    const size_t ncols = static_cast<size_t>(result->schema.num_columns());
    for (const auto& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<Value> row;
        row.reserve(ncols);
        for (size_t c = 0; c < ncols; ++c) row.push_back(batch.GetValue(r, c));
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  /// Rows equal value for value, doubles bit for bit: NaN rows compare
  /// equal, and -0.0 stays apart from +0.0.
  static bool SameRows(const std::vector<naive::Row>& a,
                       const std::vector<naive::Row>& b) {
    const auto same = [](const Value& x, const Value& y) {
      return x.type == y.type && x.i64 == y.i64 && x.str == y.str &&
             std::bit_cast<uint64_t>(x.f64) == std::bit_cast<uint64_t>(y.f64);
    };
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [&](const naive::Row& x, const naive::Row& y) {
                        return std::equal(x.begin(), x.end(), y.begin(),
                                          y.end(), same);
                      });
  }

  /// Asserts the §7 contract for one operator: charges bit-identical to
  /// its dop-1 baseline.
  static void ExpectChargesIdentical(const QueryStats& got,
                                     const QueryStats& base) {
    EXPECT_EQ(got.cpu_instructions, base.cpu_instructions);
    EXPECT_EQ(got.io_bytes, base.io_bytes);
    EXPECT_EQ(got.cpu_seconds, base.cpu_seconds);
    EXPECT_EQ(got.cpu_serial_seconds, base.cpu_serial_seconds);
    EXPECT_EQ(got.faults.transient_errors, base.faults.transient_errors);
    EXPECT_EQ(got.faults.retry_seconds, base.faults.retry_seconds);
    EXPECT_EQ(got.faults.retry_joules, base.faults.retry_joules);
  }

  void RunCase(const CaseSpec& c) {
    auto table = MakeTable(c);
    storage::StorageDevice* spill = c.spill ? device() : nullptr;

    // Oracle: naive stable sort, then the first k.
    TableScanOp input(table.get());
    const std::vector<naive::Row> expected = naive::TopK(
        naive::Materialize(&input, platform_.get()), c.keys, c.k);
    ASSERT_EQ(expected.size(),
              std::min<size_t>(c.k, static_cast<size_t>(c.n)));

    // The streamed branch: a FilterOp child is not a MorselSource.
    const auto filtered = [&]() -> OperatorPtr {
      return std::make_unique<FilterOp>(
          std::make_unique<TableScanOp>(table.get()),
          Col("payload") >= Lit(int64_t{0}));
    };
    SortOp streamed(filtered(), c.keys, c.budget, spill, c.k);
    EXPECT_TRUE(SameRows(Run(&streamed, 1).rows, expected))
        << "streamed limited sort";
    LimitOp streamed_sl(
        std::make_unique<SortOp>(filtered(), c.keys, c.budget, spill), c.k);
    EXPECT_TRUE(SameRows(Run(&streamed_sl, 1).rows, expected))
        << "streamed sort + limit";

    // Both operators over the morsel scan across the dop ladder.
    std::optional<QueryStats> topk_base, sort_base;
    for (int dop : {1, 2, 4, 8}) {
      SCOPED_TRACE("dop=" + std::to_string(dop));
      SortOp topk(std::make_unique<TableScanOp>(table.get()), c.keys,
                  c.budget, spill, c.k);
      const RunOutcome t = Run(&topk, dop);
      EXPECT_TRUE(SameRows(t.rows, expected)) << "limited sort";
      if (!topk_base.has_value()) {
        topk_base = t.stats;
      } else {
        ExpectChargesIdentical(t.stats, *topk_base);
      }

      LimitOp sl(std::make_unique<SortOp>(
                     std::make_unique<TableScanOp>(table.get()), c.keys,
                     c.budget, spill),
                 c.k);
      const RunOutcome s = Run(&sl, dop);
      EXPECT_TRUE(SameRows(s.rows, expected)) << "sort + limit";
      if (!sort_base.has_value()) {
        sort_base = s.stats;
      } else {
        ExpectChargesIdentical(s.stats, *sort_base);
      }
    }
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  std::unique_ptr<storage::FaultInjector> injector_;
  std::unique_ptr<storage::FaultInjectedDevice> faulty_;
};

TEST_F(DifferentialTopKTest, RandomizedSpecsMatchOracleAtEveryDop) {
  int cases = 0;
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    const CaseSpec c = DrawCase(0xC0FFEE00ULL + seed);
    SCOPED_TRACE("seed=" + std::to_string(c.seed) +
                 " n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) +
                 " keys=" + std::to_string(c.keys.size()) +
                 " dup_domain=" + std::to_string(c.dup_domain) +
                 (c.spill ? " spill" : ""));
    RunCase(c);
    ++cases;
  }
  EXPECT_GE(cases, 50);  // the acceptance floor for randomized coverage
}

// A couple of pinned regressions the random draw might miss.

TEST_F(DifferentialTopKTest, DescendingKeysWithTotalDuplication) {
  CaseSpec c;
  c.seed = 7;
  c.n = 1200;
  c.k = 17;
  c.keys = {{"a", false}, {"c", true}};
  c.dup_domain = 2;  // nearly every row ties on both keys
  RunCase(c);
}

TEST_F(DifferentialTopKTest, SpillingTopKStillMatchesOracle) {
  CaseSpec c;
  c.seed = 11;
  c.n = 2500;
  c.k = 2000;  // kept set overflows the budget -> fused path spills too
  c.keys = {{"b", true}, {"a", false}};
  c.dup_domain = 40;
  c.spill = true;
  c.budget = 1024;
  RunCase(c);
}

TEST_F(DifferentialTopKTest, NaNDoubleKeysSortInOneTotalOrder) {
  // ORDER BY a double key holding NaN, ±0.0 and ±inf: NaN sorts after
  // every number (ASC puts NaNs last, DESC first), NaNs tie among
  // themselves and -0.0 ties +0.0, ties keeping input order. SortOp with
  // and without a limit, over a morsel scan at dop 1 and 8 and over a
  // FilterOp child, must emit the oracle's rows.
  constexpr int kRows = 6000;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Schema schema({Column{"d", DataType::kDouble, 8},
                 Column{"payload", DataType::kInt64, 8}});
  storage::TableStorage table(1, schema, storage::TableLayout::kColumn,
                              device());
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kDouble;
  cols[1].type = DataType::kInt64;
  Rng rng(0x7A11);
  for (int i = 0; i < kRows; ++i) {
    double d;
    if (i % 7 == 0) {
      d = nan;
    } else if (i % 53 == 0) {
      const double edges[] = {0.0, -0.0, inf, -inf};
      d = edges[rng.Uniform(0, 3)];
    } else {
      d = static_cast<double>(rng.Uniform(-40, 40)) * 0.25;
    }
    cols[0].f64.push_back(d);
    cols[1].i64.push_back(i);  // unique: names each row
  }
  ASSERT_TRUE(table.Append(cols).ok());

  // Rows are compared by their unique payloads: NaN != NaN under Value's
  // operator==.
  auto payloads = [](const std::vector<std::vector<Value>>& rows) {
    std::vector<int64_t> out;
    for (const std::vector<Value>& row : rows) out.push_back(row[1].i64);
    return out;
  };
  TableScanOp input(&table);
  const naive::Rows all = naive::Materialize(&input, platform_.get());

  for (bool ascending : {true, false}) {
    SCOPED_TRACE(ascending ? "ASC" : "DESC");
    const std::vector<SortKey> keys = {{"d", ascending}};
    const std::vector<int64_t> expected = payloads(naive::Sort(all, keys));
    ASSERT_EQ(expected.size(), static_cast<size_t>(kRows));
    // The oracle itself: NaNs form one block at the end (ASC) or the start
    // (DESC), and the numbers around them are in order.
    const std::vector<naive::Row> sorted = naive::Sort(all, keys);
    const size_t nans = static_cast<size_t>((kRows + 6) / 7);
    for (size_t r = 0; r < sorted.size(); ++r) {
      const bool in_nan_block =
          ascending ? r >= sorted.size() - nans : r < nans;
      ASSERT_EQ(std::isnan(sorted[r][0].f64), in_nan_block) << "row " << r;
      if (r > 0 && !in_nan_block && !std::isnan(sorted[r - 1][0].f64)) {
        ASSERT_TRUE(ascending ? sorted[r - 1][0].f64 <= sorted[r][0].f64
                              : sorted[r - 1][0].f64 >= sorted[r][0].f64);
      }
    }

    struct Child {
      const char* name;
      bool filtered;
      int dop;
    };
    for (const Child& child : {Child{"morsel dop 1", false, 1},
                               Child{"morsel dop 8", false, 8},
                               Child{"FilterOp", true, 1}}) {
      SCOPED_TRACE(child.name);
      auto make_child = [&]() -> OperatorPtr {
        OperatorPtr scan = std::make_unique<TableScanOp>(&table);
        if (!child.filtered) return scan;
        return std::make_unique<FilterOp>(std::move(scan),
                                          Col("payload") >= Lit(int64_t{0}));
      };
      SortOp sort(make_child(), keys);
      EXPECT_EQ(payloads(Run(&sort, child.dop).rows), expected) << "SortOp";
      for (size_t k : {size_t{100}, size_t{kRows + 10}}) {
        SortOp topk(make_child(), keys, UINT64_MAX, nullptr, k);
        const std::vector<int64_t> want(
            expected.begin(),
            expected.begin() + static_cast<std::ptrdiff_t>(
                                   std::min<size_t>(k, expected.size())));
        EXPECT_EQ(payloads(Run(&topk, child.dop).rows), want)
            << "limited SortOp k=" << k;
      }
    }
  }
}

TEST_F(DifferentialTopKTest, EdgeKeysMatchOracle) {
  // Keys from the edges of every type, so the sort's order-preserving
  // words are tested where they are easiest to get wrong: int64 sign
  // flips, double total-order bits (NaN, ±0.0, ±inf, denormals), unsigned
  // string bytes, and strings whose words tie on a shared 7-byte prefix.
  // Each first key runs ASC and DESC, alone and with a second key, at
  // k = 1, 100 and n (where the unlimited sort emits every row), in memory
  // and over a 1 KiB spill budget.
  const char* columns[] = {"a", "b", "c"};
  uint64_t seed = 0xED6E0000ULL;
  for (int first = 0; first < 3; ++first) {
    for (const bool ascending : {true, false}) {
      for (const bool two_keys : {false, true}) {
        for (const size_t k : {size_t{1}, size_t{100}, size_t{1200}}) {
          for (const bool spill : {false, true}) {
            CaseSpec c;
            c.seed = ++seed;
            c.n = 1200;
            c.k = k;
            c.keys = {{columns[first], ascending}};
            if (two_keys) {
              c.keys.push_back({columns[(first + 1) % 3], !ascending});
            }
            c.edge_keys = true;
            c.spill = spill;
            c.budget = spill ? 1024 : UINT64_MAX;
            SCOPED_TRACE(std::string("key=") + columns[first] +
                         (ascending ? " ASC" : " DESC") +
                         (two_keys ? " +key" : "") +
                         " k=" + std::to_string(k) + (spill ? " spill" : ""));
            RunCase(c);
          }
        }
      }
    }
  }
}

TEST_F(DifferentialTopKTest, FaultPlanCaseMatchesOracleWithIdenticalRetries) {
  // Plan equivalence under injected faults: retried transient errors on the
  // table/spill device change charges, but rows still match the clean-device
  // oracle, and an identical (seed, plan, query) triple replays the same
  // FaultSummary bit-for-bit at every dop. The injector's attempt counter
  // is part of the replayed state, so each run re-arms a fresh one.
  CaseSpec c;
  c.seed = 13;
  c.n = 2200;
  c.k = 150;
  c.keys = {{"a", true}, {"b", false}};
  c.dup_domain = 7;
  c.spill = true;
  c.budget = 1024;

  // Oracle on the pristine SSD.
  auto clean_table = MakeTable(c);
  TableScanOp input(clean_table.get());
  const std::vector<naive::Row> expected = naive::TopK(
      naive::Materialize(&input, platform_.get()), c.keys, c.k);
  ASSERT_EQ(expected.size(), c.k);

  auto run_faulted = [&](int dop) {
    storage::FaultPlan plan;
    plan.seed = 31;
    storage::DeviceFaultSpec spec;
    spec.device = "s0";
    spec.transient_ios = {0, 2};
    spec.transient_error_rate = 0.15;
    plan.devices.push_back(spec);
    ArmFaultPlan(plan);
    auto table = MakeTable(c);
    SortOp topk(std::make_unique<TableScanOp>(table.get()), c.keys,
                c.budget, device(), c.k);
    return Run(&topk, dop);
  };

  const RunOutcome base = run_faulted(1);
  EXPECT_EQ(base.rows, expected);
  ASSERT_GT(base.stats.faults.transient_errors, 0u);
  ASSERT_GT(base.stats.faults.retry_joules, 0.0);

  for (int dop : {2, 4, 8}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    const RunOutcome got = run_faulted(dop);
    EXPECT_EQ(got.rows, expected);
    ExpectChargesIdentical(got.stats, base.stats);
  }
}

}  // namespace
}  // namespace ecodb::exec
