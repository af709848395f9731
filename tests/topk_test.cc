// Edge-case tests for the top-k (SortOp with a limit) and LimitOp: limit 0,
// limit > n, limits straddling batch boundaries, empty children, all-equal
// keys (stability), missing sort columns, and exactly-once spill accounting
// across Open retries. Rows are checked against a naive stable sort, and
// every edge case runs over both child shapes: the morsel scan, and a
// FilterOp over it (not a MorselSource, so it streams into one run). The
// bills are checked against SortOp + LimitOp's.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/filter_project.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "naive_reference.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

class TopKTest : public ::testing::Test {
 protected:
  TopKTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  /// A table with duplicated keys and a unique payload column, so any
  /// ordering difference — including tie-break order — shows up in rows.
  std::unique_ptr<storage::TableStorage> MakeTable(int n, int key_ndv) {
    Schema schema({Column{"key", DataType::kInt64, 8},
                   Column{"payload", DataType::kInt64, 8}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    for (int i = 0; i < n; ++i) {
      cols[0].i64.push_back(key_ndv > 0 ? (i * 2654435761LL) % key_ndv : 0);
      cols[1].i64.push_back(i);
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  struct RunOutcome {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };

  RunOutcome Run(Operator* root, int dop, size_t batch_rows = 4096,
                 size_t morsel_rows = 1024) {
    ExecOptions options;
    options.dop = dop;
    options.batch_rows = batch_rows;
    options.morsel_rows = morsel_rows;
    ExecContext ctx(platform_.get(), options);
    auto result = CollectAll(root, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    RunOutcome out;
    out.stats = ctx.Finish();
    if (!result.ok()) return out;
    out.rows = naive::RowsOf(result->batches);
    return out;
  }

  /// The top-k's input: the morsel scan, or a FilterOp over a scan. Both
  /// apply `filter` (default: every row passes) and charge it alike.
  static OperatorPtr Child(
      const storage::TableStorage* table, bool morsels,
      ExprPtr filter = Col("payload") >= Lit(int64_t{0})) {
    if (morsels) {
      return std::make_unique<TableScanOp>(table, std::vector<std::string>{},
                                           nullptr, std::move(filter));
    }
    return std::make_unique<FilterOp>(std::make_unique<TableScanOp>(table),
                                      std::move(filter));
  }

  /// The naive reference: the table's rows, stably sorted, first k kept.
  std::vector<naive::Row> Expected(const storage::TableStorage* table,
                                   size_t k) {
    TableScanOp scan(table);
    return naive::TopK(naive::Materialize(&scan, platform_.get()),
                       {{"key", true}}, k);
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

std::vector<SortKey> KeyAsc() { return {{"key", true}}; }

TEST_F(TopKTest, LimitZeroEmitsNothing) {
  auto table = MakeTable(500, 17);
  for (const bool morsels : {true, false}) {
    SortOp topk(Child(table.get(), morsels), KeyAsc(), UINT64_MAX, nullptr, 0);
    EXPECT_TRUE(Run(&topk, 4, 4096, 128).rows.empty())
        << "morsels=" << morsels;
  }

  LimitOp limit(std::make_unique<TableScanOp>(table.get()), 0);
  EXPECT_TRUE(Run(&limit, 1).rows.empty());
}

TEST_F(TopKTest, LimitGreaterThanInputReturnsFullSortedOutput) {
  auto table = MakeTable(300, 11);
  const std::vector<naive::Row> expected = Expected(table.get(), 5000);
  ASSERT_EQ(expected.size(), 300u);

  for (const bool morsels : {true, false}) {
    for (int dop : {1, 4}) {
      SortOp topk(Child(table.get(), morsels), KeyAsc(), UINT64_MAX, nullptr,
                  5000);
      EXPECT_EQ(Run(&topk, dop, 4096, 64).rows, expected)
          << "morsels=" << morsels << " dop=" << dop;
    }
  }

  LimitOp limit(std::make_unique<TableScanOp>(table.get()), 5000);
  EXPECT_EQ(Run(&limit, 1).rows.size(), 300u);
}

TEST_F(TopKTest, LimitStraddlingBatchBoundaries) {
  auto table = MakeTable(1000, 37);
  // 100-row output batches; limits cutting before, on, and after a batch
  // boundary all truncate exactly.
  for (const size_t k : {99u, 100u, 101u, 250u}) {
    const std::vector<naive::Row> expected = Expected(table.get(), k);
    ASSERT_EQ(expected.size(), k);

    LimitOp sorted(std::make_unique<SortOp>(
                       std::make_unique<TableScanOp>(table.get()), KeyAsc()),
                   k);
    EXPECT_EQ(Run(&sorted, 1, /*batch_rows=*/100).rows, expected)
        << "k=" << k;
    for (const bool morsels : {true, false}) {
      SortOp topk(Child(table.get(), morsels), KeyAsc(), UINT64_MAX, nullptr,
                  k);
      EXPECT_EQ(Run(&topk, 4, /*batch_rows=*/100, 128).rows, expected)
          << "k=" << k << " morsels=" << morsels;
    }
  }
}

TEST_F(TopKTest, EmptyChildYieldsEmptyOutput) {
  auto table = MakeTable(200, 13);
  for (const bool morsels : {true, false}) {
    SortOp topk(
        Child(table.get(), morsels, Col("payload") < Lit(int64_t{-1})),
        KeyAsc(), UINT64_MAX, nullptr, 10);
    const RunOutcome got = Run(&topk, 4, 4096, 64);
    EXPECT_TRUE(got.rows.empty()) << "morsels=" << morsels;
    EXPECT_EQ(topk.num_runs(), 0u);
  }
}

TEST_F(TopKTest, AllEqualKeysKeepFirstKInputRows) {
  // key is constant, so stability demands the output be the first k input
  // rows in input order — payload 0..k-1.
  auto table = MakeTable(800, /*key_ndv=*/0);
  const size_t k = 25;
  for (const bool morsels : {true, false}) {
    for (int dop : {1, 2, 4, 8}) {
      SortOp topk(Child(table.get(), morsels), KeyAsc(), UINT64_MAX, nullptr,
                  k);
      const RunOutcome got = Run(&topk, dop, 4096, 128);
      ASSERT_EQ(got.rows.size(), k);
      for (size_t r = 0; r < k; ++r) {
        EXPECT_EQ(got.rows[r][1].i64, static_cast<int64_t>(r))
            << "morsels=" << morsels << " dop=" << dop;
      }
    }
  }
}

TEST_F(TopKTest, SerialChildFallsBackToSingleRun) {
  auto table = MakeTable(600, 19);
  // FilterOp is not a MorselSource, so the operator streams the whole input
  // through one heap into one candidate run.
  SortOp topk(Child(table.get(), /*morsels=*/false,
                    Col("payload") < Lit(int64_t{400})),
              KeyAsc(), UINT64_MAX, nullptr, 30);
  const RunOutcome got = Run(&topk, 4);
  EXPECT_EQ(topk.num_runs(), 1u);
  ASSERT_EQ(got.rows.size(), 30u);
  for (size_t r = 1; r < got.rows.size(); ++r) {
    EXPECT_LE(got.rows[r - 1][0].i64, got.rows[r][0].i64);
  }
}

TEST_F(TopKTest, LimitedMergeBillsItsLadderInParallelAndEmissionSerially) {
  // Under a limit the merge bills what the unlimited merge bills, over the
  // k rows it emits: their log2(runs) ladder as parallel instructions and
  // their stitching as serial ones. The scan bills no serial work, so the
  // serial core-seconds are the stitching's alone; the instructions are
  // the scan's, each run's formation, the ladder and the stitching.
  auto table = MakeTable(5000, 101);
  const size_t k = 10;
  SortOp topk(Child(table.get(), /*morsels=*/true), KeyAsc(), UINT64_MAX,
              nullptr, k);
  const RunOutcome got = Run(&topk, 4, 4096, 1024);
  ASSERT_GT(topk.num_runs(), 1u);
  const double runs = static_cast<double>(topk.num_runs());
  const double take = static_cast<double>(k);
  EXPECT_EQ(got.stats.cpu_serial_seconds,
            platform_->cpu().SecondsForInstructions(OutputInstructions(take),
                                                    0));

  OperatorPtr scan = Child(table.get(), /*morsels=*/true);
  const RunOutcome scanned = Run(scan.get(), 4, 4096, 1024);
  double formation = 0.0;
  for (const ScanRowRange& m :
       MorselizeRanges({{0, table->row_count()}},
                       table->zone_maps().block_rows, 1024)) {
    formation +=
        SortRunInstructions(static_cast<double>(m.end - m.begin), take, 1.0);
  }
  EXPECT_DOUBLE_EQ(got.stats.cpu_instructions,
                   scanned.stats.cpu_instructions + formation +
                       SortLadderInstructions(take, runs, 1.0) +
                       OutputInstructions(take));
}

TEST_F(TopKTest, RunsOfAtMostTwoKBillAsTheUnlimitedSort) {
  // A run of at most 2k rows is sorted whole and cut at k, so it bills
  // the unlimited sort's formation, and a limit covering every row bills
  // every charge of SortOp + LimitOp. Below that, the streamed child's one
  // run has no merge, so its instructions still match; the morsel child's
  // merge bills its ladder and stitching over the k rows it emits, not n.
  auto table = MakeTable(3000, 101);
  const size_t n = 3000;
  for (const bool morsels : {true, false}) {
    for (const size_t k : {n / 2, n - 1, n, n + 10}) {
      for (const int dop : {1, 2, 4, 8}) {
        SCOPED_TRACE("morsels=" + std::to_string(morsels) +
                     " k=" + std::to_string(k) + " dop=" + std::to_string(dop));
        SortOp fused(Child(table.get(), morsels), KeyAsc(), UINT64_MAX,
                     nullptr, k);
        LimitOp unfused(
            std::make_unique<SortOp>(Child(table.get(), morsels), KeyAsc()),
            k);
        const RunOutcome a = Run(&fused, dop, 4096, 1024);
        const RunOutcome b = Run(&unfused, dop, 4096, 1024);
        EXPECT_EQ(a.rows, b.rows);
        const double runs = static_cast<double>(fused.num_runs());
        ASSERT_EQ(runs > 1, morsels);
        if (k >= n || !morsels) {
          EXPECT_EQ(a.stats.cpu_instructions, b.stats.cpu_instructions);
          EXPECT_EQ(a.stats.cpu_seconds, b.stats.cpu_seconds);
          EXPECT_EQ(a.stats.cpu_serial_seconds, b.stats.cpu_serial_seconds);
        } else {
          const auto merge = [&](size_t rows) {
            const double emitted = static_cast<double>(rows);
            return SortLadderInstructions(emitted, runs, 1.0) +
                   OutputInstructions(emitted);
          };
          EXPECT_DOUBLE_EQ(a.stats.cpu_instructions - merge(k),
                           b.stats.cpu_instructions - merge(n));
        }
        if (k >= n) {
          EXPECT_EQ(a.stats.dram_joules, b.stats.dram_joules);
          EXPECT_EQ(a.stats.io_bytes, b.stats.io_bytes);
          // Both runs read one platform's meter, at different uptimes.
          EXPECT_NEAR(a.stats.Joules(), b.stats.Joules(),
                      1e-12 * b.stats.Joules());
        } else {
          EXPECT_LE(a.stats.dram_joules, b.stats.dram_joules);
        }
      }
    }
  }
}

TEST_F(TopKTest, MissingSortColumnIsNotFound) {
  auto table = MakeTable(50, 7);
  for (const bool morsels : {true, false}) {
    SortOp topk(Child(table.get(), morsels), {{"no_such_column", true}},
                UINT64_MAX, nullptr, 5);
    ExecContext ctx(platform_.get(), ExecOptions{});
    EXPECT_EQ(topk.Open(&ctx).code(), StatusCode::kNotFound)
        << "morsels=" << morsels;
  }
}

/// Emits rows (key, payload = input position) in batches of the given
/// sizes, with keys repeating, so a streamed run grows unevenly.
class SizedBatchesOp final : public Operator {
 public:
  explicit SizedBatchesOp(std::vector<size_t> sizes)
      : schema_({Column{"key", DataType::kInt64, 8},
                 Column{"payload", DataType::kInt64, 8}}),
        sizes_(std::move(sizes)) {}

  static int64_t Key(int64_t row) { return row * 7919 % 13; }

  const catalog::Schema& output_schema() const override { return schema_; }

  Status Open(ExecContext*) override {
    next_ = 0;
    emitted_ = 0;
    return Status::OK();
  }

  Status Next(RecordBatch* out, bool* eos) override {
    *eos = next_ == sizes_.size();
    if (*eos) return Status::OK();
    RecordBatch batch(schema_);
    for (size_t i = 0; i < sizes_[next_]; ++i, ++emitted_) {
      batch.column(0).i64.push_back(Key(emitted_));
      batch.column(1).i64.push_back(emitted_);
    }
    ECODB_RETURN_IF_ERROR(batch.SealRows(sizes_[next_++]));
    *out = std::move(batch);
    return Status::OK();
  }

  void Close() override {}

 private:
  catalog::Schema schema_;
  std::vector<size_t> sizes_;
  size_t next_ = 0;
  int64_t emitted_ = 0;
};

TEST_F(TopKTest, StreamedRunSwitchesToTheHeapMidBatch) {
  // Batches of 1, 3, 5, ... rows: a run holds 1, 4, 9, 16, ... rows after
  // each, never exactly 2k, so for each k it passes 2k inside a batch with
  // the rows before it kept whole; those rows enter the heap first.
  for (const size_t k : {size_t{1}, size_t{7}, size_t{64}}) {
    std::vector<size_t> sizes;
    int64_t rows = 0;
    for (size_t b = 1; rows < static_cast<int64_t>(8 * k + 40); b += 2) {
      sizes.push_back(b);
      rows += static_cast<int64_t>(b);
    }
    std::vector<naive::Row> expected;
    for (int64_t r = 0; r < rows; ++r) {
      expected.push_back(
          {Value::Int64(SizedBatchesOp::Key(r)), Value::Int64(r)});
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const naive::Row& a, const naive::Row& b) {
                       return a[0].i64 < b[0].i64;
                     });
    expected.resize(k);
    for (const int dop : {1, 4}) {
      SortOp topk(std::make_unique<SizedBatchesOp>(sizes), KeyAsc(),
                  UINT64_MAX, nullptr, k);
      EXPECT_EQ(Run(&topk, dop).rows, expected)
          << "k=" << k << " dop=" << dop;
      EXPECT_EQ(topk.num_runs(), 1u);
    }
  }
}

// --- Exactly-once accounting across Open retries ------------------------------

/// Emits `rows` rows in fixed-size batches; fails the drain once at
/// `fail_at_batch` on the first Open, then replays cleanly on retry.
class FlakyRowsOp final : public Operator {
 public:
  FlakyRowsOp(int rows, int batch_rows, int fail_at_batch)
      : schema_({Column{"k", DataType::kInt64, 8}}),
        rows_(rows),
        batch_rows_(batch_rows),
        fail_at_batch_(fail_at_batch) {}

  const catalog::Schema& output_schema() const override { return schema_; }

  Status Open(ExecContext*) override {
    ++opens_;
    emitted_ = 0;
    batch_index_ = 0;
    return Status::OK();
  }

  Status Next(RecordBatch* out, bool* eos) override {
    if (opens_ == 1 && batch_index_ == fail_at_batch_) {
      return Status::Internal("transient source failure");
    }
    if (emitted_ >= rows_) {
      *eos = true;
      return Status::OK();
    }
    RecordBatch batch(schema_);
    storage::ColumnData& lane = batch.column(0);
    const int take = std::min(batch_rows_, rows_ - emitted_);
    for (int i = 0; i < take; ++i) {
      lane.i64.push_back(static_cast<int64_t>((emitted_ + i) * 7919 % rows_));
    }
    ECODB_RETURN_IF_ERROR(batch.SealRows(static_cast<size_t>(take)));
    emitted_ += take;
    ++batch_index_;
    *eos = false;
    *out = std::move(batch);
    return Status::OK();
  }

  void Close() override {}

 private:
  catalog::Schema schema_;
  int rows_;
  int batch_rows_;
  int fail_at_batch_;
  int opens_ = 0;
  int emitted_ = 0;
  int batch_index_ = 0;
};

TEST_F(TopKTest, TopKChargesSpillExactlyOnceAcrossOpenRetry) {
  // k = n, so the kept working set grows to all 1000 rows x 8 B, over the
  // 2 KiB budget. The streamed child fails mid-drain on the first Open:
  // runs settle only after the drain, so the failed attempt bills no
  // spill, and the retry writes and reads the 8000 kept bytes once.
  SortOp topk(std::make_unique<FlakyRowsOp>(1000, 100, 6), {{"k", true}},
              /*memory_budget_bytes=*/2048, ssd_.get(), /*limit=*/1000);
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_EQ(topk.Open(&ctx).code(), StatusCode::kInternal);
  EXPECT_FALSE(topk.spilled());

  ASSERT_TRUE(topk.Open(&ctx).ok());
  EXPECT_TRUE(topk.spilled());
  RecordBatch batch;
  bool eos = false;
  uint64_t rows = 0;
  int64_t prev = INT64_MIN;
  while (true) {
    ASSERT_TRUE(topk.Next(&batch, &eos).ok());
    if (eos) break;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      EXPECT_LE(prev, batch.column(0).i64[r]);
      prev = batch.column(0).i64[r];
      ++rows;
    }
  }
  topk.Close();
  EXPECT_EQ(rows, 1000u);
  EXPECT_EQ(ctx.Finish().io_bytes, 2u * 8000u);
}

TEST_F(TopKTest, ParallelTopKChargesSpillExactlyOnceAcrossOpenRetry) {
  // k = n keeps every candidate row, so the candidate set (5000 x 16 B)
  // crosses the 4 KiB budget and spills. The first Open completes before a
  // downstream failure forces a second Open of the same tree: the table is
  // re-scanned (and re-billed), the candidate runs are not re-billed.
  auto table = MakeTable(5000, 101);
  const uint64_t row_width =
      static_cast<uint64_t>(table->schema().RowWidthBytes());
  const std::vector<naive::Row> expected = Expected(table.get(), 5000);
  for (const bool morsels : {true, false}) {
    SCOPED_TRACE("morsels=" + std::to_string(morsels));
    SortOp in_memory(Child(table.get(), morsels), KeyAsc(), UINT64_MAX,
                     nullptr, 5000);
    const RunOutcome base = Run(&in_memory, 4, 4096, 512);  // scan-only I/O

    SortOp topk(Child(table.get(), morsels), KeyAsc(),
                /*memory_budget_bytes=*/4096, ssd_.get(), /*limit=*/5000);
    ExecOptions options;
    options.dop = 4;
    options.batch_rows = 4096;
    options.morsel_rows = 512;
    ExecContext ctx(platform_.get(), options);
    ASSERT_TRUE(topk.Open(&ctx).ok());
    EXPECT_TRUE(topk.spilled());
    ASSERT_TRUE(topk.Open(&ctx).ok());  // the retry

    std::vector<RecordBatch> batches;
    bool eos = false;
    while (true) {
      RecordBatch batch;
      ASSERT_TRUE(topk.Next(&batch, &eos).ok());
      if (eos) break;
      batches.push_back(std::move(batch));
    }
    topk.Close();
    EXPECT_EQ(naive::RowsOf(batches), expected);
    EXPECT_EQ(ctx.Finish().io_bytes,
              2 * base.stats.io_bytes + 2u * 5000u * row_width);
  }
}

TEST_F(TopKTest, SmallKNeverSpillsUnderTightBudget) {
  // The whole point of the fusion: a k-row working set fits budgets the
  // full sort cannot. The morsel child keeps 5 runs x 10 rows x 16 B and
  // the streamed child one 10-row run, both << 2 KiB.
  auto table = MakeTable(5000, 101);
  const std::vector<naive::Row> expected = Expected(table.get(), 10);
  for (const bool morsels : {true, false}) {
    for (int dop : {1, 4}) {
      SortOp topk(Child(table.get(), morsels), KeyAsc(),
                  /*memory_budget_bytes=*/2048, ssd_.get(), /*limit=*/10);
      const RunOutcome got = Run(&topk, dop, 4096, 1024);
      EXPECT_EQ(got.rows, expected) << "morsels=" << morsels << " dop=" << dop;
      EXPECT_FALSE(topk.spilled()) << "morsels=" << morsels << " dop=" << dop;
    }
  }
}

TEST_F(TopKTest, LimitOpResetsEmittedCountAcrossOpenRetry) {
  // First drain dies mid-stream; on the retried Open, LimitOp must emit a
  // full fresh quota, not the remainder of the failed attempt.
  LimitOp limit(std::make_unique<FlakyRowsOp>(300, 100, 2), 250);
  ExecContext ctx(platform_.get(), ExecOptions{});
  ASSERT_TRUE(limit.Open(&ctx).ok());
  RecordBatch batch;
  bool eos = false;
  ASSERT_TRUE(limit.Next(&batch, &eos).ok());  // batch 0 passes
  ASSERT_TRUE(limit.Next(&batch, &eos).ok());  // batch 1 passes
  EXPECT_EQ(limit.Next(&batch, &eos).code(), StatusCode::kInternal);

  ASSERT_TRUE(limit.Open(&ctx).ok());
  uint64_t rows = 0;
  while (true) {
    ASSERT_TRUE(limit.Next(&batch, &eos).ok());
    if (eos) break;
    rows += batch.num_rows();
  }
  limit.Close();
  ctx.Finish();
  EXPECT_EQ(rows, 250u);
}

}  // namespace
}  // namespace ecodb::exec
