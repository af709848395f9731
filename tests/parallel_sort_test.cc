// Tests for the morsel-driven external sort (SortOp) and its exactly-once
// spill accounting.
//
// The invariant under test is the determinism contract of DESIGN.md §7: the
// sort returns byte-identical rows and identical modeled accounting
// (instructions, I/O bytes, busy core-seconds) at every dop — parallelism
// only shortens the CPU critical path and the energy window. Rows are
// checked against a naive stable sort, and every edge case runs over both
// child shapes: the morsel scan, and a FilterOp over it (not a
// MorselSource, so the sort drains it into one run).

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
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

class ParallelSortTest : public ::testing::Test {
 protected:
  ParallelSortTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  // A lineitem-flavoured table with heavy key duplication (so ties exercise
  // the stable (run, position) tie-break) and doubles that are multiples of
  // 0.25 (exact in binary floating point).
  std::unique_ptr<storage::TableStorage> MakeLineitem(
      int n, size_t zone_block_rows) {
    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"part", DataType::kInt64, 8},
                   Column{"qty", DataType::kDouble, 8},
                   Column{"flag", DataType::kString, 2}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(4);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    cols[3].type = DataType::kString;
    for (int i = 0; i < n; ++i) {
      cols[0].i64.push_back((i * 2654435761LL) % n);  // shuffled ids
      cols[1].i64.push_back(i % 25);
      cols[2].f64.push_back((i % 37) * 0.25);
      cols[3].str.push_back(i % 3 ? "N" : "R");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    if (zone_block_rows > 0) {
      EXPECT_TRUE(table->BuildZoneMaps(zone_block_rows).ok());
    }
    return table;
  }

  struct RunOutcome {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };

  RunOutcome Run(Operator* root, int dop, size_t morsel_rows = 1024) {
    ExecOptions options;
    options.dop = dop;
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

  /// The sort's input: the morsel scan, or a FilterOp over a scan. Both
  /// apply `filter` (default: every row passes) and charge it alike.
  static OperatorPtr Child(const storage::TableStorage* table, bool morsels,
                           ExprPtr filter = Col("id") >= Lit(int64_t{0})) {
    if (morsels) {
      return std::make_unique<TableScanOp>(table, std::vector<std::string>{},
                                           nullptr, std::move(filter));
    }
    return std::make_unique<FilterOp>(std::make_unique<TableScanOp>(table),
                                      std::move(filter));
  }

  /// The naive reference: the table's rows, stably sorted.
  std::vector<naive::Row> Expected(const storage::TableStorage* table,
                                   const std::vector<SortKey>& keys) {
    TableScanOp scan(table);
    return naive::Sort(naive::Materialize(&scan, platform_.get()), keys);
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

std::vector<SortKey> Keys() {
  return {{"part", true}, {"qty", false}, {"flag", true}};
}

TEST_F(ParallelSortTest, MatchesSerialSortAtEveryDop) {
  auto table = MakeLineitem(10000, 512);
  const std::vector<naive::Row> expected = Expected(table.get(), Keys());
  ASSERT_EQ(expected.size(), 10000u);

  for (const bool morsels : {true, false}) {
    for (int dop : {1, 2, 4, 8}) {
      SCOPED_TRACE("morsels=" + std::to_string(morsels) +
                   " dop=" + std::to_string(dop));
      SortOp sort(Child(table.get(), morsels), Keys());
      const RunOutcome got = Run(&sort, dop);
      EXPECT_EQ(got.rows, expected);  // byte-identical
      if (morsels) {
        EXPECT_GT(sort.num_runs(), 1u);
        EXPECT_EQ(sort.merge_partitions(),
                  std::min<size_t>(8, sort.num_runs()));
      } else {
        EXPECT_EQ(sort.num_runs(), 1u);
      }
    }
  }
}

TEST_F(ParallelSortTest, AccountingIsDopInvariantAndCriticalPathShrinks) {
  auto table = MakeLineitem(20000, 512);
  std::vector<RunOutcome> outcomes;
  for (int dop : {1, 2, 4, 8}) {
    SortOp sort(std::make_unique<TableScanOp>(table.get()), Keys());
    outcomes.push_back(Run(&sort, dop));
  }
  const QueryStats& base = outcomes[0].stats;
  for (size_t i = 1; i < outcomes.size(); ++i) {
    const QueryStats& got = outcomes[i].stats;
    EXPECT_EQ(outcomes[i].rows, outcomes[0].rows);
    // Modeled work is bit-identical: charges are settled on the
    // coordinator in run/partition order from dop-invariant totals.
    EXPECT_EQ(got.cpu_instructions, base.cpu_instructions);
    EXPECT_EQ(got.io_bytes, base.io_bytes);
    EXPECT_EQ(got.cpu_seconds, base.cpu_seconds);
    EXPECT_EQ(got.cpu_serial_seconds, base.cpu_serial_seconds);
    // Parallelism only shortens the CPU critical path.
    EXPECT_LT(got.cpu_elapsed_seconds,
              outcomes[i - 1].stats.cpu_elapsed_seconds);
  }
  // Amdahl floor: the serial merge-stitching term never divides by cores.
  EXPECT_GT(base.cpu_serial_seconds, 0.0);
  EXPECT_GT(outcomes.back().stats.cpu_elapsed_seconds,
            base.cpu_serial_seconds);
}

TEST_F(ParallelSortTest, SpilledSortReturnsSameRowsAsInMemory) {
  auto table = MakeLineitem(10000, 512);
  const std::vector<naive::Row> expected = Expected(table.get(), Keys());
  const uint64_t row_width =
      static_cast<uint64_t>(table->schema().RowWidthBytes());

  for (const bool morsels : {true, false}) {
    SCOPED_TRACE("morsels=" + std::to_string(morsels));
    SortOp in_memory(Child(table.get(), morsels), Keys());
    const RunOutcome base = Run(&in_memory, 4);
    EXPECT_FALSE(in_memory.spilled());
    EXPECT_EQ(base.rows, expected);

    for (int dop : {1, 4}) {
      SortOp spilling(Child(table.get(), morsels), Keys(),
                      /*memory_budget_bytes=*/16 * 1024, ssd_.get());
      const RunOutcome got = Run(&spilling, dop);
      EXPECT_TRUE(spilling.spilled());
      EXPECT_EQ(got.rows, expected) << "dop=" << dop;
      // Every run is written once and read back once on top of the scan.
      EXPECT_EQ(got.stats.io_bytes,
                base.stats.io_bytes + 2 * 10000 * row_width);
    }
  }
}

TEST_F(ParallelSortTest, SerialChildFallsBackToSingleRun) {
  auto table = MakeLineitem(2000, 0);
  // FilterOp is not a MorselSource, so the sort drains it into one run.
  SortOp sort(Child(table.get(), /*morsels=*/false,
                    Col("part") < Lit(int64_t{20})),
              Keys());
  const RunOutcome got = Run(&sort, 4);
  EXPECT_EQ(sort.num_runs(), 1u);
  EXPECT_EQ(sort.merge_partitions(), 1u);
  EXPECT_EQ(got.rows.size(), 1600u);
  for (size_t r = 1; r < got.rows.size(); ++r) {
    EXPECT_LE(got.rows[r - 1][1].i64, got.rows[r][1].i64);
  }
}

TEST_F(ParallelSortTest, EmptyInputYieldsEmptyOutput) {
  auto table = MakeLineitem(100, 0);
  for (const bool morsels : {true, false}) {
    SortOp sort(Child(table.get(), morsels, Col("part") < Lit(int64_t{-1})),
                Keys());
    const RunOutcome got = Run(&sort, 4);
    EXPECT_TRUE(got.rows.empty()) << "morsels=" << morsels;
    EXPECT_EQ(sort.num_runs(), 0u);
    EXPECT_EQ(sort.merge_partitions(), 0u);
  }
}

TEST_F(ParallelSortTest, NextHonorsBatchRows) {
  // Like every other operator, SortOp hands out batches of at most
  // ExecOptions::batch_rows rows — with and without a limit, over both
  // child shapes. Batch size is host scheduling only: over the morsel
  // child (whose runs do not depend on it) the whole QueryStats is
  // bit-identical across sizes. Each run gets a fresh platform, device and
  // table, so every query starts at the same simulated instant.
  const std::vector<naive::Row> sorted =
      Expected(MakeLineitem(3000, 512).get(), Keys());
  for (const bool morsels : {true, false}) {
    for (const std::optional<size_t> limit :
         {std::optional<size_t>{}, std::optional<size_t>{100}}) {
      std::optional<QueryStats> base;
      for (const size_t batch_rows : {size_t{1}, size_t{7}, size_t{4096}}) {
        SCOPED_TRACE("morsels=" + std::to_string(morsels) + " limit=" +
                     std::to_string(limit.value_or(0)) +
                     " batch_rows=" + std::to_string(batch_rows));
        ssd_.reset();
        platform_ = power::MakeProportionalPlatform();
        ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                    platform_->meter());
        auto table = MakeLineitem(3000, 512);
        SortOp sort(Child(table.get(), morsels), Keys(), UINT64_MAX, nullptr,
                    limit);
        ExecOptions options;
        options.dop = 4;
        options.morsel_rows = 1024;
        options.batch_rows = batch_rows;
        ExecContext ctx(platform_.get(), options);
        auto result = CollectAll(&sort, &ctx);
        ASSERT_TRUE(result.ok()) << result.status().message();
        const QueryStats stats = ctx.Finish();
        for (const RecordBatch& batch : result->batches) {
          EXPECT_GT(batch.num_rows(), 0u);
          EXPECT_LE(batch.num_rows(), batch_rows);
        }
        const std::vector<naive::Row> rows = naive::RowsOf(result->batches);
        const size_t want = std::min(limit.value_or(sorted.size()),
                                     sorted.size());
        EXPECT_EQ(rows, std::vector<naive::Row>(
                            sorted.begin(),
                            sorted.begin() +
                                static_cast<std::ptrdiff_t>(want)));
        if (!morsels) continue;
        if (!base.has_value()) {
          base = stats;
          continue;
        }
        EXPECT_EQ(stats.start_time, base->start_time);
        EXPECT_EQ(stats.end_time, base->end_time);
        EXPECT_EQ(stats.elapsed_seconds, base->elapsed_seconds);
        EXPECT_EQ(stats.cpu_seconds, base->cpu_seconds);
        EXPECT_EQ(stats.cpu_elapsed_seconds, base->cpu_elapsed_seconds);
        EXPECT_EQ(stats.cpu_instructions, base->cpu_instructions);
        EXPECT_EQ(stats.cpu_serial_seconds, base->cpu_serial_seconds);
        EXPECT_EQ(stats.active_cores, base->active_cores);
        EXPECT_EQ(stats.io_seconds, base->io_seconds);
        EXPECT_EQ(stats.io_bytes, base->io_bytes);
        EXPECT_EQ(stats.rows_emitted, base->rows_emitted);
        EXPECT_EQ(stats.energy.it_joules, base->energy.it_joules);
        EXPECT_EQ(stats.energy.wall_joules, base->energy.wall_joules);
        EXPECT_EQ(stats.cpu_active_joules, base->cpu_active_joules);
        EXPECT_EQ(stats.dram_joules, base->dram_joules);
        EXPECT_EQ(stats.io_active_joules, base->io_active_joules);
      }
    }
  }
}

TEST_F(ParallelSortTest, MissingSortColumnIsNotFound) {
  auto table = MakeLineitem(100, 0);
  for (const bool morsels : {true, false}) {
    SortOp sort(Child(table.get(), morsels), {{"no_such_column", true}});
    ExecContext ctx(platform_.get(), ExecOptions{});
    EXPECT_EQ(sort.Open(&ctx).code(), StatusCode::kNotFound)
        << "morsels=" << morsels;
  }
}

// --- Spill accounting across Open retries -------------------------------------

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

TEST_F(ParallelSortTest, SortOpChargesSpillExactlyOnceAcrossOpenRetry) {
  // A drained child fails mid-drain on the first Open: runs settle only
  // after the drain, so the failed attempt bills no spill at all, and
  // the retry bills all 8000 spilled bytes (1000 rows x 8 B over a 2 KiB
  // budget) written once and read once.
  SortOp sort(std::make_unique<FlakyRowsOp>(1000, 100, 6), {{"k", true}},
              /*memory_budget_bytes=*/2048, ssd_.get());
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_EQ(sort.Open(&ctx).code(), StatusCode::kInternal);
  EXPECT_FALSE(sort.spilled());

  ASSERT_TRUE(sort.Open(&ctx).ok());
  EXPECT_TRUE(sort.spilled());
  RecordBatch batch;
  bool eos = false;
  uint64_t rows = 0;
  int64_t prev = INT64_MIN;
  while (true) {
    ASSERT_TRUE(sort.Next(&batch, &eos).ok());
    if (eos) break;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      EXPECT_LE(prev, batch.column(0).i64[r]);
      prev = batch.column(0).i64[r];
      ++rows;
    }
  }
  sort.Close();
  EXPECT_EQ(rows, 1000u);
  EXPECT_EQ(ctx.Finish().io_bytes, 2u * 8000u);
}

TEST_F(ParallelSortTest, ParallelSortChargesSpillExactlyOnceAcrossOpenRetry) {
  // A query retried end-to-end: the first Open completes — runs spilled,
  // merged, billed — before a downstream failure forces a second Open of
  // the same tree. The table is physically re-scanned (and re-billed), but
  // the runs are already on the spill device, so spill I/O bills once.
  auto table = MakeLineitem(10000, 512);
  const uint64_t row_width =
      static_cast<uint64_t>(table->schema().RowWidthBytes());
  const std::vector<naive::Row> expected = Expected(table.get(), Keys());
  for (const bool morsels : {true, false}) {
    SCOPED_TRACE("morsels=" + std::to_string(morsels));
    SortOp in_memory(Child(table.get(), morsels), Keys());
    const RunOutcome base = Run(&in_memory, 4);  // scan-only I/O

    SortOp sort(Child(table.get(), morsels), Keys(),
                /*memory_budget_bytes=*/16 * 1024, ssd_.get());
    ExecOptions options;
    options.dop = 4;
    options.morsel_rows = 1024;
    ExecContext ctx(platform_.get(), options);
    ASSERT_TRUE(sort.Open(&ctx).ok());
    EXPECT_TRUE(sort.spilled());
    ASSERT_TRUE(sort.Open(&ctx).ok());  // the retry

    std::vector<RecordBatch> batches;
    bool eos = false;
    while (true) {
      RecordBatch batch;
      ASSERT_TRUE(sort.Next(&batch, &eos).ok());
      if (eos) break;
      batches.push_back(std::move(batch));
    }
    sort.Close();
    EXPECT_EQ(naive::RowsOf(batches), expected);
    EXPECT_EQ(ctx.Finish().io_bytes,
              2 * base.stats.io_bytes + 2u * 10000u * row_width);
  }
}

}  // namespace
}  // namespace ecodb::exec
