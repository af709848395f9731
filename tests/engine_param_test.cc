// Parameterized property sweeps across the engine:
//   * query results are invariant under batch size, layout, compression,
//     DOP, and P-state (physical knobs must never change answers);
//   * energy/time accounting reacts to those knobs in the documented
//     direction;
//   * buffer-pool invariants hold for every policy under random traces;
//   * RAID arrays behave across level x width combinations.

#include <memory>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/buffer_pool.h"
#include "storage/disk_array.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;

// ---------------------------------------------------------------------------
// Result invariance under physical knobs.
// ---------------------------------------------------------------------------

struct PhysicalKnobs {
  size_t batch_rows;
  storage::TableLayout layout;
  storage::CompressionKind key_codec;
  int dop;
  int pstate;
  /// CPU weight; large values make the query CPU-bound (for knob-effect
  /// tests that need the CPU on the critical path).
  double decode_scale = 1.0;
};

class KnobInvariance : public ::testing::TestWithParam<PhysicalKnobs> {};

// The canonical query: filtered grouped aggregate whose exact answer we
// know analytically for the generated data.
double RunCanonicalQuery(const PhysicalKnobs& knobs,
                         exec::QueryStats* stats_out) {
  auto platform = power::MakeDl785Platform();
  storage::SsdDevice ssd("s", power::SsdSpec{}, platform->meter());
  Schema schema({Column{"k", DataType::kInt64, 8},
                 Column{"v", DataType::kDouble, 8}});
  storage::TableStorage table(1, schema, knobs.layout, &ssd);
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kDouble;
  for (int i = 0; i < 30000; ++i) {
    cols[0].i64.push_back(i % 100);
    cols[1].f64.push_back(i % 7);
  }
  EXPECT_TRUE(table.Append(cols).ok());
  if (knobs.key_codec != storage::CompressionKind::kNone) {
    EXPECT_TRUE(table.SetCompression("k", knobs.key_codec).ok());
  }

  exec::ExecOptions options;
  options.batch_rows = knobs.batch_rows;
  options.dop = knobs.dop;
  options.pstate = knobs.pstate;
  options.decode_scale = knobs.decode_scale;
  exec::ExecContext ctx(platform.get(), options);

  std::vector<exec::AggregateItem> aggs;
  aggs.push_back({"total", exec::AggFunc::kSum, Col("v")});
  exec::HashAggregateOp agg(
      std::make_unique<exec::FilterOp>(
          std::make_unique<exec::TableScanOp>(&table),
          Col("k") < Lit(int64_t{50})),
      std::vector<std::string>{}, std::move(aggs));
  auto result = exec::CollectAll(&agg, &ctx);
  EXPECT_TRUE(result.ok());
  if (stats_out != nullptr) *stats_out = ctx.Finish();
  return result->batches[0].GetValue(0, 0).f64;
}

TEST_P(KnobInvariance, SameAnswerEveryConfiguration) {
  // Reference: rows with k < 50 are i where i%100 < 50; sum of (i%7).
  double expect = 0;
  for (int i = 0; i < 30000; ++i) {
    if (i % 100 < 50) expect += i % 7;
  }
  exec::QueryStats stats;
  EXPECT_DOUBLE_EQ(RunCanonicalQuery(GetParam(), &stats), expect);
  EXPECT_GT(stats.Joules(), 0.0);
}

std::vector<PhysicalKnobs> AllKnobCombos() {
  std::vector<PhysicalKnobs> combos;
  for (size_t batch : {64u, 1024u, 8192u}) {
    for (auto layout :
         {storage::TableLayout::kRow, storage::TableLayout::kColumn}) {
      for (auto codec :
           {storage::CompressionKind::kNone, storage::CompressionKind::kRle,
            storage::CompressionKind::kFor}) {
        combos.push_back({batch, layout, codec, 1, 0});
      }
    }
  }
  // DOP / P-state axis.
  for (int dop : {2, 8, 32}) combos.push_back(
      {4096, storage::TableLayout::kColumn, storage::CompressionKind::kNone,
       dop, 0});
  for (int pstate : {1, 2}) combos.push_back(
      {4096, storage::TableLayout::kColumn, storage::CompressionKind::kNone,
       1, pstate});
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, KnobInvariance, ::testing::ValuesIn(AllKnobCombos()),
    [](const ::testing::TestParamInfo<PhysicalKnobs>& info) {
      const PhysicalKnobs& k = info.param;
      return "batch" + std::to_string(k.batch_rows) + "_" +
             (k.layout == storage::TableLayout::kRow ? "row" : "column") +
             "_" +
             storage::CompressionKindName(k.key_codec) + "_dop" +
             std::to_string(k.dop) + "_p" + std::to_string(k.pstate);
    });

TEST(KnobEffects, HigherDopShortensElapsed) {
  // Heavy decode weight puts the CPU on the critical path.
  exec::QueryStats d1, d8;
  RunCanonicalQuery({4096, storage::TableLayout::kColumn,
                     storage::CompressionKind::kNone, 1, 0, 500.0}, &d1);
  RunCanonicalQuery({4096, storage::TableLayout::kColumn,
                     storage::CompressionKind::kNone, 8, 0, 500.0}, &d8);
  EXPECT_LT(d8.elapsed_seconds, d1.elapsed_seconds);
  // Same core-seconds of work regardless of parallelism.
  EXPECT_NEAR(d8.cpu_seconds, d1.cpu_seconds, d1.cpu_seconds * 1e-9);
}

TEST(KnobEffects, SlowerPstateLengthensCpuTime) {
  exec::QueryStats p0, p2;
  RunCanonicalQuery({4096, storage::TableLayout::kColumn,
                     storage::CompressionKind::kNone, 1, 0}, &p0);
  RunCanonicalQuery({4096, storage::TableLayout::kColumn,
                     storage::CompressionKind::kNone, 1, 2}, &p2);
  EXPECT_GT(p2.cpu_seconds, p0.cpu_seconds * 1.3);
}

TEST(KnobEffects, RowLayoutReadsMoreBytesThanColumn) {
  exec::QueryStats row, col;
  RunCanonicalQuery({4096, storage::TableLayout::kRow,
                     storage::CompressionKind::kNone, 1, 0}, &row);
  RunCanonicalQuery({4096, storage::TableLayout::kColumn,
                     storage::CompressionKind::kNone, 1, 0}, &col);
  // The canonical query projects both columns, so volumes tie here; but
  // compression on the key shrinks only the column layout's transfer.
  exec::QueryStats col_rle;
  RunCanonicalQuery({4096, storage::TableLayout::kColumn,
                     storage::CompressionKind::kRle, 1, 0}, &col_rle);
  exec::QueryStats row_rle;
  RunCanonicalQuery({4096, storage::TableLayout::kRow,
                     storage::CompressionKind::kRle, 1, 0}, &row_rle);
  EXPECT_LT(col_rle.io_bytes, col.io_bytes);
  EXPECT_EQ(row_rle.io_bytes, row.io_bytes);
}

// ---------------------------------------------------------------------------
// Buffer-pool invariants for every policy under random traces.
// ---------------------------------------------------------------------------

class PoolPolicySweep
    : public ::testing::TestWithParam<storage::ReplacementPolicy> {};

TEST_P(PoolPolicySweep, InvariantsHoldUnderRandomTrace) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  storage::HddDevice hdd("h", power::HddSpec{}, &meter);
  storage::SsdDevice ssd("s", power::SsdSpec{}, &meter);

  storage::BufferPoolConfig config;
  config.num_frames = 32;
  config.policy = GetParam();
  storage::BufferPool pool(config, &clock, &meter);

  Rng rng(static_cast<uint64_t>(GetParam()) + 1);
  uint64_t hits = 0, misses = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t page = static_cast<uint32_t>(rng.Zipf(128, 0.6));
    storage::StorageDevice* dev =
        rng.Bernoulli(0.5) ? static_cast<storage::StorageDevice*>(&hdd)
                           : &ssd;
    const storage::PageId id{page % 2 == 0 ? 1u : 2u, page};
    const bool resident_before = pool.IsResident(id);
    const storage::PageAccess access =
        pool.Access(id, dev, rng.Bernoulli(0.1)).value();
    // Hit iff it was resident; after any access it is resident.
    EXPECT_EQ(access.hit, resident_before);
    EXPECT_TRUE(pool.IsResident(id));
    // Capacity is never exceeded.
    EXPECT_LE(pool.resident_pages(), config.num_frames);
    hits += access.hit;
    misses += !access.hit;
  }
  EXPECT_EQ(pool.stats().hits, hits);
  EXPECT_EQ(pool.stats().misses, misses);
  // Zipf(0.6) over 128 pages with 32 frames: every policy should manage a
  // non-trivial hit rate.
  EXPECT_GT(pool.stats().HitRate(), 0.25);
  ASSERT_TRUE(pool.FlushAll().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PoolPolicySweep,
    ::testing::Values(storage::ReplacementPolicy::kLru,
                      storage::ReplacementPolicy::kClock,
                      storage::ReplacementPolicy::kEnergyAware),
    [](const ::testing::TestParamInfo<storage::ReplacementPolicy>& info) {
      std::string name = storage::ReplacementPolicyName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// ---------------------------------------------------------------------------
// RAID arrays across level x width.
// ---------------------------------------------------------------------------

struct ArrayCase {
  storage::RaidLevel level;
  int disks;
};

class ArraySweep : public ::testing::TestWithParam<ArrayCase> {};

TEST_P(ArraySweep, ReadCompletesAndScalesSanely) {
  const ArrayCase& c = GetParam();
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  std::vector<std::unique_ptr<storage::StorageDevice>> members;
  for (int i = 0; i < c.disks; ++i) {
    members.push_back(std::make_unique<storage::HddDevice>(
        "d" + std::to_string(i), power::HddSpec{}, &meter));
  }
  storage::ArraySpec spec;
  spec.level = c.level;
  std::unique_ptr<storage::DiskArray> array_ptr =
      storage::DiskArray::Create("a", spec, std::move(members)).value();
  storage::DiskArray& array = *array_ptr;

  const storage::IoResult r = array.SubmitRead(0.0, 500e6, true).value();
  EXPECT_GT(r.service_seconds, 0.0);
  // Never slower than a single disk doing all the work.
  const double single = 500e6 / power::HddSpec{}.sustained_bw_bytes_per_s;
  EXPECT_LT(r.service_seconds, single + 1.0);
  // Estimates agree with behaviour within the skew/ceiling model.
  EXPECT_NEAR(array.EstimateReadSeconds(500e6), r.service_seconds,
              r.service_seconds * 0.25 + 0.05);
  // Writes never beat reads (parity and write-rate penalties).
  const storage::IoResult w =
      array.SubmitWrite(r.completion_time, 500e6, true).value();
  EXPECT_GE(w.service_seconds, r.service_seconds * 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndWidths, ArraySweep,
    ::testing::Values(ArrayCase{storage::RaidLevel::kRaid0, 1},
                      ArrayCase{storage::RaidLevel::kRaid0, 4},
                      ArrayCase{storage::RaidLevel::kRaid0, 16},
                      ArrayCase{storage::RaidLevel::kRaid5, 3},
                      ArrayCase{storage::RaidLevel::kRaid5, 8},
                      ArrayCase{storage::RaidLevel::kRaid5, 36}),
    [](const ::testing::TestParamInfo<ArrayCase>& info) {
      return std::string(info.param.level == storage::RaidLevel::kRaid0
                             ? "raid0"
                             : "raid5") +
             "_" + std::to_string(info.param.disks);
    });

// ---------------------------------------------------------------------------
// Expression sugar.
// ---------------------------------------------------------------------------

TEST(ExprSugar, BetweenMatchesManualConjunction) {
  Schema schema({Column{"x", DataType::kInt64, 8}});
  exec::RecordBatch batch(schema);
  batch.column(0).i64 = {1, 5, 10, 15, 20};
  ASSERT_TRUE(batch.SealRows(5).ok());
  auto e = exec::Between(Col("x"), Lit(int64_t{5}), Lit(int64_t{15}));
  ASSERT_TRUE(e->Bind(schema).ok());
  EXPECT_EQ(e->Evaluate(batch)->i64, (std::vector<int64_t>{0, 1, 1, 1, 0}));
}

TEST(ExprSugar, InOverIntegers) {
  Schema schema({Column{"x", DataType::kInt64, 8}});
  exec::RecordBatch batch(schema);
  batch.column(0).i64 = {1, 2, 3, 4, 5};
  ASSERT_TRUE(batch.SealRows(5).ok());
  auto e = exec::In(Col("x"), std::vector<int64_t>{2, 5});
  ASSERT_TRUE(e->Bind(schema).ok());
  EXPECT_EQ(e->Evaluate(batch)->i64, (std::vector<int64_t>{0, 1, 0, 0, 1}));
}

TEST(ExprSugar, InOverStrings) {
  Schema schema({Column{"s", DataType::kString, 4}});
  exec::RecordBatch batch(schema);
  batch.column(0).str = {"a", "b", "c"};
  ASSERT_TRUE(batch.SealRows(3).ok());
  auto e = exec::In(Col("s"), std::vector<const char*>{"a", "c"});
  ASSERT_TRUE(e->Bind(schema).ok());
  EXPECT_EQ(e->Evaluate(batch)->i64, (std::vector<int64_t>{1, 0, 1}));
}

}  // namespace
}  // namespace ecodb
