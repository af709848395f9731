// Tests for the physical design advisor: sweep analysis (the diminishing-
// returns rule of Section 3.1) and per-column compression recommendations
// that flip with the optimization objective.

#include <memory>

#include <gtest/gtest.h>

#include "advisor/design_advisor.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::advisor {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using storage::CompressionKind;

// --- Sweep analysis -----------------------------------------------------------

// A synthetic workload with saturating performance and linear power:
// perf(n) = n / (n + 8), power(n) = 50 + 10 n. EE peaks at an interior n.
SweepPoint SyntheticRunner(int n) {
  SweepPoint p;
  p.work_units = 1000.0;
  const double throughput = static_cast<double>(n) / (n + 8.0);
  p.seconds = p.work_units / throughput;
  p.joules = (50.0 + 10.0 * n) * p.seconds;
  return p;
}

TEST(SweepAnalysis, FindsInteriorEfficiencyPeak) {
  const std::vector<int> configs = {1, 2, 4, 8, 16, 32, 64};
  const SweepAnalysis a = AnalyzeSweep(configs, SyntheticRunner);
  // Performance strictly improves with n.
  EXPECT_EQ(a.BestPerformance().config, 64);
  // EE = work / joules = throughput / power; maximized where d/dn
  // [n/((n+8)(50+10n))] = 0 -> n = sqrt(40) ~ 6.3 -> nearest config wins.
  EXPECT_GT(a.BestEfficiency().config, 1);
  EXPECT_LT(a.BestEfficiency().config, 64);
  EXPECT_TRUE(a.BestEfficiency().config == 4 ||
              a.BestEfficiency().config == 8);
}

TEST(SweepAnalysis, PaperStyleTradeoffMetrics) {
  const std::vector<int> configs = {1, 2, 4, 8, 16, 32, 64};
  const SweepAnalysis a = AnalyzeSweep(configs, SyntheticRunner);
  // Efficiency peak gains EE but sacrifices performance vs the perf peak.
  EXPECT_GT(a.EfficiencyGainVsPeakPerf(), 0.0);
  EXPECT_GT(a.PerformanceDropAtPeakEfficiency(), 0.0);
  EXPECT_LT(a.PerformanceDropAtPeakEfficiency(), 1.0);
}

TEST(SweepAnalysis, MonotoneEfficiencyPutsPeaksTogether) {
  // If power is flat, max EE coincides with max performance.
  auto runner = [](int n) {
    SweepPoint p;
    p.work_units = 100.0;
    p.seconds = 100.0 / n;
    p.joules = 50.0 * p.seconds;
    return p;
  };
  const SweepAnalysis a = AnalyzeSweep({1, 2, 4}, runner);
  EXPECT_EQ(a.best_performance_index, a.best_efficiency_index);
}

TEST(SweepPoint, DerivedMetrics) {
  SweepPoint p;
  p.seconds = 10.0;
  p.joules = 500.0;
  p.work_units = 100.0;
  EXPECT_DOUBLE_EQ(p.Performance(), 10.0);
  EXPECT_DOUBLE_EQ(p.EnergyEfficiency(), 0.2);
  EXPECT_DOUBLE_EQ(p.AvgWatts(), 50.0);
}

// --- Compression advice -----------------------------------------------------------

class CompressionAdvisorTest : public ::testing::Test {
 protected:
  CompressionAdvisorTest() : platform_(power::MakeFlashScanPlatform()) {
    power::SsdSpec spec;
    spec.read_bw_bytes_per_s = 100e6;
    ssd_ = std::make_unique<storage::SsdDevice>("ssd", spec,
                                                platform_->meter());
  }

  std::unique_ptr<storage::TableStorage> MakeTable() {
    Schema schema({Column{"seq", DataType::kInt64, 8},
                   Column{"rand", DataType::kInt64, 8},
                   Column{"flag", DataType::kString, 2}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(3);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kString;
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
      cols[0].i64.push_back(i);  // sequential: delta-friendly
      cols[1].i64.push_back(static_cast<int64_t>(rng.Next()));
      cols[2].str.push_back(i % 3 ? "A" : "B");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

TEST_F(CompressionAdvisorTest, PerformanceObjectivePicksCompressibleCodecs) {
  auto table = MakeTable();
  optimizer::CostModel model(platform_.get(), optimizer::CostModelParams{});
  auto rec = RecommendCompression(
      *table,
      {CompressionKind::kRle, CompressionKind::kDelta, CompressionKind::kFor},
      &model, optimizer::Objective::Performance());
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->choices.size(), 3u);
  // Sequential column: some compressing codec with a strong ratio.
  EXPECT_NE(rec->choices[0].kind, CompressionKind::kNone);
  EXPECT_LT(rec->choices[0].ratio, 0.3);
  // Random column: nothing helps; expect kNone.
  EXPECT_EQ(rec->choices[1].kind, CompressionKind::kNone);
  // Low-cardinality string: dictionary.
  EXPECT_EQ(rec->choices[2].kind, CompressionKind::kDictionary);
}

TEST_F(CompressionAdvisorTest, EnergyObjectiveCanRejectCompression) {
  // Make decode expensive (heavy CPU at 90 W vs a ~1.7 W SSD): the energy
  // objective should keep the sequential column uncompressed even though
  // compression would make the scan faster.
  auto table = MakeTable();
  exec::ExecOptions exec;
  exec.decode_scale = 50.0;
  optimizer::CostModel model(platform_.get(), {}, exec);

  auto perf = RecommendCompression(*table, {CompressionKind::kDelta}, &model,
                                   optimizer::Objective::Performance());
  ASSERT_TRUE(perf.ok());
  auto energy = RecommendCompression(*table, {CompressionKind::kDelta},
                                     &model, optimizer::Objective::Energy());
  ASSERT_TRUE(energy.ok());

  EXPECT_EQ(perf->choices[0].kind, CompressionKind::kDelta);
  EXPECT_EQ(energy->choices[0].kind, CompressionKind::kNone);
}

TEST_F(CompressionAdvisorTest, EmptyTableRejected) {
  Schema schema({Column{"x", DataType::kInt64, 8}});
  storage::TableStorage empty(9, schema, storage::TableLayout::kColumn,
                              ssd_.get());
  optimizer::CostModel model(platform_.get(), optimizer::CostModelParams{});
  EXPECT_FALSE(RecommendCompression(empty, {}, &model,
                                    optimizer::Objective::Performance())
                   .ok());
}

TEST_F(CompressionAdvisorTest, TotalCostCoversAllColumns) {
  auto table = MakeTable();
  optimizer::CostModel model(platform_.get(), optimizer::CostModelParams{});
  auto rec = RecommendCompression(*table, {CompressionKind::kDelta}, &model,
                                  optimizer::Objective::Performance());
  ASSERT_TRUE(rec.ok());
  EXPECT_GT(rec->total_scan_cost.seconds, 0.0);
  EXPECT_GT(rec->total_scan_cost.joules, 0.0);
}

}  // namespace
}  // namespace ecodb::advisor
