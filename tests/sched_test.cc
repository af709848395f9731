// Tests for the consolidation machinery: spin-down policies, request
// batching, and migrate-to-power-down decisions (Section 4.2 of the paper).

#include <memory>

#include <gtest/gtest.h>

#include "power/energy_meter.h"
#include "sched/batching.h"
#include "sched/consolidation.h"
#include "sched/spin_down.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb::sched {
namespace {

power::HddSpec TestHdd() {
  power::HddSpec spec;
  spec.idle_watts = 12.0;
  spec.standby_watts = 2.0;
  spec.spinup_watts = 24.0;
  spec.spinup_seconds = 6.0;
  return spec;
}

class SpinDownTest : public ::testing::Test {
 protected:
  SpinDownTest()
      : meter_(&clock_), events_(&clock_), hdd_("d0", TestHdd(), &meter_) {}

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  sim::EventQueue events_;
  storage::HddDevice hdd_;
};

TEST_F(SpinDownTest, NeverPolicyNeverSpinsDown) {
  DiskPowerManager mgr(&events_, &hdd_, SpinDownPolicy::kNever);
  mgr.NotifyAccessEnd(0.0);
  events_.RunUntil(1e6);
  EXPECT_FALSE(hdd_.IsPoweredDown());
  EXPECT_EQ(mgr.spin_downs(), 0);
}

TEST_F(SpinDownTest, FixedTimeoutSpinsDownAfterIdle) {
  DiskPowerManager mgr(&events_, &hdd_, SpinDownPolicy::kFixedTimeout, 10.0);
  mgr.NotifyAccessEnd(0.0);
  events_.RunUntil(9.0);
  EXPECT_FALSE(hdd_.IsPoweredDown());
  events_.RunUntil(11.0);
  EXPECT_TRUE(hdd_.IsPoweredDown());
  EXPECT_EQ(mgr.spin_downs(), 1);
}

TEST_F(SpinDownTest, AccessCancelsPendingSpinDown) {
  DiskPowerManager mgr(&events_, &hdd_, SpinDownPolicy::kFixedTimeout, 10.0);
  mgr.NotifyAccessEnd(0.0);
  events_.RunUntil(8.0);
  mgr.NotifyAccessEnd(8.0);  // activity re-arms the timer
  events_.RunUntil(12.0);
  EXPECT_FALSE(hdd_.IsPoweredDown());
  events_.RunUntil(18.5);
  EXPECT_TRUE(hdd_.IsPoweredDown());
}

TEST_F(SpinDownTest, BreakEvenPolicyUsesDeviceMath) {
  DiskPowerManager mgr(&events_, &hdd_, SpinDownPolicy::kBreakEven);
  EXPECT_NEAR(mgr.TimeoutSeconds(), TestHdd().BreakEvenIdleSeconds(), 1e-9);
}

TEST_F(SpinDownTest, SsdHasNoUsefulSpinDown) {
  storage::SsdDevice ssd("s0", power::SsdSpec{}, &meter_);
  DiskPowerManager mgr(&events_, &ssd, SpinDownPolicy::kBreakEven);
  mgr.NotifyAccessEnd(0.0);
  events_.RunUntil(1e6);
  EXPECT_EQ(mgr.spin_downs(), 0);
}

// --- Batching -----------------------------------------------------------------

class BatchingTest : public ::testing::Test {
 protected:
  BatchingTest() : events_(&clock_) {}

  sim::SimClock clock_;
  sim::EventQueue events_;
};

TEST_F(BatchingTest, ZeroWindowRunsImmediately) {
  BatchingScheduler sched(&events_, BatchingConfig{0.0});
  int ran = 0;
  sched.Submit([&] {
    ++ran;
    return clock_.now() + 0.1;
  });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.batches_dispatched(), 1u);
  EXPECT_NEAR(sched.latency().max(), 0.1, 1e-9);
}

TEST_F(BatchingTest, WindowHoldsRequests) {
  BatchingScheduler sched(&events_, BatchingConfig{5.0});
  int ran = 0;
  sched.Submit([&] {
    ++ran;
    return clock_.now();
  });
  EXPECT_EQ(ran, 0);  // held
  events_.RunUntil(4.9);
  EXPECT_EQ(ran, 0);
  events_.RunUntil(5.1);
  EXPECT_EQ(ran, 1);
}

TEST_F(BatchingTest, LatencyIncludesQueueingDelay) {
  BatchingScheduler sched(&events_, BatchingConfig{2.0});
  sched.Submit([&] { return clock_.now() + 0.5; });
  events_.RunAll();
  EXPECT_EQ(sched.latency().count(), 1u);
  // 2 s window + 0.5 s service.
  EXPECT_NEAR(sched.latency().max(), 2.5, 1e-9);
}

TEST_F(BatchingTest, BatchedRequestsRunBackToBack) {
  BatchingScheduler sched(&events_, BatchingConfig{1.0});
  std::vector<double> run_times;
  for (int i = 0; i < 3; ++i) {
    sched.Submit([&] {
      run_times.push_back(clock_.now());
      return clock_.now() + 1.0;
    });
  }
  events_.RunAll();
  ASSERT_EQ(run_times.size(), 3u);
  // First runs at the window expiry; the rest chase the previous finish.
  EXPECT_NEAR(run_times[0], 1.0, 1e-9);
  EXPECT_NEAR(run_times[1], 2.0, 1e-9);
  EXPECT_NEAR(run_times[2], 3.0, 1e-9);
}

TEST_F(BatchingTest, BatchingLengthensDeviceIdlePeriods) {
  // The point of A3: with batching, accesses cluster, leaving contiguous
  // idle gaps a spin-down policy can exploit.
  power::EnergyMeter meter(&clock_);
  storage::HddDevice hdd("d0", TestHdd(), &meter);

  BatchingScheduler batched(&events_, BatchingConfig{10.0});
  std::vector<double> completions;
  for (int i = 0; i < 5; ++i) {
    batched.Submit([&] {
      const storage::IoResult r =
          hdd.SubmitRead(clock_.now(), 8 << 20, false).value();
      completions.push_back(r.completion_time);
      return r.completion_time;
    });
  }
  events_.RunAll();
  ASSERT_EQ(completions.size(), 5u);
  // All five I/Os complete within a tight burst after the window.
  EXPECT_LT(completions.back() - completions.front(), 1.0);
}

// --- Consolidation ---------------------------------------------------------------

class ConsolidationTest : public ::testing::Test {
 protected:
  ConsolidationTest()
      : meter_(&clock_),
        source_("src", TestHdd(), &meter_),
        target_("dst", power::SsdSpec{}, &meter_) {}

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  storage::HddDevice source_;
  storage::SsdDevice target_;
};

TEST_F(ConsolidationTest, LongIdleHorizonJustifiesMigration) {
  const auto d = ConsolidationManager::Evaluate(source_, target_,
                                                10ULL << 30, 24 * 3600.0);
  EXPECT_TRUE(d.migrate);
  EXPECT_GT(d.savings_joules, d.migration_joules);
}

TEST_F(ConsolidationTest, ShortHorizonRejectsMigration) {
  const auto d =
      ConsolidationManager::Evaluate(source_, target_, 10ULL << 30, 10.0);
  EXPECT_FALSE(d.migrate);
}

TEST_F(ConsolidationTest, BreakEvenHorizonConsistent) {
  const auto d =
      ConsolidationManager::Evaluate(source_, target_, 1ULL << 30, 3600.0);
  // At exactly the break-even horizon, savings equal migration cost.
  const double savings_at_breakeven =
      source_.StandbySavingsWatts() * d.break_even_horizon_s;
  EXPECT_NEAR(savings_at_breakeven, d.migration_joules, 1e-6);
}

TEST_F(ConsolidationTest, MigrateMovesTableAndPowersDownSource) {
  catalog::Schema schema({catalog::Column{"v", catalog::DataType::kInt64, 8}});
  storage::TableStorage table(1, schema, storage::TableLayout::kColumn,
                              &source_);
  storage::ColumnData col;
  col.type = catalog::DataType::kInt64;
  for (int i = 0; i < 100000; ++i) col.i64.push_back(i);
  ASSERT_TRUE(table.Append({col}).ok());

  const double done =
      ConsolidationManager::Migrate(&table, &target_, &clock_).value();
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(table.device(), &target_);
  EXPECT_TRUE(source_.IsPoweredDown());
  // The move itself cost device energy (visible on both channels).
  EXPECT_GT(meter_.ChannelBusySeconds(source_.channel()), 0.0);
  EXPECT_GT(meter_.ChannelBusySeconds(target_.channel()), 0.0);
}

TEST_F(ConsolidationTest, MigrationSavesEnergyOverLongHorizon) {
  // End-to-end: migrate + power down vs stay, measured over a long idle
  // horizon. The consolidated configuration must use less energy.
  const double horizon = 4.0 * 3600;

  // Stay: disk idles for the horizon.
  sim::SimClock clock_stay;
  power::EnergyMeter meter_stay(&clock_stay);
  storage::HddDevice stay("stay", TestHdd(), &meter_stay);
  clock_stay.AdvanceTo(horizon);
  const double stay_joules = meter_stay.ChannelJoules(stay.channel());

  // Migrate: pay the move, then standby for the rest.
  sim::SimClock clock_mig;
  power::EnergyMeter meter_mig(&clock_mig);
  storage::HddDevice src("src2", TestHdd(), &meter_mig);
  storage::SsdDevice dst("dst2", power::SsdSpec{}, &meter_mig);
  catalog::Schema schema({catalog::Column{"v", catalog::DataType::kInt64, 8}});
  storage::TableStorage table(1, schema, storage::TableLayout::kColumn, &src);
  storage::ColumnData col;
  col.type = catalog::DataType::kInt64;
  for (int i = 0; i < 1000000; ++i) col.i64.push_back(i);
  ASSERT_TRUE(table.Append({col}).ok());
  ASSERT_TRUE(ConsolidationManager::Migrate(&table, &dst, &clock_mig).ok());
  clock_mig.AdvanceTo(horizon);
  const double mig_joules = meter_mig.ChannelJoules(src.channel());

  EXPECT_LT(mig_joules, stay_joules);
}

}  // namespace
}  // namespace ecodb::sched
