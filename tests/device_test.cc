// Tests for the device simulators: HDD service times and spin-state energy,
// SSD behaviour, and the RAID array (striping speedup, saturation, parity).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/disk_array.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "util/random.h"

namespace ecodb::storage {
namespace {

power::HddSpec TestHdd() {
  power::HddSpec spec;
  spec.sustained_bw_bytes_per_s = 100e6;
  spec.avg_seek_s = 0.004;
  spec.rotational_latency_s = 0.002;
  spec.active_watts = 17.0;
  spec.idle_watts = 12.0;
  spec.standby_watts = 2.0;
  spec.spinup_watts = 24.0;
  spec.spinup_seconds = 6.0;
  return spec;
}

TEST(HddDevice, SequentialReadTimeIsPositioningPlusTransfer) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  const IoResult r = hdd.SubmitRead(0.0, 100e6, /*sequential=*/true).value();
  // First access pays positioning even when sequential.
  EXPECT_NEAR(r.service_seconds, 1.0 + 0.006, 1e-9);
  EXPECT_NEAR(r.completion_time, 1.006, 1e-9);
}

TEST(HddDevice, SequentialStreamSkipsPositioningAfterFirst) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  ASSERT_TRUE(hdd.SubmitRead(0.0, 100e6, true).ok());
  const IoResult r2 = hdd.SubmitRead(0.0, 100e6, true).value();
  EXPECT_NEAR(r2.service_seconds, 1.0, 1e-9);
}

TEST(HddDevice, RandomReadsAlwaysSeek) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  ASSERT_TRUE(hdd.SubmitRead(0.0, 8192, false).ok());
  const IoResult r2 = hdd.SubmitRead(0.0, 8192, false).value();
  EXPECT_GT(r2.service_seconds, 0.006);
}

TEST(HddDevice, RequestsSerializeOnBusyDevice) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  const IoResult a = hdd.SubmitRead(0.0, 50e6, true).value();
  const IoResult b = hdd.SubmitRead(0.0, 50e6, true).value();
  EXPECT_GE(b.start_time, a.completion_time);
}

TEST(HddDevice, EnergyMatchesActivePlusIdleIntegral) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  const IoResult r = hdd.SubmitRead(0.0, 100e6, true).value();
  clock.AdvanceTo(10.0);
  // Idle 12 W for the full 10 s + (17-12) W differential while busy.
  const double expect = 12.0 * 10.0 + 5.0 * r.service_seconds;
  EXPECT_NEAR(meter.ChannelJoules(hdd.channel()), expect, 1e-6);
}

TEST(HddDevice, PowerDownDropsToStandbyPower) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  hdd.PowerDown(0.0);
  EXPECT_TRUE(hdd.IsPoweredDown());
  clock.AdvanceTo(100.0);
  EXPECT_NEAR(meter.ChannelJoules(hdd.channel()), 2.0 * 100.0, 1e-6);
}

TEST(HddDevice, SpinUpCostsTimeAndEnergy) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  hdd.PowerDown(0.0);
  clock.AdvanceTo(100.0);
  const IoResult r = hdd.SubmitRead(100.0, 100e6, true).value();
  // 6 s spin-up before the read can start.
  EXPECT_NEAR(r.start_time, 106.0, 1e-9);
  EXPECT_EQ(hdd.spinup_count(), 1);
  EXPECT_FALSE(hdd.IsPoweredDown());
  clock.AdvanceTo(r.completion_time);
  // standby 2W x 100s + spinup 24W x 6s + idle 12W x service + 5W x service.
  const double expect =
      2.0 * 100.0 + 24.0 * 6.0 + 17.0 * r.service_seconds;
  EXPECT_NEAR(meter.ChannelJoules(hdd.channel()), expect, 1e-6);
}

TEST(HddDevice, SpinCycleCostsMoreThanIdlingBelowBreakEven) {
  // Energy of (down, wait T, up) vs staying idle for T: below the
  // break-even idle time the cycle must lose, above it must win.
  const power::HddSpec spec = TestHdd();
  const double breakeven = spec.BreakEvenIdleSeconds();
  for (double frac : {0.5, 2.0}) {
    const double T = breakeven * frac;
    sim::SimClock clock_a;
    power::EnergyMeter meter_a(&clock_a);
    HddDevice cycled("a", spec, &meter_a);
    cycled.PowerDown(0.0);
    cycled.PowerUp(T - spec.spinup_seconds);  // back up by time T
    clock_a.AdvanceTo(T);
    const double cycle_joules = meter_a.ChannelJoules(cycled.channel());

    sim::SimClock clock_b;
    power::EnergyMeter meter_b(&clock_b);
    HddDevice idle("b", spec, &meter_b);
    clock_b.AdvanceTo(T);
    const double idle_joules = meter_b.ChannelJoules(idle.channel());

    if (frac < 1.0) {
      EXPECT_GT(cycle_joules, idle_joules) << "below break-even";
    } else {
      EXPECT_LT(cycle_joules, idle_joules) << "above break-even";
    }
  }
}

TEST(HddDevice, EstimatesReflectStandbyState) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("d0", TestHdd(), &meter);
  const double up_s = hdd.EstimateReadSeconds(8192);
  const double up_j = hdd.EstimateReadJoules(8192);
  hdd.PowerDown(0.0);
  EXPECT_GT(hdd.EstimateReadSeconds(8192), up_s + 5.0);
  EXPECT_GT(hdd.EstimateReadJoules(8192), up_j + 100.0);
}

TEST(SsdDevice, ReadTimeIsLatencyPlusTransfer) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  power::SsdSpec spec;
  spec.read_bw_bytes_per_s = 250e6;
  spec.read_latency_s = 75e-6;
  SsdDevice ssd("s0", spec, &meter);
  const IoResult r = ssd.SubmitRead(0.0, 250e6, true).value();
  EXPECT_NEAR(r.service_seconds, 1.0 + 75e-6, 1e-9);
}

TEST(SsdDevice, WritesSlowerThanReads) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  SsdDevice ssd("s0", power::SsdSpec{}, &meter);
  const IoResult rd = ssd.SubmitRead(0.0, 100e6, true).value();
  const IoResult wr = ssd.SubmitWrite(rd.completion_time, 100e6, true).value();
  EXPECT_GT(wr.service_seconds, rd.service_seconds);
}

TEST(SsdDevice, NoPowerDownState) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  SsdDevice ssd("s0", power::SsdSpec{}, &meter);
  ssd.PowerDown(0.0);
  EXPECT_FALSE(ssd.IsPoweredDown());
  EXPECT_EQ(ssd.StandbySavingsWatts(), 0.0);
}

TEST(SsdDevice, OrderOfMagnitudeMoreEfficientThanHdd) {
  // The paper's premise for Figure 2.
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  HddDevice hdd("h", TestHdd(), &meter);
  SsdDevice ssd("s", power::SsdSpec{}, &meter);
  const uint64_t mb64 = 64 * 1024 * 1024;
  const double hdd_j = hdd.EstimateReadJoules(mb64);
  const double ssd_j = ssd.EstimateReadJoules(mb64);
  EXPECT_GT(hdd_j / ssd_j, 8.0);
}

// --- DiskArray ---------------------------------------------------------------

std::unique_ptr<DiskArray> MakeArray(int disks, power::EnergyMeter* meter,
                                     RaidLevel level = RaidLevel::kRaid0,
                                     double controller_bw = 1e12) {
  std::vector<std::unique_ptr<StorageDevice>> members;
  for (int i = 0; i < disks; ++i) {
    members.push_back(std::make_unique<HddDevice>(
        "d" + std::to_string(i), TestHdd(), meter));
  }
  ArraySpec spec;
  spec.level = level;
  spec.controller_bw_bytes_per_s = controller_bw;
  spec.stripe_skew_alpha = 0.0;
  spec.per_request_overhead_s = 0.0;
  return DiskArray::Create("arr", spec, std::move(members)).value();
}

TEST(DiskArray, StripingSpeedsUpReads) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  auto a1 = MakeArray(1, &meter);
  auto a4 = MakeArray(4, &meter);
  const double t1 = a1->SubmitRead(0.0, 400e6, true).value().service_seconds;
  const double t4 = a4->SubmitRead(0.0, 400e6, true).value().service_seconds;
  EXPECT_GT(t1 / t4, 3.5);
}

TEST(DiskArray, ControllerCeilingCapsThroughput) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  auto capped = MakeArray(8, &meter, RaidLevel::kRaid0, 200e6);
  const IoResult r = capped->SubmitRead(0.0, 400e6, true).value();
  EXPECT_GE(r.service_seconds, 2.0);  // 400 MB at 200 MB/s fabric
}

TEST(DiskArray, StripeSkewCreatesDiminishingReturns) {
  // With skew, per-disk share shrinks sublinearly: marginal speedup of the
  // 16th disk is smaller than that of the 4th.
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  auto make_skewed = [&](int n) {
    std::vector<std::unique_ptr<StorageDevice>> members;
    for (int i = 0; i < n; ++i) {
      members.push_back(std::make_unique<HddDevice>(
          "sk" + std::to_string(n) + "_" + std::to_string(i), TestHdd(),
          &meter));
    }
    ArraySpec spec;
    spec.level = RaidLevel::kRaid0;
    spec.stripe_skew_alpha = 0.01;
    spec.per_request_overhead_s = 0.0;
    return DiskArray::Create("skewed", spec, std::move(members)).value();
  };
  const double t2 = make_skewed(2)->SubmitRead(0, 1e9, true).value().service_seconds;
  const double t4 = make_skewed(4)->SubmitRead(0, 1e9, true).value().service_seconds;
  const double t8 = make_skewed(8)->SubmitRead(0, 1e9, true).value().service_seconds;
  const double gain_2_to_4 = t2 / t4;
  const double gain_4_to_8 = t4 / t8;
  EXPECT_GT(gain_2_to_4, gain_4_to_8);
  EXPECT_GT(gain_4_to_8, 1.0);
}

TEST(DiskArray, Raid5WritesAmplify) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  auto r0 = MakeArray(4, &meter, RaidLevel::kRaid0);
  auto r5 = MakeArray(4, &meter, RaidLevel::kRaid5);
  const double t0 = r0->SubmitWrite(0.0, 300e6, true).value().service_seconds;
  const double t5 = r5->SubmitWrite(0.0, 300e6, true).value().service_seconds;
  EXPECT_GT(t5, t0 * 1.2);
}

TEST(DiskArray, PowerDownAllMembers) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  auto arr = MakeArray(4, &meter);
  EXPECT_FALSE(arr->IsPoweredDown());
  arr->PowerDown(0.0);
  EXPECT_TRUE(arr->IsPoweredDown());
  EXPECT_NEAR(arr->StandbySavingsWatts(), 4 * 10.0, 1e-9);
  arr->PowerUp(0.0);
  EXPECT_FALSE(arr->IsPoweredDown());
}

TEST(DiskArray, MorePowerWithMoreDisks) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  auto arr = MakeArray(8, &meter);
  clock.AdvanceTo(10.0);
  // 8 idle disks at 12 W for 10 s.
  EXPECT_NEAR(meter.TotalJoules(), 8 * 12.0 * 10.0, 1e-6);
}

// --- Parity math -------------------------------------------------------------

TEST(Parity, XorReconstructsAnyMissingBlock) {
  Rng rng(5);
  std::vector<std::vector<uint8_t>> blocks(5);
  for (auto& b : blocks) {
    b.resize(512);
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.Next());
  }
  auto parity = ComputeParity(blocks);
  ASSERT_TRUE(parity.ok());
  for (size_t missing = 0; missing < blocks.size(); ++missing) {
    auto rebuilt = ReconstructBlock(blocks, missing, *parity);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*rebuilt, blocks[missing]) << "missing block " << missing;
  }
}

TEST(Parity, ParityOfSingleBlockIsItself) {
  std::vector<std::vector<uint8_t>> one = {{1, 2, 3}};
  auto parity = ComputeParity(one);
  ASSERT_TRUE(parity.ok());
  EXPECT_EQ(*parity, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Parity, MismatchedSizesRejected) {
  std::vector<std::vector<uint8_t>> bad = {{1, 2}, {3}};
  EXPECT_FALSE(ComputeParity(bad).ok());
}

TEST(Parity, EmptyInputRejected) {
  EXPECT_FALSE(ComputeParity({}).ok());
}

TEST(Parity, ReconstructIndexOutOfRangeRejected) {
  std::vector<std::vector<uint8_t>> blocks = {{1}, {2}};
  auto parity = ComputeParity(blocks);
  ASSERT_TRUE(parity.ok());
  EXPECT_FALSE(ReconstructBlock(blocks, 5, *parity).ok());
}

}  // namespace
}  // namespace ecodb::storage
