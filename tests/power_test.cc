// Tests for the power substrate: meter, CPU/device models, platform,
// proportionality metrics. The meter's conservation properties (energy =
// integral of power over time, exactly) anchor everything the benches report.

#include <cmath>

#include <gtest/gtest.h>

#include "power/cpu_power.h"
#include "power/device_power.h"
#include "power/energy_meter.h"
#include "power/platform.h"
#include "power/proportionality.h"
#include "sim/clock.h"

namespace ecodb::power {
namespace {

// --- EnergyMeter ------------------------------------------------------------

TEST(EnergyMeter, ConstantPowerIntegrates) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  const ChannelId ch = meter.RegisterChannel("dev", 10.0);
  clock.Advance(5.0);
  EXPECT_DOUBLE_EQ(meter.ChannelJoules(ch), 50.0);
}

TEST(EnergyMeter, PowerChangeSplitsIntegral) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  const ChannelId ch = meter.RegisterChannel("dev", 10.0);
  clock.Advance(2.0);
  meter.SetPower(ch, 4.0);  // 20 J accrued at 10 W
  clock.Advance(3.0);       // + 12 J at 4 W
  EXPECT_DOUBLE_EQ(meter.ChannelJoules(ch), 32.0);
  EXPECT_DOUBLE_EQ(meter.ChannelWatts(ch), 4.0);
}

TEST(EnergyMeter, PulsesAddOnTopOfBackground) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  const ChannelId ch = meter.RegisterChannel("dev", 2.0);
  clock.Advance(1.0);
  meter.AddEnergy(ch, 7.0, 0.5);
  clock.Advance(1.0);
  EXPECT_DOUBLE_EQ(meter.ChannelJoules(ch), 2.0 + 7.0 + 2.0);
  EXPECT_DOUBLE_EQ(meter.ChannelBusySeconds(ch), 0.5);
}

TEST(EnergyMeter, FutureTimestampedEventsIntegrateBackground) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  const ChannelId ch = meter.RegisterChannel("dev", 3.0);
  // A device completes work at t=4 while the clock is still at 0.
  meter.AddEnergyAt(ch, 4.0, 10.0, 4.0);
  EXPECT_DOUBLE_EQ(meter.ChannelJoules(ch), 3.0 * 4.0 + 10.0);
}

TEST(EnergyMeter, SnapshotDeltaIsolatesWindow) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  const ChannelId a = meter.RegisterChannel("a", 5.0);
  const ChannelId b = meter.RegisterChannel("b", 1.0);
  clock.Advance(1.0);
  const MeterSnapshot s0 = meter.Snapshot();
  clock.Advance(2.0);
  meter.AddEnergy(a, 4.0);
  const MeterSnapshot s1 = meter.Snapshot();
  const MeterSnapshot d = EnergyMeter::Delta(s0, s1);
  EXPECT_DOUBLE_EQ(d.time, 2.0);
  EXPECT_DOUBLE_EQ(d.joules[a.index], 5.0 * 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(d.joules[b.index], 1.0 * 2.0);
}

TEST(EnergyMeter, TotalJoulesSumsChannels) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  meter.RegisterChannel("a", 2.0);
  meter.RegisterChannel("b", 3.0);
  clock.Advance(10.0);
  EXPECT_DOUBLE_EQ(meter.TotalJoules(), 50.0);
}

TEST(EnergyMeter, TotalWattsSumsCurrentLevels) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  const ChannelId a = meter.RegisterChannel("a", 2.0);
  meter.RegisterChannel("b", 3.0);
  EXPECT_DOUBLE_EQ(meter.TotalWatts(), 5.0);
  meter.SetPower(a, 7.0);
  EXPECT_DOUBLE_EQ(meter.TotalWatts(), 10.0);
}

TEST(EnergyMeter, ZeroDurationWindowHasZeroBackgroundEnergy) {
  sim::SimClock clock;
  EnergyMeter meter(&clock);
  const ChannelId ch = meter.RegisterChannel("dev", 100.0);
  const MeterSnapshot s0 = meter.Snapshot();
  meter.AddEnergy(ch, 5.0);
  const MeterSnapshot d = EnergyMeter::Delta(s0, meter.Snapshot());
  EXPECT_DOUBLE_EQ(d.joules[ch.index], 5.0);
}

// --- CpuPowerModel ----------------------------------------------------------

CpuSpec TwoStateCpu() {
  CpuSpec spec;
  spec.sockets = 2;
  spec.cores_per_socket = 4;
  spec.pstates = {{"P0", 2.0, 10.0}, {"P1", 1.0, 4.0}};
  spec.socket_idle_watts = 5.0;
  spec.instructions_per_cycle = 1.0;
  return spec;
}

TEST(CpuPowerModel, PeakIdleSleep) {
  CpuPowerModel cpu(TwoStateCpu());
  EXPECT_EQ(cpu.total_cores(), 8);
  EXPECT_DOUBLE_EQ(cpu.IdleWatts(), 10.0);
  EXPECT_DOUBLE_EQ(cpu.PeakWatts(0), 10.0 + 8 * 10.0);
  EXPECT_DOUBLE_EQ(cpu.PeakWatts(1), 10.0 + 8 * 4.0);
}

TEST(CpuPowerModel, LinearUtilizationCurve) {
  CpuPowerModel cpu(TwoStateCpu());
  EXPECT_DOUBLE_EQ(cpu.WattsAtUtilization(0.0), cpu.IdleWatts());
  EXPECT_DOUBLE_EQ(cpu.WattsAtUtilization(1.0), cpu.PeakWatts());
  EXPECT_DOUBLE_EQ(cpu.WattsAtUtilization(0.5),
                   (cpu.IdleWatts() + cpu.PeakWatts()) / 2.0);
}

TEST(CpuPowerModel, UtilizationClamped) {
  CpuPowerModel cpu(TwoStateCpu());
  EXPECT_DOUBLE_EQ(cpu.WattsAtUtilization(-0.5), cpu.IdleWatts());
  EXPECT_DOUBLE_EQ(cpu.WattsAtUtilization(1.5), cpu.PeakWatts());
}

TEST(CpuPowerModel, SecondsForInstructionsScalesWithFrequency) {
  CpuPowerModel cpu(TwoStateCpu());
  const double t0 = cpu.SecondsForInstructions(2e9, 0);  // 2 GHz
  const double t1 = cpu.SecondsForInstructions(2e9, 1);  // 1 GHz
  EXPECT_DOUBLE_EQ(t0, 1.0);
  EXPECT_DOUBLE_EQ(t1, 2.0);
}

TEST(CpuPowerModel, DvfsEnergyTradeoff) {
  // P1 runs at half speed but 40% of the power: lower energy per
  // instruction, so the "crawl" state wins the race-to-idle decision here.
  CpuPowerModel cpu(TwoStateCpu());
  const double e0 = cpu.ActiveJoulesForInstructions(1e9, 0);
  const double e1 = cpu.ActiveJoulesForInstructions(1e9, 1);
  EXPECT_GT(e0, e1);
  EXPECT_EQ(cpu.MostEfficientPState(), 1);
}

TEST(CpuPowerModel, ValidateAcceptsGoodSpec) {
  EXPECT_TRUE(CpuPowerModel(TwoStateCpu()).Validate().ok());
}

// --- Device specs -----------------------------------------------------------

TEST(HddSpec, BreakEvenExceedsSpinupTime) {
  HddSpec spec;
  EXPECT_GT(spec.BreakEvenIdleSeconds(), spec.spinup_seconds);
}

TEST(HddSpec, BreakEvenMathMatchesDefinition) {
  HddSpec spec;
  const double t = spec.BreakEvenIdleSeconds();
  // idle * t == standby * (t - t_up) + spinup * t_up at break-even.
  const double stay = spec.idle_watts * t;
  const double cycle = spec.standby_watts * (t - spec.spinup_seconds) +
                       spec.spinup_watts * spec.spinup_seconds;
  EXPECT_NEAR(stay, cycle, 1e-9);
}

TEST(HddSpec, NoSavingsMeansInfiniteBreakEven) {
  HddSpec spec;
  spec.standby_watts = spec.idle_watts;
  EXPECT_GT(spec.BreakEvenIdleSeconds(), 1e200);
}

TEST(DeviceSpecs, ValidationCatchesOrderingErrors) {
  HddSpec hdd;
  hdd.standby_watts = hdd.idle_watts + 1.0;
  EXPECT_FALSE(ValidateHddSpec(hdd).ok());

  SsdSpec ssd;
  ssd.idle_watts = ssd.active_watts + 1.0;
  EXPECT_FALSE(ValidateSsdSpec(ssd).ok());
}

TEST(DeviceSpecs, DefaultsValidate) {
  EXPECT_TRUE(ValidateHddSpec(HddSpec{}).ok());
  EXPECT_TRUE(ValidateSsdSpec(SsdSpec{}).ok());
}

TEST(DramSpec, BackgroundWattsScalesWithCapacity) {
  DramSpec dram;
  dram.capacity_bytes = 64.0 * 1024 * 1024 * 1024;
  dram.background_watts_per_gib = 0.65;
  EXPECT_NEAR(dram.BackgroundWatts(), 64 * 0.65, 1e-9);
}

// --- HardwarePlatform -------------------------------------------------------

TEST(HardwarePlatform, IdleBackgroundAccrues) {
  auto platform = MakeProportionalPlatform();
  platform->clock()->Advance(10.0);
  const EnergyBreakdown bd = platform->BreakdownSinceStart();
  const double expected_watts = platform->cpu().IdleWatts() +
                                platform->dram().BackgroundWatts() +
                                platform->chassis().base_watts;
  EXPECT_NEAR(bd.it_joules, expected_watts * 10.0, 1e-6);
  EXPECT_NEAR(bd.AvgItWatts(), expected_watts, 1e-9);
}

TEST(HardwarePlatform, ChargeCpuAddsActiveEnergy) {
  auto platform = MakeFlashScanPlatform();  // idle CPU = 0 W
  platform->ChargeCpuCoresAt(3.2, 3.2);     // 3.2 core-seconds at 90 W
  platform->clock()->AdvanceTo(3.2);
  const EnergyBreakdown bd = platform->BreakdownSinceStart();
  EXPECT_NEAR(bd.entries[platform->cpu_channel().index].joules, 288.0, 1e-6);
}

TEST(HardwarePlatform, TrayPowerFollowsCount) {
  auto platform = MakeDl785Platform();
  platform->SetActiveTraysAt(0.0, 3);
  platform->clock()->Advance(2.0);
  const EnergyBreakdown bd = platform->BreakdownSinceStart();
  const double expect = (platform->chassis().base_watts +
                         3 * platform->chassis().tray_watts) *
                        2.0;
  EXPECT_NEAR(bd.entries[platform->chassis_channel().index].joules, expect,
              1e-6);
}

TEST(HardwarePlatform, WallEnergyGrossesUpPsuAndCooling) {
  auto platform = MakeDl785Platform();
  platform->clock()->Advance(1.0);
  const EnergyBreakdown bd = platform->BreakdownSinceStart();
  EXPECT_NEAR(bd.wall_joules, bd.it_joules / 0.85 * 1.5, 1e-6);
}

TEST(HardwarePlatform, FlashScanPresetMatchesPaperConstants) {
  auto platform = MakeFlashScanPlatform();
  EXPECT_DOUBLE_EQ(platform->cpu().IdleWatts(), 0.0);
  EXPECT_DOUBLE_EQ(platform->cpu().PeakWatts(), 90.0);
  EXPECT_DOUBLE_EQ(platform->WallWatts(100.0), 100.0);  // no PSU/cooling
}

TEST(HardwarePlatform, Dl785HasThirtyTwoCores) {
  auto platform = MakeDl785Platform();
  EXPECT_EQ(platform->cpu().total_cores(), 32);
}

// --- Proportionality --------------------------------------------------------

TEST(Proportionality, IdealLinearCurveScoresOne) {
  const PowerCurve curve =
      PowerCurve::Sample([](double u) { return 100.0 * u; }, 50);
  const ProportionalityReport r = AnalyzeCurve(curve);
  EXPECT_NEAR(r.dynamic_range, 1.0, 1e-9);
  EXPECT_NEAR(r.proportionality_index, 1.0, 1e-9);
}

TEST(Proportionality, FlatCurveScoresZero) {
  const PowerCurve curve =
      PowerCurve::Sample([](double) { return 100.0; }, 50);
  const ProportionalityReport r = AnalyzeCurve(curve);
  EXPECT_NEAR(r.dynamic_range, 0.0, 1e-9);
  EXPECT_NEAR(r.proportionality_index, 0.0, 1e-6);
}

TEST(Proportionality, TypicalServerBetweenExtremes) {
  // 50% idle floor: the inelastic servers of [PN08]/[BH07].
  const PowerCurve curve =
      PowerCurve::Sample([](double u) { return 50.0 + 50.0 * u; }, 50);
  const ProportionalityReport r = AnalyzeCurve(curve);
  EXPECT_NEAR(r.dynamic_range, 0.5, 1e-9);
  EXPECT_GT(r.proportionality_index, 0.2);
  EXPECT_LT(r.proportionality_index, 0.8);
}

TEST(Proportionality, RelativeEePeaksAtFullLoadForInelasticServer) {
  const PowerCurve curve =
      PowerCurve::Sample([](double u) { return 50.0 + 50.0 * u; }, 10);
  const ProportionalityReport r = AnalyzeCurve(curve);
  // EE(u)/EE(1) = u*peak/P(u) is increasing for this curve; max at u=1.
  EXPECT_NEAR(r.relative_ee.back(), 1.0, 1e-9);
  for (size_t i = 1; i < r.relative_ee.size(); ++i) {
    EXPECT_GE(r.relative_ee[i] + 1e-12, r.relative_ee[i - 1]);
  }
}

TEST(Proportionality, ProportionalMachineHasConstantEe) {
  const PowerCurve curve =
      PowerCurve::Sample([](double u) { return 100.0 * u + 1e-9; }, 10);
  const ProportionalityReport r = AnalyzeCurve(curve);
  for (size_t i = 1; i < r.relative_ee.size(); ++i) {
    EXPECT_NEAR(r.relative_ee[i], 1.0, 1e-6);
  }
}

}  // namespace
}  // namespace ecodb::power
