// Tests for deterministic fault injection: the injector's seeded replay,
// retry/backoff with energy-charged attempts, permanent device death,
// RAID-5 degraded reads/writes priced against the healthy baseline,
// rebuild onto a spare, WAL torn-tail recovery, and the §7 determinism
// contract (same seed + same FaultPlan => byte-identical rows and
// bit-identical charges at every dop).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/ecodb.h"
#include "exec/exec_context.h"
#include "exec/scan.h"
#include "naive_reference.h"
#include "power/energy_meter.h"
#include "power/platform.h"
#include "sim/clock.h"
#include "storage/disk_array.h"
#include "storage/fault_injector.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "txn/recovery.h"
#include "txn/wal.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using storage::ArraySpec;
using storage::DeviceFaultSpec;
using storage::DiskArray;
using storage::FaultInjectedDevice;
using storage::FaultInjector;
using storage::FaultPlan;
using storage::HddDevice;
using storage::IoResult;
using storage::RaidLevel;
using storage::RebuildConfig;
using storage::RebuildScheduler;
using storage::SsdDevice;
using storage::StorageDevice;

power::HddSpec TestHdd() {
  power::HddSpec spec;
  spec.sustained_bw_bytes_per_s = 100e6;
  spec.avg_seek_s = 0.004;
  spec.rotational_latency_s = 0.002;
  spec.active_watts = 17.0;
  spec.idle_watts = 12.0;
  spec.standby_watts = 2.0;
  return spec;
}

// --- FaultInjector: seeded, stateless decisions ------------------------------

FaultPlan RatePlan(uint64_t seed, double rate) {
  FaultPlan plan;
  plan.seed = seed;
  DeviceFaultSpec spec;
  spec.device = "d0";
  spec.transient_error_rate = rate;
  plan.devices.push_back(spec);
  return plan;
}

TEST(FaultInjector, SameSeedReplaysIdenticalDecisions) {
  FaultInjector a(RatePlan(42, 0.3));
  FaultInjector b(RatePlan(42, 0.3));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.NextIo("d0", 0.0), b.NextIo("d0", 0.0)) << "io " << i;
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(RatePlan(42, 0.3));
  FaultInjector b(RatePlan(43, 0.3));
  int differing = 0, faults_a = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto da = a.NextIo("d0", 0.0);
    const auto db = b.NextIo("d0", 0.0);
    differing += da != db;
    faults_a += da == FaultInjector::Decision::kTransient;
  }
  EXPECT_GT(differing, 0);
  // The rate is honoured to first order (0.3 +/- a wide tolerance).
  EXPECT_GT(faults_a, 2000 * 0.15);
  EXPECT_LT(faults_a, 2000 * 0.45);
}

TEST(FaultInjector, ExplicitTransientIndexesFire) {
  FaultPlan plan;
  plan.seed = 1;
  DeviceFaultSpec spec;
  spec.device = "d0";
  spec.transient_ios = {2, 5};
  plan.devices.push_back(spec);
  FaultInjector inj(plan);
  for (uint64_t i = 0; i < 8; ++i) {
    const auto d = inj.NextIo("d0", 0.0);
    if (i == 2 || i == 5) {
      EXPECT_EQ(d, FaultInjector::Decision::kTransient) << "io " << i;
    } else {
      EXPECT_EQ(d, FaultInjector::Decision::kOk) << "io " << i;
    }
  }
  EXPECT_EQ(inj.io_count("d0"), 8u);
}

TEST(FaultInjector, PermanentFailureIsStickyByIoCountAndTime) {
  FaultPlan plan;
  plan.seed = 1;
  DeviceFaultSpec by_count;
  by_count.device = "a";
  by_count.fail_after_ios = 3;
  plan.devices.push_back(by_count);
  DeviceFaultSpec by_time;
  by_time.device = "b";
  by_time.fail_at_time = 100.0;
  plan.devices.push_back(by_time);
  FaultInjector inj(plan);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(inj.NextIo("a", 0.0), FaultInjector::Decision::kOk);
  }
  EXPECT_EQ(inj.NextIo("a", 0.0), FaultInjector::Decision::kPermanent);
  EXPECT_EQ(inj.NextIo("a", 0.0), FaultInjector::Decision::kPermanent);
  EXPECT_TRUE(inj.IsFailed("a"));

  EXPECT_EQ(inj.NextIo("b", 99.0), FaultInjector::Decision::kOk);
  EXPECT_EQ(inj.NextIo("b", 100.0), FaultInjector::Decision::kPermanent);
  EXPECT_EQ(inj.NextIo("b", 0.0), FaultInjector::Decision::kPermanent);

  // Devices outside the plan never fault.
  EXPECT_EQ(inj.NextIo("unlisted", 1e9), FaultInjector::Decision::kOk);
}

// --- FaultInjectedDevice: retries charged, death kills the draw --------------

class FaultDeviceTest : public ::testing::Test {
 protected:
  FaultDeviceTest() : meter_(&clock_) {}

  std::unique_ptr<FaultInjectedDevice> Wrap(FaultPlan plan) {
    injector_ = std::make_unique<FaultInjector>(std::move(plan));
    return std::make_unique<FaultInjectedDevice>(
        std::make_unique<HddDevice>("d0", TestHdd(), &meter_),
        injector_.get(), &meter_);
  }

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  std::unique_ptr<FaultInjector> injector_;
};

TEST_F(FaultDeviceTest, TransientErrorRetriesAndCharges) {
  FaultPlan plan;
  plan.seed = 7;
  DeviceFaultSpec spec;
  spec.device = "d0";
  spec.transient_ios = {0};  // first attempt fails, retry succeeds
  plan.devices.push_back(spec);
  auto faulty = Wrap(plan);

  // Clean reference device on its own meter.
  sim::SimClock ref_clock;
  power::EnergyMeter ref_meter(&ref_clock);
  HddDevice clean("d0", TestHdd(), &ref_meter);

  const IoResult r = faulty->SubmitRead(0.0, 64 << 20, true).value();
  const IoResult c = clean.SubmitRead(0.0, 64 << 20, true).value();

  EXPECT_EQ(r.transient_errors, 1u);
  EXPECT_GT(r.retry_seconds, 0.0);
  EXPECT_GT(r.retry_joules, 0.0);
  // The failed attempt plus backoff pushes completion past the clean run.
  EXPECT_GT(r.completion_time, c.completion_time);
  // And the wasted attempt's busy time is really on the meter.
  clock_.AdvanceTo(r.completion_time);
  ref_clock.AdvanceTo(r.completion_time);
  EXPECT_GT(meter_.ChannelJoules(faulty->channel()),
            ref_meter.ChannelJoules(clean.channel()));
}

TEST_F(FaultDeviceTest, ExhaustedRetriesReturnUnavailable) {
  FaultPlan plan;
  plan.seed = 7;
  plan.retry.max_attempts = 3;
  DeviceFaultSpec spec;
  spec.device = "d0";
  spec.transient_ios = {0, 1, 2};  // every allowed attempt fails
  plan.devices.push_back(spec);
  auto faulty = Wrap(plan);

  const auto result = faulty->SubmitRead(0.0, 1 << 20, true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // The device survives: the next request (attempt index 3) succeeds.
  EXPECT_TRUE(faulty->SubmitRead(0.0, 1 << 20, true).ok());
}

TEST_F(FaultDeviceTest, BackoffGrowsExponentially) {
  FaultPlan plan;
  plan.seed = 7;
  plan.retry.max_attempts = 4;
  plan.retry.initial_backoff_s = 0.5;
  plan.retry.backoff_multiplier = 2.0;
  DeviceFaultSpec spec;
  spec.device = "d0";
  spec.transient_ios = {0, 1, 2};
  plan.devices.push_back(spec);
  auto faulty = Wrap(plan);

  const IoResult r = faulty->SubmitRead(0.0, 1 << 20, true).value();
  EXPECT_EQ(r.transient_errors, 3u);
  // Backoffs 0.5 + 1.0 + 2.0 = 3.5 s are part of the retry seconds.
  EXPECT_GT(r.retry_seconds, 3.5);
  EXPECT_GT(r.completion_time, 3.5);
}

TEST_F(FaultDeviceTest, PermanentDeathReturnsDataLossAndStopsTheDraw) {
  FaultPlan plan;
  plan.seed = 7;
  DeviceFaultSpec spec;
  spec.device = "d0";
  spec.fail_after_ios = 1;
  plan.devices.push_back(spec);
  auto faulty = Wrap(plan);

  ASSERT_TRUE(faulty->SubmitRead(0.0, 1 << 20, true).ok());
  const auto dead = faulty->SubmitRead(0.0, 1 << 20, true);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(faulty->is_dead());
  // Sticky: later requests fail the same way without touching the injector.
  EXPECT_EQ(faulty->SubmitRead(0.0, 1, true).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(faulty->StandbySavingsWatts(), 0.0);

  // A dead drive draws nothing: energy stops accruing after death.
  clock_.AdvanceTo(faulty->inner()->busy_until());
  const double at_death = meter_.ChannelJoules(faulty->channel());
  clock_.AdvanceTo(clock_.now() + 1000.0);
  EXPECT_NEAR(meter_.ChannelJoules(faulty->channel()), at_death, 1e-9);
}

TEST_F(FaultDeviceTest, SameSeedReplaysBitIdenticalResults) {
  FaultPlan plan;
  plan.seed = 99;
  DeviceFaultSpec spec;
  spec.device = "d0";
  spec.transient_error_rate = 0.25;
  plan.devices.push_back(spec);

  auto run = [&](FaultPlan p) {
    sim::SimClock clock;
    power::EnergyMeter meter(&clock);
    FaultInjector injector(std::move(p));
    FaultInjectedDevice dev(
        std::make_unique<HddDevice>("d0", TestHdd(), &meter), &injector,
        &meter);
    std::vector<IoResult> results;
    for (int i = 0; i < 50; ++i) {
      auto r = dev.SubmitRead(0.0, 4 << 20, i % 3 != 0);
      if (r.ok()) results.push_back(*r);
    }
    return results;
  };

  const auto a = run(plan);
  const auto b = run(plan);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].completion_time, b[i].completion_time) << i;
    EXPECT_EQ(a[i].transient_errors, b[i].transient_errors) << i;
    EXPECT_EQ(a[i].retry_joules, b[i].retry_joules) << i;
  }
}

// --- DiskArray: validated construction ---------------------------------------

TEST(DiskArrayCreate, Raid5WithTwoMembersRejected) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  std::vector<std::unique_ptr<StorageDevice>> members;
  for (int i = 0; i < 2; ++i) {
    members.push_back(std::make_unique<HddDevice>(
        "d" + std::to_string(i), TestHdd(), &meter));
  }
  ArraySpec spec;
  spec.level = RaidLevel::kRaid5;
  const auto result = DiskArray::Create("tiny", spec, std::move(members));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(">= 3 members"),
            std::string::npos);
}

TEST(DiskArrayCreate, EmptyAndNullMembersRejected) {
  EXPECT_EQ(DiskArray::Create("none", ArraySpec{}, {}).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::unique_ptr<StorageDevice>> with_null;
  with_null.push_back(nullptr);
  ArraySpec spec;
  spec.level = RaidLevel::kRaid0;
  EXPECT_EQ(
      DiskArray::Create("null", spec, std::move(with_null)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DiskArrayCreate, InvalidRaid5SurfacesThroughEcoDbOpen) {
  core::DbConfig config;
  config.hdd_count = 2;  // two drives cannot hold RAID-5 rotated parity
  config.array_spec.level = RaidLevel::kRaid5;
  config.ssd_count = 0;
  const auto db = core::EcoDb::Open(config);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find(">= 3 members"), std::string::npos);
}

// --- DiskArray: degraded mode ------------------------------------------------

struct ArrayRig {
  std::unique_ptr<sim::SimClock> clock;
  std::unique_ptr<power::EnergyMeter> meter;
  std::unique_ptr<DiskArray> array;
};

ArrayRig MakeRig(int disks, RaidLevel level) {
  ArrayRig rig;
  rig.clock = std::make_unique<sim::SimClock>();
  rig.meter = std::make_unique<power::EnergyMeter>(rig.clock.get());
  std::vector<std::unique_ptr<StorageDevice>> members;
  for (int i = 0; i < disks; ++i) {
    members.push_back(std::make_unique<HddDevice>(
        "m" + std::to_string(i), TestHdd(), rig.meter.get()));
  }
  ArraySpec spec;
  spec.level = level;
  spec.stripe_skew_alpha = 0.0;
  spec.per_request_overhead_s = 0.0;
  rig.array =
      DiskArray::Create("arr", spec, std::move(members), rig.meter.get())
          .value();
  return rig;
}

TEST(DiskArrayDegraded, ReadCostsMoreThanHealthyAndMatchesXorModel) {
  const uint64_t bytes = 400 << 20;
  const int n = 4;

  ArrayRig healthy = MakeRig(n, RaidLevel::kRaid5);
  ArrayRig degraded = MakeRig(n, RaidLevel::kRaid5);
  ASSERT_TRUE(degraded.array->FailMember(1, 0.0).ok());
  ASSERT_TRUE(degraded.array->degraded());
  EXPECT_EQ(degraded.array->failed_member(), 1);

  const IoResult h = healthy.array->SubmitRead(0.0, bytes, true).value();
  const IoResult d = degraded.array->SubmitRead(0.0, bytes, true).value();

  // Time: survivors serve double volume, so the degraded read is slower.
  EXPECT_GT(d.service_seconds, h.service_seconds * 1.5);
  EXPECT_EQ(d.degraded_reads, 1u);
  EXPECT_EQ(h.degraded_reads, 0u);

  // Instructions: the controller folds the (n-1) survivor shares.
  const double share = static_cast<double>(bytes) / n;
  const double expected_instr =
      storage::kXorInstructionsPerByte * (n - 1) * share;
  EXPECT_NEAR(d.reconstruct_instructions, expected_instr,
              expected_instr * 1e-6 + 1.0);
  EXPECT_NEAR(d.reconstruct_joules,
              expected_instr * storage::kXorJoulesPerInstruction,
              d.reconstruct_joules * 1e-6 + 1e-12);
  EXPECT_EQ(h.reconstruct_instructions, 0.0);

  // Energy: the XOR channel carries exactly the reconstruction Joules, and
  // the survivors' extra busy time makes the whole read dearer than healthy
  // even though one drive's background draw is gone.
  healthy.clock->AdvanceTo(h.completion_time);
  degraded.clock->AdvanceTo(d.completion_time);
  EXPECT_NEAR(degraded.meter->ChannelJoules(degraded.array->channel()),
              d.reconstruct_joules, d.reconstruct_joules * 1e-9 + 1e-12);
  double healthy_busy = 0.0, degraded_busy = 0.0;
  for (int i = 0; i < n; ++i) {
    healthy_busy +=
        healthy.meter->ChannelBusySeconds(healthy.array->member(i)->channel());
    degraded_busy += degraded.meter->ChannelBusySeconds(
        degraded.array->member(i)->channel());
  }
  // (n-1) survivors x 2x volume > n members x 1x volume for n = 4.
  EXPECT_GT(degraded_busy, healthy_busy * 1.4);
}

TEST(DiskArrayDegraded, WriteSkipsDeadMemberWithoutXor) {
  ArrayRig rig = MakeRig(4, RaidLevel::kRaid5);
  ASSERT_TRUE(rig.array->FailMember(2, 0.0).ok());
  const IoResult w = rig.array->SubmitWrite(0.0, 100 << 20, true).value();
  EXPECT_EQ(w.degraded_reads, 0u);
  EXPECT_EQ(w.reconstruct_instructions, 0.0);
  // The dead member got nothing.
  EXPECT_EQ(rig.array->member(2)->busy_until(), 0.0);
  EXPECT_GT(rig.array->member(0)->busy_until(), 0.0);
}

TEST(DiskArrayDegraded, SecondFailureIsDataLoss) {
  ArrayRig rig = MakeRig(4, RaidLevel::kRaid5);
  ASSERT_TRUE(rig.array->FailMember(0, 0.0).ok());
  ASSERT_TRUE(rig.array->FailMember(3, 0.0).ok());
  EXPECT_EQ(rig.array->SubmitRead(0.0, 1 << 20, true).status().code(),
            StatusCode::kDataLoss);
}

TEST(DiskArrayDegraded, AnyRaid0FailureIsDataLoss) {
  ArrayRig rig = MakeRig(4, RaidLevel::kRaid0);
  ASSERT_TRUE(rig.array->FailMember(1, 0.0).ok());
  EXPECT_EQ(rig.array->SubmitRead(0.0, 1 << 20, true).status().code(),
            StatusCode::kDataLoss);
}

TEST(DiskArrayDegraded, FailMemberValidatesAndIsIdempotent) {
  ArrayRig rig = MakeRig(3, RaidLevel::kRaid5);
  EXPECT_EQ(rig.array->FailMember(7, 0.0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(rig.array->FailMember(1, 0.0).ok());
  ASSERT_TRUE(rig.array->FailMember(1, 0.0).ok());  // no double count
  EXPECT_TRUE(rig.array->SubmitRead(0.0, 1 << 20, true).ok());
}

TEST(DiskArrayDegraded, MidRequestMemberDeathAbsorbedByDegradedRerun) {
  // Members wrapped in fault injection; m1 dies on its first I/O. The
  // array absorbs the loss by re-running the request in degraded mode.
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  FaultPlan plan;
  plan.seed = 3;
  DeviceFaultSpec spec;
  spec.device = "m1";
  spec.fail_after_ios = 0;
  plan.devices.push_back(spec);
  FaultInjector injector(plan);

  std::vector<std::unique_ptr<StorageDevice>> members;
  for (int i = 0; i < 4; ++i) {
    members.push_back(std::make_unique<FaultInjectedDevice>(
        std::make_unique<HddDevice>("m" + std::to_string(i), TestHdd(),
                                    &meter),
        &injector, &meter));
  }
  ArraySpec array_spec;
  array_spec.level = RaidLevel::kRaid5;
  auto array =
      DiskArray::Create("arr", array_spec, std::move(members), &meter)
          .value();

  const IoResult r = array->SubmitRead(0.0, 64 << 20, true).value();
  EXPECT_TRUE(array->degraded());
  EXPECT_EQ(array->failed_member(), 1);
  EXPECT_EQ(r.degraded_reads, 1u);
  EXPECT_GT(r.reconstruct_instructions, 0.0);
}

// --- Rebuild -----------------------------------------------------------------

TEST(Rebuild, RestoresHealthAndChargesEnergy) {
  ArrayRig rig = MakeRig(4, RaidLevel::kRaid5);
  ASSERT_TRUE(rig.array->FailMember(1, 0.0).ok());

  RebuildConfig config;
  config.total_bytes = 64ull << 20;
  config.chunk_bytes = 16ull << 20;
  auto spare =
      std::make_unique<HddDevice>("spare", TestHdd(), rig.meter.get());
  RebuildScheduler scheduler(rig.array.get());
  const auto report = scheduler.Run(std::move(spare), 0.0, config).value();

  EXPECT_EQ(report.bytes_rebuilt, 64ull << 20);
  EXPECT_EQ(report.chunks, 4u);
  EXPECT_GT(report.end_time, report.start_time);
  EXPECT_GT(report.xor_instructions, 0.0);
  EXPECT_GT(report.xor_joules, 0.0);
  // The array is healthy again and serves reads without reconstruction.
  EXPECT_FALSE(rig.array->degraded());
  const IoResult r = rig.array->SubmitRead(rig.array->busy_until(), 4 << 20,
                                           true)
                         .value();
  EXPECT_EQ(r.degraded_reads, 0u);
  // The rebuild's XOR work landed on the array channel.
  rig.clock->AdvanceTo(rig.array->busy_until());
  EXPECT_NEAR(rig.meter->ChannelJoules(rig.array->channel()),
              report.xor_joules, report.xor_joules * 1e-9 + 1e-12);
}

TEST(Rebuild, ThrottledRebuildTakesLonger) {
  auto run = [](double rate) {
    ArrayRig rig = MakeRig(4, RaidLevel::kRaid5);
    EXPECT_TRUE(rig.array->FailMember(0, 0.0).ok());
    RebuildConfig config;
    config.total_bytes = 256ull << 20;
    config.chunk_bytes = 16ull << 20;
    config.rate_bytes_per_s = rate;
    auto spare =
        std::make_unique<HddDevice>("spare", TestHdd(), rig.meter.get());
    RebuildScheduler scheduler(rig.array.get());
    return scheduler.Run(std::move(spare), 0.0, config).value().end_time;
  };
  const double unthrottled = run(0.0);
  const double throttled = run(8e6);  // 8 MB/s of reconstructed data
  EXPECT_GT(throttled, unthrottled * 2.0);
  // The rate actually paces the rebuild: 256 MiB at 8 MB/s ~ 33.6 s.
  EXPECT_GT(throttled, 256.0 * (1 << 20) / 8e6 * 0.9);
}

TEST(Rebuild, HealthyArrayRefusesRebuild) {
  ArrayRig rig = MakeRig(4, RaidLevel::kRaid5);
  RebuildConfig config;
  config.total_bytes = 1 << 20;
  RebuildScheduler scheduler(rig.array.get());
  auto spare =
      std::make_unique<HddDevice>("spare", TestHdd(), rig.meter.get());
  EXPECT_EQ(scheduler.Run(std::move(spare), 0.0, config).status().code(),
            StatusCode::kFailedPrecondition);
}

// --- Parity property test ----------------------------------------------------

TEST(ParityProperty, CorruptedMemberBlockRoundTripsThroughReconstruction) {
  // Property: for any block set, corrupting one random member and
  // reconstructing it from the survivors + parity restores the original.
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    const size_t blocks_n = 2 + rng.Uniform(0, 7);   // 2..8 members
    const size_t len = 1 + rng.Uniform(0, 255);      // 1..256 bytes
    std::vector<std::vector<uint8_t>> blocks(blocks_n);
    for (auto& b : blocks) {
      b.resize(len);
      for (auto& byte : b) byte = static_cast<uint8_t>(rng.Next());
    }
    const auto parity = storage::ComputeParity(blocks);
    ASSERT_TRUE(parity.ok());

    const size_t victim = rng.Uniform(0, static_cast<int>(blocks_n) - 1);
    const std::vector<uint8_t> original = blocks[victim];
    // Corrupt the victim arbitrarily — reconstruction must not read it.
    for (auto& byte : blocks[victim]) byte = static_cast<uint8_t>(rng.Next());

    const auto rebuilt = storage::ReconstructBlock(blocks, victim, *parity);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*rebuilt, original) << "round " << round;
  }
}

// --- WAL torn tail -----------------------------------------------------------

class WalTearTest : public ::testing::Test {
 protected:
  WalTearTest() : meter_(&clock_), device_("log", power::SsdSpec{}, &meter_) {}

  txn::LogRecord Insert(txn::TxnId t, uint16_t slot, const std::string& v) {
    txn::LogRecord rec;
    rec.txn_id = t;
    rec.type = txn::LogRecordType::kInsert;
    rec.page = {1, 0};
    rec.slot = slot;
    rec.after.assign(v.begin(), v.end());
    return rec;
  }

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  SsdDevice device_;
};

TEST_F(WalTearTest, TornFlushFreezesLogAndRecoveryReplaysDurablePrefix) {
  FaultPlan plan;
  plan.wal.tear_at_flush = 1;  // the second flush tears
  plan.wal.keep_fraction = 0.5;
  FaultInjector injector(plan);
  ASSERT_TRUE(plan.active());

  txn::WalConfig config;
  config.group_commit_size = 1;
  txn::WalManager wal(config, &clock_, &device_, &injector);

  // Flush 0: txn 1 commits cleanly.
  wal.Append(Insert(1, 0, "first"));
  ASSERT_TRUE(wal.Commit(1).ok());
  const size_t durable_before_tear = wal.durable_bytes().size();

  // Flush 1 tears mid-write: only a prefix lands.
  wal.Append(Insert(2, 1, "second"));
  const auto torn = wal.Commit(2);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(wal.torn());
  EXPECT_GT(wal.durable_bytes().size(), durable_before_tear);

  // The log is frozen until recovery.
  EXPECT_EQ(wal.Commit(3).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal.Flush().status().code(), StatusCode::kFailedPrecondition);

  // Recovery replays the durable prefix: txn 1 is there, txn 2's partial
  // frames are detected as a torn tail and dropped.
  txn::PageStore recovered;
  const auto report = txn::Recover(wal.durable_bytes(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->committed_txns, 1u);
  EXPECT_TRUE(report->torn_tail_detected);
  const storage::Page* page = recovered.Find({1, 0});
  ASSERT_NE(page, nullptr);
  const auto rec = page->Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(std::string(rec->begin(), rec->end()), "first");
}

TEST_F(WalTearTest, CorruptKeptTailStopsAtChecksumFailure) {
  FaultPlan plan;
  plan.wal.tear_at_flush = 0;
  plan.wal.keep_fraction = 1.0;  // all bytes land, but the tail is mangled
  plan.wal.corrupt_kept_tail = true;
  FaultInjector injector(plan);

  txn::WalConfig config;
  config.group_commit_size = 1;
  txn::WalManager wal(config, &clock_, &device_, &injector);

  wal.Append(Insert(1, 0, "keep"));
  EXPECT_EQ(wal.Commit(1).status().code(), StatusCode::kDataLoss);

  // The bit-flipped commit frame fails its checksum; recovery keeps the
  // prefix before it and reports the torn tail instead of erroring.
  txn::PageStore recovered;
  const auto report = txn::Recover(wal.durable_bytes(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->torn_tail_detected);
  EXPECT_EQ(report->committed_txns, 0u);  // commit frame was the casualty
}

TEST_F(WalTearTest, NoInjectorMeansNoTear) {
  txn::WalConfig config;
  config.group_commit_size = 1;
  txn::WalManager wal(config, &clock_, &device_);
  for (txn::TxnId t = 1; t <= 10; ++t) {
    wal.Append(Insert(t, static_cast<uint16_t>(t), "v"));
    ASSERT_TRUE(wal.Commit(t).ok());
  }
  EXPECT_FALSE(wal.torn());
}

// --- Determinism across dop under a fault plan -------------------------------

class FaultedScanRig {
 public:
  explicit FaultedScanRig(uint64_t seed)
      : platform_(power::MakeProportionalPlatform()) {
    FaultPlan plan;
    plan.seed = seed;
    DeviceFaultSpec spec;
    spec.device = "s0";
    spec.transient_ios = {0};  // the scan's first device I/O always retries
    spec.transient_error_rate = 0.2;
    plan.devices.push_back(spec);
    injector_ = std::make_unique<FaultInjector>(plan);
    device_ = std::make_unique<FaultInjectedDevice>(
        std::make_unique<SsdDevice>("s0", power::SsdSpec{},
                                    platform_->meter()),
        injector_.get(), platform_->meter());

    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"qty", DataType::kDouble, 8}});
    table_ = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, device_.get());
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kDouble;
    for (int i = 0; i < 20000; ++i) {
      cols[0].i64.push_back(i);
      cols[1].f64.push_back((i % 37) * 0.25);
    }
    EXPECT_TRUE(table_->Append(cols).ok());
  }

  struct Outcome {
    std::vector<std::vector<exec::Value>> rows;
    exec::QueryStats stats;
  };

  Outcome Run(int dop) {
    exec::ExecOptions options;
    options.dop = dop;
    exec::TableScanOp scan(table_.get(), {}, nullptr, nullptr);
    exec::ExecContext ctx(platform_.get(), options);
    auto result = exec::CollectAll(&scan, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    Outcome out;
    out.stats = ctx.Finish();
    if (!result.ok()) return out;
    out.rows = exec::naive::RowsOf(result->batches);
    return out;
  }

 private:
  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<FaultInjectedDevice> device_;
  std::unique_ptr<storage::TableStorage> table_;
};

TEST(FaultDeterminism, SameSeedSamePlanBitIdenticalAtEveryDop) {
  // The §7 contract under faults: device submission is coordinator-only and
  // deterministically ordered, so the injector's per-device attempt counter
  // replays identically at any dop — rows byte-identical, charges (and the
  // FaultSummary itself) bit-identical.
  FaultedScanRig base_rig(2024);
  const auto base = base_rig.Run(1);
  EXPECT_GT(base.stats.faults.transient_errors, 0u);
  EXPECT_GT(base.stats.faults.retry_joules, 0.0);

  for (int dop : {2, 4, 8}) {
    FaultedScanRig rig(2024);
    const auto got = rig.Run(dop);
    EXPECT_EQ(got.rows, base.rows) << "dop=" << dop;
    EXPECT_EQ(got.stats.io_bytes, base.stats.io_bytes) << "dop=" << dop;
    EXPECT_EQ(got.stats.faults.transient_errors,
              base.stats.faults.transient_errors)
        << "dop=" << dop;
    EXPECT_EQ(got.stats.faults.retry_seconds, base.stats.faults.retry_seconds)
        << "dop=" << dop;
    EXPECT_EQ(got.stats.faults.retry_joules, base.stats.faults.retry_joules)
        << "dop=" << dop;
    EXPECT_DOUBLE_EQ(got.stats.cpu_instructions, base.stats.cpu_instructions)
        << "dop=" << dop;
  }

}

// --- EcoDb end to end --------------------------------------------------------

core::DbConfig FaultySsdConfig(uint64_t seed) {
  core::DbConfig config;
  config.preset = core::PlatformPreset::kProportional;
  config.ssd_count = 1;
  config.fault_plan.seed = seed;
  DeviceFaultSpec spec;
  spec.device = "ssd0";
  spec.transient_ios = {0};  // the first table read always retries once
  spec.transient_error_rate = 0.3;
  config.fault_plan.devices.push_back(spec);
  return config;
}

TEST(EcoDbFaults, RetryJoulesVisibleInQueryStats) {
  auto db = core::EcoDb::Open(FaultySsdConfig(11)).value();
  Schema schema({Column{"id", DataType::kInt64, 8}});
  ASSERT_TRUE(db->CreateTable("t", schema).ok());
  std::vector<storage::ColumnData> cols(1);
  cols[0].type = DataType::kInt64;
  for (int i = 0; i < 50000; ++i) cols[0].i64.push_back(i);
  ASSERT_TRUE(db->Load("t", cols).ok());
  ASSERT_NE(db->fault_injector(), nullptr);

  optimizer::QuerySpec spec;
  spec.left.name = "t";
  spec.left.variants = {db->table("t").value()};
  const auto outcome =
      db->Execute(spec, optimizer::Objective::Performance());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows.TotalRows(), 50000u);
  EXPECT_GT(outcome->stats.faults.transient_errors, 0u);
  EXPECT_GT(outcome->stats.faults.retry_joules, 0.0);
  EXPECT_GT(outcome->stats.faults.retry_seconds, 0.0);
}

TEST(EcoDbFaults, DeadPrimaryDeviceSurfacesDataLoss) {
  core::DbConfig config;
  config.ssd_count = 1;
  config.fault_plan.seed = 5;
  DeviceFaultSpec spec;
  spec.device = "ssd0";
  spec.fail_after_ios = 0;  // dies on its very first I/O
  config.fault_plan.devices.push_back(spec);

  auto db = core::EcoDb::Open(config).value();
  Schema schema({Column{"id", DataType::kInt64, 8}});
  ASSERT_TRUE(db->CreateTable("t", schema).ok());
  std::vector<storage::ColumnData> cols(1);
  cols[0].type = DataType::kInt64;
  for (int i = 0; i < 1000; ++i) cols[0].i64.push_back(i);
  ASSERT_TRUE(db->Load("t", cols).ok());

  optimizer::QuerySpec spec_q;
  spec_q.left.name = "t";
  spec_q.left.variants = {db->table("t").value()};
  const auto outcome =
      db->Execute(spec_q, optimizer::Objective::Performance());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDataLoss);
}

TEST(EcoDbFaults, InactivePlanAddsNoInjector) {
  core::DbConfig config;
  config.ssd_count = 1;
  auto db = core::EcoDb::Open(config).value();
  EXPECT_EQ(db->fault_injector(), nullptr);
}

TEST(EcoDbFaults, RaidArrayAccessorExposesDegradedControl) {
  core::DbConfig config;
  config.preset = core::PlatformPreset::kDl785;
  config.hdd_count = 4;
  config.ssd_count = 0;
  auto db = core::EcoDb::Open(config).value();
  ASSERT_NE(db->raid_array(), nullptr);
  EXPECT_FALSE(db->raid_array()->degraded());
  ASSERT_TRUE(db->raid_array()->FailMember(0, 0.0).ok());
  EXPECT_TRUE(db->raid_array()->degraded());
}

}  // namespace
}  // namespace ecodb
