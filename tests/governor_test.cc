// Tests for the DVFS governor and database/hardware coordination hooks.

#include <gtest/gtest.h>

#include "power/governor.h"

namespace ecodb::power {
namespace {

CpuSpec ThreeStateCpu() {
  CpuSpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 4;
  spec.pstates = {{"P0", 3.0, 20.0}, {"P1", 2.0, 10.0}, {"P2", 1.0, 4.0}};
  spec.socket_idle_watts = 5.0;
  return spec;
}

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest() : cpu_(ThreeStateCpu()) {}
  CpuPowerModel cpu_;
};

TEST_F(GovernorTest, HighUtilizationJumpsToFastest) {
  DvfsGovernor gov(&cpu_);
  for (int i = 0; i < 4; ++i) gov.Observe(0.1);  // down to P2
  ASSERT_EQ(gov.pstate(), 2);
  EXPECT_EQ(gov.Observe(0.95), 0);
  EXPECT_EQ(gov.transitions(), 3);
}

TEST_F(GovernorTest, LowUtilizationDownshiftsWithHysteresis) {
  DvfsGovernor gov(&cpu_);  // starts at P0, needs 2 low samples
  EXPECT_EQ(gov.Observe(0.1), 0);  // first low sample: hold
  EXPECT_EQ(gov.Observe(0.1), 1);  // second: downshift
  EXPECT_EQ(gov.Observe(0.1), 1);  // streak reset after shift
  EXPECT_EQ(gov.Observe(0.1), 2);
  EXPECT_EQ(gov.Observe(0.1), 2);  // floor: no state below P2
  EXPECT_EQ(gov.Observe(0.1), 2);
}

TEST_F(GovernorTest, MidRangeUtilizationHolds) {
  DvfsGovernor gov(&cpu_);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gov.Observe(0.5), 0);
  }
  EXPECT_EQ(gov.transitions(), 0);
}

TEST_F(GovernorTest, MidRangeSampleResetsDownStreak) {
  DvfsGovernor gov(&cpu_);
  gov.Observe(0.1);  // streak 1
  gov.Observe(0.5);  // reset
  EXPECT_EQ(gov.Observe(0.1), 0);  // streak 1 again: still P0
  EXPECT_EQ(gov.Observe(0.1), 1);
}

TEST_F(GovernorTest, PinOverridesObservations) {
  DvfsGovernor gov(&cpu_);
  gov.Pin(2);
  EXPECT_TRUE(gov.pinned());
  EXPECT_EQ(gov.Observe(1.0), 2);  // even at full load
  EXPECT_EQ(gov.Observe(0.0), 2);
  EXPECT_EQ(gov.pstate(), 2);
}

TEST_F(GovernorTest, UnpinResumesFromPinnedState) {
  DvfsGovernor gov(&cpu_);
  gov.Pin(1);
  gov.Unpin();
  EXPECT_FALSE(gov.pinned());
  EXPECT_EQ(gov.pstate(), 1);
  EXPECT_EQ(gov.Observe(0.95), 0);  // governor resumes control
}

TEST_F(GovernorTest, UtilizationClamped) {
  DvfsGovernor gov(&cpu_);
  EXPECT_EQ(gov.Observe(12.0), 0);  // > 1 clamps to 1: stays fast
  gov.Observe(-5.0);
  EXPECT_EQ(gov.Observe(-5.0), 1);  // < 0 clamps to 0: downshifts
}

TEST_F(GovernorTest, CrossPurposesScenario) {
  // The Section 5.3 / [RRT+08] failure mode in miniature: a query plan is
  // costed at P0, but the preceding I/O phase looked idle to the governor,
  // which downshifted. The first compute interval then runs at the slow
  // state, only recovering after the governor re-observes.
  DvfsGovernor gov(&cpu_);
  gov.Observe(0.05);  // I/O-bound phase, sample 1
  gov.Observe(0.05);  // sample 2 -> P1
  gov.Observe(0.05);
  gov.Observe(0.05);  // -> P2
  EXPECT_EQ(gov.pstate(), 2);
  // CPU burst begins; the damage is one slow interval.
  const int during_burst_first_interval = gov.pstate();
  gov.Observe(1.0);
  EXPECT_EQ(during_burst_first_interval, 2);
  EXPECT_EQ(gov.pstate(), 0);

  // Coordinated: the database pins its costed state before the burst.
  DvfsGovernor coordinated(&cpu_);
  coordinated.Observe(0.05);
  coordinated.Observe(0.05);
  coordinated.Pin(0);
  EXPECT_EQ(coordinated.pstate(), 0);
}

}  // namespace
}  // namespace ecodb::power
