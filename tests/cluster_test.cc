// Tests for the cluster-consolidation model.

#include <gtest/gtest.h>

#include "sched/cluster.h"
#include "util/random.h"

namespace ecodb::sched {
namespace {

ClusterNodeSpec InelasticNode() {
  ClusterNodeSpec spec;
  spec.idle_watts = 210.0;  // 70% of peak at idle, like [PN08] servers
  spec.peak_watts = 300.0;
  spec.sleep_watts = 10.0;
  spec.capacity = 100.0;
  return spec;
}

TEST(Cluster, ActiveNodesSpreadUsesAll) {
  Cluster cluster(10, InelasticNode());
  EXPECT_EQ(cluster.ActiveNodesFor(0.0, DispatchPolicy::kSpread), 10);
  EXPECT_EQ(cluster.ActiveNodesFor(500.0, DispatchPolicy::kSpread), 10);
}

TEST(Cluster, ActiveNodesPackUsesCeiling) {
  Cluster cluster(10, InelasticNode());
  EXPECT_EQ(cluster.ActiveNodesFor(0.0, DispatchPolicy::kPack), 1);
  EXPECT_EQ(cluster.ActiveNodesFor(99.0, DispatchPolicy::kPack), 1);
  EXPECT_EQ(cluster.ActiveNodesFor(101.0, DispatchPolicy::kPack), 2);
  EXPECT_EQ(cluster.ActiveNodesFor(1000.0, DispatchPolicy::kPack), 10);
  EXPECT_EQ(cluster.ActiveNodesFor(5000.0, DispatchPolicy::kPack), 10);
}

TEST(Cluster, PowerAtFullLoadEqualForBothPolicies) {
  Cluster cluster(10, InelasticNode());
  EXPECT_NEAR(cluster.PowerAt(1000.0, DispatchPolicy::kSpread),
              cluster.PowerAt(1000.0, DispatchPolicy::kPack), 1e-9);
  EXPECT_NEAR(cluster.PowerAt(1000.0, DispatchPolicy::kPack), 3000.0, 1e-9);
}

TEST(Cluster, PackingSavesAtLowLoad) {
  Cluster cluster(10, InelasticNode());
  const double load = 150.0;  // 15% of cluster capacity
  const double spread = cluster.PowerAt(load, DispatchPolicy::kSpread);
  const double pack = cluster.PowerAt(load, DispatchPolicy::kPack);
  // Spread: 10 nodes barely loaded but idling at 210 W each (~2235 W).
  // Pack: 2 busy nodes + 8 sleeping (~680 W).
  EXPECT_GT(spread, 2000.0);
  EXPECT_LT(pack, 800.0);
}

TEST(Cluster, PackingMakesTheClusterNearlyProportional) {
  Cluster cluster(16, InelasticNode());
  const auto spread_report =
      power::AnalyzeCurve(cluster.CurveFor(DispatchPolicy::kSpread, 100));
  const auto pack_report =
      power::AnalyzeCurve(cluster.CurveFor(DispatchPolicy::kPack, 100));
  EXPECT_LT(spread_report.proportionality_index, 0.45);
  EXPECT_GT(pack_report.proportionality_index, 0.85);
  EXPECT_GT(pack_report.dynamic_range,
            spread_report.dynamic_range * 2.0);
}

TEST(Cluster, TraceSavesEnergyAndCountsWakes) {
  Cluster cluster(8, InelasticNode());
  // Diurnal-ish load: quiet, busy, quiet.
  std::vector<double> loads;
  for (int i = 0; i < 100; ++i) loads.push_back(60.0);
  for (int i = 0; i < 100; ++i) loads.push_back(600.0);
  for (int i = 0; i < 100; ++i) loads.push_back(60.0);

  const auto spread =
      cluster.SimulateTrace(loads, 60.0, DispatchPolicy::kSpread);
  const auto pack = cluster.SimulateTrace(loads, 60.0, DispatchPolicy::kPack);
  EXPECT_LT(pack.joules, spread.joules * 0.6);
  EXPECT_GT(pack.wake_events, 0);
  EXPECT_EQ(spread.wake_events, 0);
  EXPECT_LT(pack.avg_active_nodes, 5.0);
  EXPECT_NEAR(spread.avg_active_nodes, 8.0, 1e-9);
}

TEST(Cluster, HysteresisKeepsAWarmSpare) {
  Cluster cluster(8, InelasticNode());
  // Load oscillating across a node boundary must not wake on every tick.
  std::vector<double> loads;
  for (int i = 0; i < 50; ++i) {
    loads.push_back(i % 2 ? 95.0 : 105.0);
  }
  const auto pack = cluster.SimulateTrace(loads, 60.0, DispatchPolicy::kPack);
  EXPECT_LE(pack.wake_events, 2);
}

TEST(Cluster, OverloadClampsToCapacity) {
  Cluster cluster(4, InelasticNode());
  EXPECT_NEAR(cluster.PowerAt(1e9, DispatchPolicy::kPack),
              4 * 300.0, 1e-9);
}

}  // namespace
}  // namespace ecodb::sched
