// Cluster-level consolidation: energy proportionality from inelastic nodes.
//
// Section 2.4 of the paper: individual servers are far from energy
// proportional, but "recent work has considered using virtual machine
// migration and turning off servers to effect energy-proportionality
// [TWM+08]". This model captures the mechanism: a pool of identical,
// individually-inelastic nodes served under two dispatch policies —
//
//   kSpread — load-balance across every node (all stay powered), or
//   kPack   — consolidate onto the fewest nodes that fit the load and put
//             the rest to sleep, waking them as load grows.
//
// Packing makes the *cluster's* power curve nearly proportional even though
// each node's is flat; the price is wake-up latency and migration churn,
// which the trace simulation counts.

#ifndef ECODB_SCHED_CLUSTER_H_
#define ECODB_SCHED_CLUSTER_H_

#include <vector>

#include "power/proportionality.h"
#include "util/status.h"

namespace ecodb::sched {

struct ClusterNodeSpec {
  double idle_watts = 200.0;
  double peak_watts = 300.0;
  double sleep_watts = 10.0;
  /// Work units the node serves at full utilization.
  double capacity = 100.0;
  /// Extra Joules burned per wake transition.
  double wake_joules = 5000.0;
};

enum class DispatchPolicy { kSpread, kPack };

class Cluster {
 public:
  Cluster(int nodes, ClusterNodeSpec spec);

  int nodes() const { return nodes_; }
  const ClusterNodeSpec& spec() const { return spec_; }
  double TotalCapacity() const { return spec_.capacity * nodes_; }

  /// Active (awake) nodes the policy uses at `offered_load` work units.
  int ActiveNodesFor(double offered_load, DispatchPolicy policy) const;

  /// Steady-state cluster power at `offered_load` under `policy`.
  double PowerAt(double offered_load, DispatchPolicy policy) const;

  /// Samples the cluster's power curve over utilization in [0, 1].
  power::PowerCurve CurveFor(DispatchPolicy policy, int samples = 50) const;

  /// Replays a load trace (one sample per `step_seconds`), with one step of
  /// hysteresis on shrink to avoid thrashing. Returns total energy and the
  /// number of node wake transitions.
  struct TraceResult {
    double joules = 0.0;
    int wake_events = 0;
    double avg_active_nodes = 0.0;
  };
  TraceResult SimulateTrace(const std::vector<double>& offered_loads,
                            double step_seconds,
                            DispatchPolicy policy) const;

 private:
  int nodes_;
  ClusterNodeSpec spec_;
};

}  // namespace ecodb::sched

#endif  // ECODB_SCHED_CLUSTER_H_
