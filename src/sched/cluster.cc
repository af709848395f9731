#include "sched/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ecodb::sched {

Cluster::Cluster(int nodes, ClusterNodeSpec spec)
    : nodes_(nodes), spec_(spec) {
  assert(nodes_ >= 1);
  assert(spec_.capacity > 0);
}

int Cluster::ActiveNodesFor(double offered_load,
                            DispatchPolicy policy) const {
  if (policy == DispatchPolicy::kSpread) return nodes_;
  const double clamped =
      std::clamp(offered_load, 0.0, TotalCapacity());
  // Packing keeps at least one node awake to take arrivals.
  return std::max(
      1, static_cast<int>(std::ceil(clamped / spec_.capacity - 1e-12)));
}

double Cluster::PowerAt(double offered_load, DispatchPolicy policy) const {
  const double clamped = std::clamp(offered_load, 0.0, TotalCapacity());
  const int active = ActiveNodesFor(clamped, policy);
  const double util_per_active =
      std::min(1.0, clamped / (static_cast<double>(active) * spec_.capacity));
  const double active_watts =
      spec_.idle_watts +
      (spec_.peak_watts - spec_.idle_watts) * util_per_active;
  const int sleeping = nodes_ - active;
  return static_cast<double>(active) * active_watts +
         static_cast<double>(sleeping) * spec_.sleep_watts;
}

power::PowerCurve Cluster::CurveFor(DispatchPolicy policy,
                                    int samples) const {
  return power::PowerCurve::Sample(
      [this, policy](double u) {
        return PowerAt(u * TotalCapacity(), policy);
      },
      samples);
}

Cluster::TraceResult Cluster::SimulateTrace(
    const std::vector<double>& offered_loads, double step_seconds,
    DispatchPolicy policy) const {
  TraceResult result;
  int active = policy == DispatchPolicy::kSpread ? nodes_ : 1;
  double active_node_steps = 0.0;
  for (double load : offered_loads) {
    const int wanted = ActiveNodesFor(load, policy);
    if (wanted > active) {
      result.wake_events += wanted - active;
      result.joules += spec_.wake_joules * (wanted - active);
      active = wanted;
    } else if (wanted < active - 1) {
      // One step of hysteresis: shrink by at most the excess minus one,
      // keeping a warm spare against the next tick's growth.
      active = wanted + 1;
    }
    const double util = std::min(
        1.0, load / (static_cast<double>(active) * spec_.capacity));
    const double watts =
        static_cast<double>(active) *
            (spec_.idle_watts +
             (spec_.peak_watts - spec_.idle_watts) * util) +
        static_cast<double>(nodes_ - active) * spec_.sleep_watts;
    result.joules += watts * step_seconds;
    active_node_steps += active;
  }
  if (!offered_loads.empty()) {
    result.avg_active_nodes =
        active_node_steps / static_cast<double>(offered_loads.size());
  }
  return result;
}

}  // namespace ecodb::sched
