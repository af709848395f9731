#include "power/cpu_power.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ecodb::power {

CpuPowerModel::CpuPowerModel(CpuSpec spec) : spec_(std::move(spec)) {
  assert(Validate().ok());
}

Status CpuPowerModel::Validate() const {
  if (spec_.sockets <= 0 || spec_.cores_per_socket <= 0) {
    return Status::InvalidArgument("CPU must have >= 1 socket and core");
  }
  if (spec_.pstates.empty()) {
    return Status::InvalidArgument("CPU needs at least one P-state");
  }
  for (const PState& p : spec_.pstates) {
    if (p.frequency_ghz <= 0 || p.core_active_watts < 0) {
      return Status::InvalidArgument("P-state '" + p.name +
                                     "' has non-positive frequency or "
                                     "negative power");
    }
  }
  if (spec_.socket_idle_watts < 0) {
    return Status::InvalidArgument("negative idle watts");
  }
  if (spec_.utilization_exponent <= 0) {
    return Status::InvalidArgument("utilization exponent must be positive");
  }
  return Status::OK();
}

double CpuPowerModel::PeakWatts(int pstate) const {
  assert(pstate >= 0 && pstate < num_pstates());
  return IdleWatts() +
         spec_.pstates[pstate].core_active_watts * total_cores();
}

double CpuPowerModel::IdleWatts() const {
  return spec_.socket_idle_watts * spec_.sockets;
}

double CpuPowerModel::WattsAtUtilization(double u, int pstate) const {
  u = std::clamp(u, 0.0, 1.0);
  const double idle = IdleWatts();
  const double peak = PeakWatts(pstate);
  return idle + (peak - idle) * std::pow(u, spec_.utilization_exponent);
}

double CpuPowerModel::SecondsForInstructions(double instructions,
                                             int pstate) const {
  assert(pstate >= 0 && pstate < num_pstates());
  assert(instructions >= 0);
  const double ips = spec_.pstates[pstate].frequency_ghz * 1e9 *
                     spec_.instructions_per_cycle;
  return instructions / ips;
}

double CpuPowerModel::ActiveJoulesForInstructions(double instructions,
                                                  int pstate) const {
  return spec_.pstates[pstate].core_active_watts *
         SecondsForInstructions(instructions, pstate);
}

int CpuPowerModel::MostEfficientPState() const {
  int best = 0;
  double best_joules_per_giga = -1.0;
  for (int p = 0; p < num_pstates(); ++p) {
    const double j = ActiveJoulesForInstructions(1e9, p);
    if (best_joules_per_giga < 0 || j < best_joules_per_giga) {
      best_joules_per_giga = j;
      best = p;
    }
  }
  return best;
}

}  // namespace ecodb::power
