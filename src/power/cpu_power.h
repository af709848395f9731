// CPU power model: sockets, cores, P-states (DVFS) and C-states.
//
// Models the knobs Section 2.3/2.4 of the paper discusses: dynamic voltage
// and frequency scaling (P-states), idle states (C-states), and per-core
// gating ("a software module will be able to control which CPU cores in a
// multicore chip are active at any time"). Power at partial utilization
// follows the classic linear idle/peak interpolation observed by Barroso &
// Hoelzle [BH07], with a configurable exponent for non-linear platforms.

#ifndef ECODB_POWER_CPU_POWER_H_
#define ECODB_POWER_CPU_POWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace ecodb::power {

/// One DVFS operating point.
struct PState {
  std::string name;          // e.g. "P0"
  double frequency_ghz;      // core clock
  double core_active_watts;  // per-core power when 100% busy at this state
};

/// Static description of a CPU complex.
struct CpuSpec {
  int sockets = 1;
  int cores_per_socket = 4;
  /// Ordered fastest-first. Must be non-empty.
  std::vector<PState> pstates = {{"P0", 3.0, 22.5}};
  /// Per-socket power with all cores idle (C1-ish) — the "uncore" floor.
  double socket_idle_watts = 15.0;
  /// Per-socket power in the deepest C-state (package sleep).
  double socket_sleep_watts = 3.0;
  /// Nominal instructions retired per core-cycle for time estimation.
  double instructions_per_cycle = 1.0;
  /// Exponent of the utilization->power curve; 1.0 = linear (energy
  /// proportional between idle and peak).
  double utilization_exponent = 1.0;
};

/// Pure-math power model over a CpuSpec; holds no meter state.
class CpuPowerModel {
 public:
  explicit CpuPowerModel(CpuSpec spec);

  const CpuSpec& spec() const { return spec_; }
  int total_cores() const { return spec_.sockets * spec_.cores_per_socket; }

  /// Number of configured P-states.
  int num_pstates() const { return static_cast<int>(spec_.pstates.size()); }

  /// Whole-complex power with all cores busy at P-state `p`.
  double PeakWatts(int pstate = 0) const;

  /// Whole-complex power with all cores idle (no package sleep).
  double IdleWatts() const;

  /// Whole-complex power with packages in deepest sleep.
  double SleepWatts() const;

  /// Power at fractional utilization u in [0,1] at P-state `p`:
  ///   idle + (peak - idle) * u^exponent.
  double WattsAtUtilization(double u, int pstate = 0) const;

  /// Seconds of one core executing `instructions` at P-state `p`.
  double SecondsForInstructions(double instructions, int pstate = 0) const;

  /// Active-energy (above idle floor) for one core running `instructions`
  /// to completion at P-state `p`.
  double ActiveJoulesForInstructions(double instructions, int pstate = 0) const;

  /// The P-state minimizing active energy for a fixed instruction count —
  /// the "race-to-idle vs crawl" decision. Returns the index.
  int MostEfficientPState() const;

  Status Validate() const;

 private:
  CpuSpec spec_;
};

}  // namespace ecodb::power

#endif  // ECODB_POWER_CPU_POWER_H_
