// DVFS governor and database/hardware power-management coordination.
//
// Section 5.3 of the paper: "consider a hardware controller that changes
// the voltage and frequency in parallel with the query optimizer which is
// making decisions based on current runtime power states. If these two do
// not communicate and coordinate their choices, they may end up working
// cross purposes [RRT+08]."
//
// `DvfsGovernor` is an ondemand-style hardware controller: it watches CPU
// utilization over sampling intervals and walks the P-state up or down with
// hysteresis. The coordination hook is `Pin()` — the database pins the
// P-state its plan was costed for, for the duration of the query, instead
// of letting the governor chase utilization that the database itself is
// about to change. The cross-purposes effect is demonstrated by
// bench/ablate_coordination.

#ifndef ECODB_POWER_GOVERNOR_H_
#define ECODB_POWER_GOVERNOR_H_

#include "power/cpu_power.h"

namespace ecodb::power {

/// Ondemand-style frequency governor over a CpuPowerModel's P-states.
/// P-state 0 is fastest; higher indexes are slower/lower-power.
class DvfsGovernor {
 public:
  /// Starts at P0. `cpu` must outlive the governor.
  explicit DvfsGovernor(const CpuPowerModel* cpu);

  /// Feeds one sampling interval's utilization in [0,1]; returns the
  /// P-state for the next interval. While pinned, always returns the pin.
  int Observe(double utilization);

  int pstate() const { return pinned_ ? pinned_pstate_ : pstate_; }
  bool pinned() const { return pinned_; }

  /// Database-directed coordination: hold `pstate` until Unpin().
  void Pin(int pstate);
  void Unpin();

  int transitions() const { return transitions_; }

 private:
  const CpuPowerModel* cpu_;
  int pstate_ = 0;
  int low_streak_ = 0;
  bool pinned_ = false;
  int pinned_pstate_ = 0;
  int transitions_ = 0;
};

}  // namespace ecodb::power

#endif  // ECODB_POWER_GOVERNOR_H_
