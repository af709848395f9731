// Disk spin-down policies.
//
// Section 4.2: hardware "will require a certain minimum-length idle period
// to enter in a suspended mode", and "the switching costs across states can
// easily exceed energy savings". The manager arms an idle timer after each
// access; when it fires, the device spins down. Two policies:
//   * kFixedTimeout — spin down after a configured idle interval.
//   * kBreakEven    — timeout = the device's own break-even idle time (the
//     competitive 2-approximation from the power-management literature).

#ifndef ECODB_SCHED_SPIN_DOWN_H_
#define ECODB_SCHED_SPIN_DOWN_H_

#include <cstdint>

#include "sim/event_queue.h"
#include "storage/device.h"

namespace ecodb::sched {

enum class SpinDownPolicy {
  kNever,
  kFixedTimeout,
  kBreakEven,
};

class DiskPowerManager {
 public:
  /// `events` and `device` must outlive the manager.
  DiskPowerManager(sim::EventQueue* events, storage::StorageDevice* device,
                   SpinDownPolicy policy, double fixed_timeout_s = 10.0);

  /// Effective idle timeout under the configured policy.
  double TimeoutSeconds() const;

  /// Call after every device access completes (at simulated time `t`).
  /// Re-arms the spin-down timer.
  void NotifyAccessEnd(double t);

  /// Number of spin-downs this manager initiated.
  int spin_downs() const { return spin_downs_; }

 private:
  void Arm(double t);

  sim::EventQueue* events_;
  storage::StorageDevice* device_;
  SpinDownPolicy policy_;
  double fixed_timeout_s_;
  double last_access_end_ = 0.0;
  uint64_t pending_timer_ = 0;
  int spin_downs_ = 0;
};

}  // namespace ecodb::sched

#endif  // ECODB_SCHED_SPIN_DOWN_H_
