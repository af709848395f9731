#include "sched/spin_down.h"

#include <algorithm>

namespace ecodb::sched {

DiskPowerManager::DiskPowerManager(sim::EventQueue* events,
                                   storage::StorageDevice* device,
                                   SpinDownPolicy policy,
                                   double fixed_timeout_s)
    : events_(events),
      device_(device),
      policy_(policy),
      fixed_timeout_s_(fixed_timeout_s) {}

double DiskPowerManager::TimeoutSeconds() const {
  switch (policy_) {
    case SpinDownPolicy::kNever:
      return 1e300;
    case SpinDownPolicy::kFixedTimeout:
      return fixed_timeout_s_;
    case SpinDownPolicy::kBreakEven:
      return device_->BreakEvenIdleSeconds();
  }
  return 1e300;
}

void DiskPowerManager::NotifyAccessEnd(double t) {
  last_access_end_ = std::max(last_access_end_, t);
  if (policy_ == SpinDownPolicy::kNever) return;
  Arm(last_access_end_);
}

void DiskPowerManager::Arm(double t) {
  if (pending_timer_ != 0) {
    events_->Cancel(pending_timer_);
    pending_timer_ = 0;
  }
  const double timeout = TimeoutSeconds();
  if (timeout >= 1e299) return;
  const double fire_at = std::max(t + timeout, events_->clock()->now());
  pending_timer_ = events_->ScheduleAt(fire_at, [this, t] {
    pending_timer_ = 0;
    // Only spin down if no access intervened since this timer was armed.
    if (last_access_end_ <= t && !device_->IsPoweredDown()) {
      device_->PowerDown(events_->clock()->now());
      ++spin_downs_;
    }
  });
}

}  // namespace ecodb::sched
