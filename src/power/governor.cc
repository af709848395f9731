#include "power/governor.h"

#include <algorithm>
#include <cassert>

namespace ecodb::power {

namespace {

// Upshift (toward P0) when utilization exceeds this.
constexpr double kUpThreshold = 0.80;
// Downshift when utilization falls below this.
constexpr double kDownThreshold = 0.30;
// Consecutive below-threshold samples required before downshifting
// (hysteresis; upshifts are immediate, as in ondemand).
constexpr int kDownHysteresisSamples = 2;

}  // namespace

DvfsGovernor::DvfsGovernor(const CpuPowerModel* cpu) : cpu_(cpu) {}

int DvfsGovernor::Observe(double utilization) {
  utilization = std::clamp(utilization, 0.0, 1.0);
  if (pinned_) return pinned_pstate_;

  if (utilization > kUpThreshold) {
    // Ondemand jumps straight to the fastest state under pressure.
    low_streak_ = 0;
    if (pstate_ != 0) {
      pstate_ = 0;
      ++transitions_;
    }
  } else if (utilization < kDownThreshold) {
    ++low_streak_;
    if (low_streak_ >= kDownHysteresisSamples &&
        pstate_ + 1 < cpu_->num_pstates()) {
      ++pstate_;
      ++transitions_;
      low_streak_ = 0;
    }
  } else {
    low_streak_ = 0;
  }
  return pstate_;
}

void DvfsGovernor::Pin(int pstate) {
  assert(pstate >= 0 && pstate < cpu_->num_pstates());
  if (!pinned_ || pinned_pstate_ != pstate) ++transitions_;
  pinned_ = true;
  pinned_pstate_ = pstate;
}

void DvfsGovernor::Unpin() {
  if (pinned_) {
    pinned_ = false;
    pstate_ = pinned_pstate_;
    low_streak_ = 0;
  }
}

}  // namespace ecodb::power
