#include "power/device_power.h"

namespace ecodb::power {

double HddSpec::BreakEvenIdleSeconds() const {
  // Staying idle for T costs idle_watts * T.
  // Spinning down costs standby_watts * (T - spinup_seconds) +
  // spinup_watts * spinup_seconds (the disk must be back up by the end of
  // the period). Break-even T solves equality; below it, spin-down loses.
  // idle*T = standby*(T - t_up) + spinup*t_up
  //   =>  T = t_up * (spinup - standby) / (idle - standby).
  const double saved_per_second = idle_watts - standby_watts;
  if (saved_per_second <= 0) return 1e300;  // spin-down never pays off
  return (spinup_watts - standby_watts) * spinup_seconds / saved_per_second;
}

Status ValidateHddSpec(const HddSpec& spec) {
  if (spec.capacity_bytes <= 0 || spec.sustained_bw_bytes_per_s <= 0) {
    return Status::InvalidArgument("HDD capacity and bandwidth must be > 0");
  }
  if (spec.avg_seek_s < 0 || spec.rotational_latency_s < 0) {
    return Status::InvalidArgument("HDD latencies must be >= 0");
  }
  if (spec.active_watts < spec.idle_watts ||
      spec.idle_watts < spec.standby_watts || spec.standby_watts < 0) {
    return Status::InvalidArgument(
        "HDD power ordering must be active >= idle >= standby >= 0");
  }
  if (spec.spinup_seconds < 0 || spec.spinup_watts < 0) {
    return Status::InvalidArgument("HDD spin-up parameters must be >= 0");
  }
  return Status::OK();
}

Status ValidateSsdSpec(const SsdSpec& spec) {
  if (spec.capacity_bytes <= 0 || spec.read_bw_bytes_per_s <= 0 ||
      spec.write_bw_bytes_per_s <= 0) {
    return Status::InvalidArgument("SSD capacity and bandwidths must be > 0");
  }
  if (spec.read_latency_s < 0 || spec.write_latency_s < 0) {
    return Status::InvalidArgument("SSD latencies must be >= 0");
  }
  if (spec.active_watts < spec.idle_watts || spec.idle_watts < 0) {
    return Status::InvalidArgument(
        "SSD power ordering must be active >= idle >= 0");
  }
  return Status::OK();
}

}  // namespace ecodb::power
