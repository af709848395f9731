// Power models for storage-hierarchy devices: HDD, SSD, DRAM.
//
// These are pure parameter-plus-math models; the behavioural simulators in
// src/storage consume them to decide latencies and to charge the meter.
// Defaults are calibrated to the hardware classes the paper measures:
// 15K-RPM 73GB SCSI drives (Figure 1) and low-power flash SSDs (Figure 2,
// "an order of magnitude more energy efficient than regular hard drives").

#ifndef ECODB_POWER_DEVICE_POWER_H_
#define ECODB_POWER_DEVICE_POWER_H_

#include <cstdint>

#include "util/status.h"

namespace ecodb::power {

/// Spin states of a mechanical disk. Section 2.4: "Memory and disks ...
/// offer almost no power control except for sleep states. They are either on
/// (and at full performance and power) or off, and the transitions can be
/// expensive."
enum class DiskSpinState {
  kActive,   // servicing a request
  kIdle,     // spinning, no request
  kStandby,  // spun down
  kSpinningUp,
};

/// Parameters of one mechanical disk (defaults: 15K RPM SCSI, ~73 GB).
struct HddSpec {
  double capacity_bytes = 73.0 * 1e9;
  double sustained_bw_bytes_per_s = 80.0 * 1e6;  // sequential
  double avg_seek_s = 0.0035;
  double rotational_latency_s = 0.002;  // half revolution at 15K RPM

  double active_watts = 17.0;
  double idle_watts = 12.0;
  double standby_watts = 2.5;
  double spinup_watts = 24.0;
  double spinup_seconds = 6.0;

  /// Energy to go active->standby->active once, beyond staying idle for the
  /// same duration, is SpinCycleOverheadJoules(); the break-even idle time
  /// below makes spin-down worthwhile only past it.
  double SpinupJoules() const { return spinup_watts * spinup_seconds; }

  /// Minimum idle-period length (seconds) for which entering standby saves
  /// energy versus idling: solve idle*T = standby*(T - t_up) + spinup*t_up.
  double BreakEvenIdleSeconds() const;
};

/// Parameters of one flash SSD (defaults sized so three drives draw ~5 W
/// aggregate while streaming, matching the Figure 2 setup).
struct SsdSpec {
  double capacity_bytes = 64.0 * 1e9;
  double read_bw_bytes_per_s = 250.0 * 1e6;
  double write_bw_bytes_per_s = 180.0 * 1e6;
  double read_latency_s = 75e-6;
  double write_latency_s = 120e-6;

  double active_watts = 5.0 / 3.0;
  double idle_watts = 0.35;
};

/// Parameters of the DRAM subsystem.
struct DramSpec {
  double capacity_bytes = 64.0 * 1024 * 1024 * 1024.0;
  /// Background (refresh + standby) power per GiB — charged while powered.
  double background_watts_per_gib = 0.65;
  /// Incremental energy per byte actually read or written.
  double access_joules_per_byte = 20e-12 * 8;  // ~20 pJ/bit

  double BackgroundWatts() const {
    return background_watts_per_gib * capacity_bytes /
           (1024.0 * 1024 * 1024);
  }
};

/// Validation helpers shared by the behavioural simulators.
Status ValidateHddSpec(const HddSpec& spec);
Status ValidateSsdSpec(const SsdSpec& spec);
Status ValidateDramSpec(const DramSpec& spec);

}  // namespace ecodb::power

#endif  // ECODB_POWER_DEVICE_POWER_H_
