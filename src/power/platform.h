// HardwarePlatform: composition of metered devices behind a PSU and cooling.
//
// A platform owns the simulated clock and the energy meter, registers one
// meter channel per device group (CPU, DRAM, disk trays, SSDs, chassis), and
// converts metered "IT" energy into wall energy using PSU efficiency and the
// cooling overhead the paper cites ("every 1W used to power servers requires
// an additional 0.5W to 1W of power for cooling equipment" [PBS+03]).

#ifndef ECODB_POWER_PLATFORM_H_
#define ECODB_POWER_PLATFORM_H_

#include <memory>
#include <string>
#include <vector>

#include "power/cpu_power.h"
#include "power/device_power.h"
#include "power/energy_meter.h"
#include "sim/clock.h"
#include "util/status.h"

namespace ecodb::power {

/// Facility-level overheads applied to metered IT energy.
struct FacilitySpec {
  /// Fraction of wall power delivered to components (0 < eff <= 1).
  double psu_efficiency = 0.85;
  /// Additional cooling Watts per IT Watt (0.5–1.0 per [PBS+03]).
  double cooling_watts_per_watt = 0.5;
};

/// Fixed draw of fans, mainboard, controllers.
struct ChassisSpec {
  double base_watts = 60.0;
  /// Per disk-enclosure (tray) overhead, e.g. HP MSA70 shelf electronics.
  double tray_watts = 45.0;
  int disks_per_tray = 16;
};

/// Per-device-group energy attribution for one measurement window.
struct EnergyBreakdown {
  struct Entry {
    std::string channel;
    double joules = 0.0;
    double busy_seconds = 0.0;
  };
  std::vector<Entry> entries;
  double elapsed_seconds = 0.0;
  double it_joules = 0.0;    // sum over entries
  double wall_joules = 0.0;  // IT energy grossed up by PSU + cooling
  double AvgItWatts() const {
    return elapsed_seconds > 0 ? it_joules / elapsed_seconds : 0.0;
  }
};

/// A complete metered machine. Construct via PlatformBuilder or a preset.
class HardwarePlatform {
 public:
  HardwarePlatform(CpuSpec cpu, DramSpec dram, ChassisSpec chassis,
                   FacilitySpec facility);

  HardwarePlatform(const HardwarePlatform&) = delete;
  HardwarePlatform& operator=(const HardwarePlatform&) = delete;

  sim::SimClock* clock() { return &clock_; }
  EnergyMeter* meter() { return &meter_; }
  const CpuPowerModel& cpu() const { return cpu_; }
  const DramSpec& dram() const { return dram_; }
  const ChassisSpec& chassis() const { return chassis_; }
  const FacilitySpec& facility() const { return facility_; }

  ChannelId cpu_channel() const { return cpu_channel_; }
  ChannelId dram_channel() const { return dram_channel_; }
  ChannelId chassis_channel() const { return chassis_channel_; }

  /// Registers an extra channel (used by storage devices and trays).
  ChannelId AddChannel(std::string name, double initial_watts = 0.0) {
    return meter_.RegisterChannel(std::move(name), initial_watts);
  }

  /// Charges `core_seconds` of fully-busy core time, on however many
  /// cores, ending at time `t_end` at P-state `pstate`; energy above the
  /// idle floor is attributed as a pulse (the floor runs continuously on
  /// the channel). Parallelism shortens the wall-clock window, it does not
  /// discount work, so the Joules are the same at any core count;
  /// race-to-idle stays observable because the shorter window accrues less
  /// background/idle energy. Returns the Joules booked so callers (the
  /// serving core's tenant bills) can attribute the charge.
  double ChargeCpuCoresAt(double t_end, double core_seconds, int pstate = 0);

  /// Charges a DRAM traffic pulse of `bytes` at the current time. Returns
  /// the Joules booked.
  double ChargeDramAccess(uint64_t bytes);

  /// Declares the number of populated disk trays; tray electronics draw
  /// continuous power on the chassis channel from time `t` onward.
  void SetActiveTraysAt(double t, int trays);

  /// Reading between two snapshots -> per-channel breakdown + wall energy.
  EnergyBreakdown BreakdownBetween(const MeterSnapshot& a,
                                   const MeterSnapshot& b) const;

  /// Breakdown from time zero to now.
  EnergyBreakdown BreakdownSinceStart() const;

  /// Instantaneous wall Watts implied by IT Watts `it_watts`.
  double WallWatts(double it_watts) const {
    return it_watts / facility_.psu_efficiency *
           (1.0 + facility_.cooling_watts_per_watt);
  }

 private:
  sim::SimClock clock_;
  EnergyMeter meter_;
  CpuPowerModel cpu_;
  DramSpec dram_;
  ChassisSpec chassis_;
  FacilitySpec facility_;
  ChannelId cpu_channel_;
  ChannelId dram_channel_;
  ChannelId chassis_channel_;
  int active_trays_ = 0;
};

/// Preset: HP ProLiant DL785-class host of the paper's Figure 1 experiment —
/// 8 sockets x 4 cores, 64 GB DRAM, SCSI disk trays (16 disks/tray).
/// Storage devices are added separately per experiment.
std::unique_ptr<HardwarePlatform> MakeDl785Platform();

/// Preset: the Figure 2 scan host — one 90 W CPU (idle treated as 0 W, per
/// the paper's accounting) and an SSD budget of 5 W for three flash drives.
std::unique_ptr<HardwarePlatform> MakeFlashScanPlatform();

/// Preset: a small energy-proportional server (linear power curve, deep
/// sleep states) used by the proportionality and consolidation ablations.
std::unique_ptr<HardwarePlatform> MakeProportionalPlatform();

}  // namespace ecodb::power

#endif  // ECODB_POWER_PLATFORM_H_
