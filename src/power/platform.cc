#include "power/platform.h"

#include <utility>
#include <cassert>

namespace ecodb::power {

HardwarePlatform::HardwarePlatform(CpuSpec cpu, DramSpec dram,
                                   ChassisSpec chassis, FacilitySpec facility)
    : clock_(),
      meter_(&clock_),
      cpu_(std::move(cpu)),
      dram_(dram),
      chassis_(chassis),
      facility_(facility) {
  cpu_channel_ = meter_.RegisterChannel("cpu", cpu_.IdleWatts());
  dram_channel_ = meter_.RegisterChannel("dram", dram_.BackgroundWatts());
  chassis_channel_ = meter_.RegisterChannel("chassis", chassis_.base_watts);
}

double HardwarePlatform::ChargeCpuCoresAt(double t_end, double core_seconds,
                                          int pstate) {
  assert(core_seconds >= 0);
  const double joules =
      cpu_.spec().pstates[pstate].core_active_watts * core_seconds;
  meter_.AddEnergyAt(cpu_channel_, t_end, joules, core_seconds);
  return joules;
}

double HardwarePlatform::ChargeDramAccess(uint64_t bytes) {
  const double joules =
      dram_.access_joules_per_byte * static_cast<double>(bytes);
  meter_.AddEnergy(dram_channel_, joules);
  return joules;
}

void HardwarePlatform::SetActiveTraysAt(double t, int trays) {
  assert(trays >= 0);
  active_trays_ = trays;
  meter_.SetPowerAt(chassis_channel_, t,
                    chassis_.base_watts + chassis_.tray_watts * trays);
}

EnergyBreakdown HardwarePlatform::BreakdownBetween(
    const MeterSnapshot& a, const MeterSnapshot& b) const {
  EnergyBreakdown out;
  const MeterSnapshot d = EnergyMeter::Delta(a, b);
  out.elapsed_seconds = d.time;
  for (uint32_t i = 0; i < d.joules.size(); ++i) {
    EnergyBreakdown::Entry e;
    e.channel = meter_.channel_name(ChannelId{i});
    e.joules = d.joules[i];
    e.busy_seconds = d.busy_seconds[i];
    out.it_joules += e.joules;
    out.entries.push_back(std::move(e));
  }
  out.wall_joules = out.it_joules / facility_.psu_efficiency *
                    (1.0 + facility_.cooling_watts_per_watt);
  return out;
}

EnergyBreakdown HardwarePlatform::BreakdownSinceStart() const {
  MeterSnapshot zero;
  zero.time = 0.0;
  zero.joules.assign(meter_.channel_count(), 0.0);
  zero.busy_seconds.assign(meter_.channel_count(), 0.0);
  return BreakdownBetween(zero, meter_.Snapshot());
}

std::unique_ptr<HardwarePlatform> MakeDl785Platform() {
  CpuSpec cpu;
  cpu.sockets = 8;
  cpu.cores_per_socket = 4;
  // Quad-core Opteron class: ~75 W socket at full tilt, ~10 W idle floor.
  cpu.pstates = {{"P0", 2.3, 16.0}, {"P1", 1.9, 11.0}, {"P2", 1.4, 7.5}};
  cpu.socket_idle_watts = 10.0;
  cpu.instructions_per_cycle = 1.2;

  DramSpec dram;
  dram.capacity_bytes = 64.0 * 1024 * 1024 * 1024;
  dram.background_watts_per_gib = 0.65;

  ChassisSpec chassis;
  chassis.base_watts = 80.0;
  chassis.tray_watts = 45.0;   // MSA70-class shelf
  chassis.disks_per_tray = 16;

  FacilitySpec fac;
  fac.psu_efficiency = 0.85;
  fac.cooling_watts_per_watt = 0.5;

  return std::make_unique<HardwarePlatform>(cpu, dram, chassis, fac);
}

std::unique_ptr<HardwarePlatform> MakeFlashScanPlatform() {
  // Figure 2 accounting: "The CPU has a power consumption of 90 Watts, while
  // the flash disks together consume only 5 Watts ... assuming that an idle
  // CPU does not consume any power". One core at 90 W active, 0 W idle.
  CpuSpec cpu;
  cpu.sockets = 1;
  cpu.cores_per_socket = 1;
  cpu.pstates = {{"P0", 3.0, 90.0}};
  cpu.socket_idle_watts = 0.0;

  DramSpec dram;
  dram.capacity_bytes = 4.0 * 1024 * 1024 * 1024;
  dram.background_watts_per_gib = 0.0;  // excluded from the paper's math
  dram.access_joules_per_byte = 0.0;

  ChassisSpec chassis;
  chassis.base_watts = 0.0;
  chassis.tray_watts = 0.0;

  FacilitySpec fac;
  fac.psu_efficiency = 1.0;
  fac.cooling_watts_per_watt = 0.0;

  return std::make_unique<HardwarePlatform>(cpu, dram, chassis, fac);
}

std::unique_ptr<HardwarePlatform> MakeProportionalPlatform() {
  CpuSpec cpu;
  cpu.sockets = 2;
  cpu.cores_per_socket = 8;
  cpu.pstates = {{"P0", 2.6, 8.0}, {"P1", 2.0, 5.0}, {"P2", 1.2, 2.5}};
  cpu.socket_idle_watts = 4.0;
  cpu.utilization_exponent = 1.0;

  DramSpec dram;
  dram.capacity_bytes = 32.0 * 1024 * 1024 * 1024;
  dram.background_watts_per_gib = 0.4;

  ChassisSpec chassis;
  chassis.base_watts = 25.0;
  chassis.tray_watts = 20.0;

  FacilitySpec fac;
  fac.psu_efficiency = 0.92;
  fac.cooling_watts_per_watt = 0.3;

  return std::make_unique<HardwarePlatform>(cpu, dram, chassis, fac);
}

}  // namespace ecodb::power
