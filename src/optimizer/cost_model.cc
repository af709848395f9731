#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "storage/page.h"

namespace ecodb::optimizer {

void ResourceEstimate::Merge(const ResourceEstimate& other) {
  cpu_instructions += other.cpu_instructions;
  serial_cpu_instructions += other.serial_cpu_instructions;
  for (const auto& [dev, bytes] : other.device_bytes) {
    device_bytes[dev] += bytes;
  }
  for (const auto& [dev, pages] : other.random_page_reads) {
    random_page_reads[dev] += pages;
  }
  dram_traffic_bytes += other.dram_traffic_bytes;
  resident_byte_seconds += other.resident_byte_seconds;
}

CostModel::CostModel(power::HardwarePlatform* platform,
                     CostModelParams params, exec::ExecOptions exec)
    : platform_(platform), params_(params), exec_(exec) {}

ResourceEstimate CostModel::ScanDemand(
    const storage::TableStorage& table, const std::vector<int>& column_indexes,
    const exec::ExprPtr& filter) const {
  ResourceEstimate demand;
  const exec::ScanPruning pruning = exec::PruneScan(filter, table);
  const uint64_t bytes =
      table.ScanBytes(column_indexes, pruning.selected_fraction);
  if (bytes > 0 && table.device() != nullptr) {
    demand.device_bytes[table.device()] += bytes;
  }
  demand.cpu_instructions = exec::ScanDecodeInstructions(
      exec_.decode_scale, table, column_indexes, pruning.selected_fraction);
  if (filter != nullptr) {
    demand.cpu_instructions += exec::ScanFilterInstructions(*filter, pruning);
  }
  return demand;
}

std::vector<double> CostModel::SortRuns(double rows,
                                        const storage::TableStorage* scanned,
                                        const exec::ExprPtr& filter) const {
  if (scanned == nullptr) return {rows};
  std::vector<double> runs;
  double selected = 0.0;
  for (const exec::ScanRowRange& m : exec::MorselizeRanges(
           exec::PruneScan(filter, *scanned).ranges,
           scanned->zone_maps().block_rows, exec_.morsel_rows)) {
    runs.push_back(static_cast<double>(m.end - m.begin));
    selected += runs.back();
  }
  for (double& run : runs) run *= rows / selected;
  return runs;
}

ResourceEstimate CostModel::SortDemand(const std::vector<double>& runs,
                                       size_t num_keys,
                                       double limit_rows) const {
  ResourceEstimate demand;
  const double keys = static_cast<double>(std::max<size_t>(1, num_keys));
  // Run formation, summed in run order as SortOp settles it, divided
  // across workers. Runs that keep no rows are dropped, as SortOp drops
  // them.
  double kept = 0.0;
  double kept_runs = 0.0;
  for (const double n : runs) {
    const double run_kept = std::min(n, limit_rows);
    if (run_kept <= 0.0) continue;
    kept += run_kept;
    kept_runs += 1.0;
    demand.cpu_instructions += exec::SortRunInstructions(n, limit_rows, keys);
  }
  if (kept_runs <= 1.0) return demand;
  // Merge fan-in over the rows it emits: the log2(R) comparison ladder
  // parallelizes across range partitions; stitching stays on the
  // coordinator.
  const double take = std::min(kept, limit_rows);
  demand.cpu_instructions +=
      exec::SortLadderInstructions(take, kept_runs, keys);
  demand.serial_cpu_instructions +=
      exec::SortMergeSerialInstructions(take, kept_runs);
  return demand;
}

PlanCost CostModel::Price(const ResourceEstimate& demand, int dop,
                          int pstate) const {
  const power::CpuPowerModel& cpu = platform_->cpu();
  const int cores = std::min(dop, cpu.total_cores());

  // Time: CPU elapsed vs the slowest device stream (they overlap). Only
  // the parallelizable instructions divide across cores (Amdahl); with no
  // serial portion this reduces exactly to core_seconds / cores.
  const double parallel_seconds =
      cpu.SecondsForInstructions(demand.cpu_instructions, pstate);
  const double serial_seconds =
      cpu.SecondsForInstructions(demand.serial_cpu_instructions, pstate);
  const double cpu_core_seconds = parallel_seconds + serial_seconds;
  const double cpu_elapsed =
      serial_seconds + parallel_seconds / static_cast<double>(cores);
  double io_elapsed = 0.0;
  double io_joules = 0.0;
  std::map<const storage::StorageDevice*, double> per_device_seconds;
  for (const auto& [dev, bytes] : demand.device_bytes) {
    per_device_seconds[dev] += dev->EstimateReadSeconds(bytes);
    io_joules += dev->EstimateReadJoules(bytes);
  }
  for (const auto& [dev, pages] : demand.random_page_reads) {
    // Each random page pays the device's full positioning + transfer cost.
    per_device_seconds[dev] +=
        static_cast<double>(pages) *
        dev->EstimateReadSeconds(storage::Page::kPageSize);
    io_joules += static_cast<double>(pages) *
                 dev->EstimateReadJoules(storage::Page::kPageSize);
  }
  for (const auto& [dev, seconds] : per_device_seconds) {
    io_elapsed = std::max(io_elapsed, seconds);
  }
  PlanCost cost;
  cost.seconds = std::max(cpu_elapsed, io_elapsed);

  // Energy: marginal active components.
  const double cpu_joules =
      cpu.spec().pstates[pstate].core_active_watts * cpu_core_seconds;
  const double dram_traffic_joules =
      platform_->dram().access_joules_per_byte *
      static_cast<double>(demand.dram_traffic_bytes);
  const double gib = 1024.0 * 1024.0 * 1024.0;
  const double rate = params_.dram_watts_per_gib_override >= 0
                          ? params_.dram_watts_per_gib_override
                          : platform_->dram().background_watts_per_gib;
  const double residency_joules = params_.memory_power_premium * rate *
                                  (demand.resident_byte_seconds / gib);
  cost.joules =
      cpu_joules + io_joules + dram_traffic_joules + residency_joules;
  // The platform's standing power, as a wall meter sees it.
  cost.joules += platform_->meter()->TotalWatts() * cost.seconds;
  return cost;
}

}  // namespace ecodb::optimizer
