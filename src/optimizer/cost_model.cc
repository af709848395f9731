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

ResourceEstimate CostModel::SortDemand(double rows, size_t num_keys,
                                       double limit_rows) const {
  ResourceEstimate demand;
  if (rows <= 1.0) return demand;
  const double keys = static_cast<double>(std::max<size_t>(1, num_keys));
  const double run_rows =
      std::max(2.0, static_cast<double>(exec_.morsel_rows));
  const double runs = std::max(1.0, std::ceil(rows / run_rows));
  const double per_run = std::min(rows, run_rows);
  if (limit_rows >= 0.0) {
    // SortOp under a limit, through the charge formulas it bills.
    // Formation: every row pays the bounded heap's 1 + log2(min(run, k))
    // ladder, divided across workers. Merge: the comparison ladder over the
    // ≤ runs·k candidates plus the k-row emission are serial. At k ≈ n the
    // merge ladder covers all n rows serially — strictly worse than the full
    // sort's parallel merge — so the planner's fallback to Sort + Limit
    // holds by construction.
    const double k_eff = std::min(rows, std::max(0.0, limit_rows));
    const double k_run = std::min(per_run, k_eff);
    demand.cpu_instructions += exec::TopKCompareInstructions(rows, k_run, keys);
    demand.serial_cpu_instructions +=
        exec::SortMergeSerialInstructions(runs * k_run, runs, keys, k_eff);
    return demand;
  }
  // Run formation: each run's n·log2(n) ladder, divided across workers.
  demand.cpu_instructions += exec::SortLadderInstructions(rows, per_run, keys);
  if (runs > 1.0) {
    // Merge fan-in: the log2(R) comparison ladder parallelizes across range
    // partitions; splitter selection and stitching stay on the coordinator.
    // Note log2(per_run) + log2(runs) ~= log2(rows): total comparison work
    // matches the classic serial n·log2(n) — only its Amdahl split changes.
    demand.cpu_instructions += exec::SortLadderInstructions(rows, runs, keys);
  }
  demand.serial_cpu_instructions +=
      exec::SortMergeSerialInstructions(rows, runs, keys, std::nullopt);
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
