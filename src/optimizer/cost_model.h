// Two-objective cost model: every plan is priced in seconds AND Joules.
//
// Section 4.1 of the paper: "To improve energy efficiency, query optimizers
// will need power models to estimate energy costs. There has been a lot of
// work on modeling power, but simple models may suffice in the same way
// simple models for device access times work well in practice." This model
// is exactly that kind of simple model:
//
//   time   = max(serial_cpu + parallel_cpu / cores, per-device I/O time)
//   energy = cpu_active + device_active + dram_traffic
//            + memory_residency (W/GiB x resident-byte-seconds)
//            + platform_background x time
//
// Demand has no instruction formulas of its own: each CPU term, like each
// join and aggregate DRAM term, is the charge function its operator bills
// with (exec/*.h), fed estimated counts, in the bill's serial or parallel
// bucket.
//
// The memory-residency term is what makes hash join "expensive ... from a
// power perspective" relative to nested-loop join, per the paper. Its
// coefficient is a knob the A1 ablation sweeps; the ledger does not bill
// it.

#ifndef ECODB_OPTIMIZER_COST_MODEL_H_
#define ECODB_OPTIMIZER_COST_MODEL_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "exec/expr.h"
#include "power/platform.h"
#include "storage/device.h"
#include "storage/table_storage.h"

namespace ecodb::optimizer {

/// The optimizer's objective: minimize seconds + lambda * joules.
/// lambda = 0 reproduces a classical performance-only optimizer;
/// lambda -> infinity minimizes pure energy. Units: seconds per Joule.
struct Objective {
  double lambda = 0.0;

  static Objective Performance() { return {0.0}; }
  static Objective Energy() { return {1e9}; }
  static Objective Balanced(double lambda) { return {lambda}; }
};

struct PlanCost {
  double seconds = 0.0;
  double joules = 0.0;

  double Scalarize(const Objective& obj) const {
    return seconds + obj.lambda * joules;
  }
};

/// Raw resource demands of a (sub)plan, accumulated by the planner and
/// converted to PlanCost at the end (so overlap across phases is priced the
/// same way the executor measures it).
struct ResourceEstimate {
  /// CPU work that parallelizes across the plan's dop: everything an
  /// operator bills through ExecContext::ChargeInstructions.
  double cpu_instructions = 0.0;
  /// Additional CPU work confined to one core regardless of dop: what is
  /// billed through ChargeSerialInstructions, which is only the sort
  /// merge's stitching. Amdahl's law: elapsed = serial_seconds +
  /// parallel_seconds / cores, while busy core-seconds — and so active CPU
  /// energy — always cover both terms.
  double serial_cpu_instructions = 0.0;
  /// I/O demand per device (keyed by device pointer; stable during a plan).
  std::map<const storage::StorageDevice*, uint64_t> device_bytes;
  /// Random page reads per device (index descents, heap fetches); each
  /// pays the device's per-request positioning cost.
  std::map<const storage::StorageDevice*, uint64_t> random_page_reads;
  uint64_t dram_traffic_bytes = 0;
  /// Bytes held resident multiplied by the seconds they are held (set by
  /// memory-hungry operators; priced at the DRAM W/GiB rate).
  double resident_byte_seconds = 0.0;

  void Merge(const ResourceEstimate& other);
};

struct CostModelParams {
  /// Multiplier on the DRAM residency price (1.0 = the platform's real
  /// W/GiB). The A1 ablation sweeps this to move the hash/NLJ crossover.
  double memory_power_premium = 1.0;
  /// DRAM residency rate in W/GiB before the premium; < 0 uses the
  /// platform's DRAM background rate. Lets planners price memory as if it
  /// were energy-proportional (the paper's Section 4.3 assumption) even on
  /// platforms whose DRAM model excludes background power.
  double dram_watts_per_gib_override = -1.0;
};

class CostModel {
 public:
  /// `platform` must outlive the model. `exec` is what the engine bills
  /// with: scans are priced at its decode_scale and sorts at its
  /// morsel_rows.
  CostModel(power::HardwarePlatform* platform, CostModelParams params,
            exec::ExecOptions exec = {});

  const CostModelParams& params() const { return params_; }
  const exec::ExecOptions& exec_options() const { return exec_; }
  power::HardwarePlatform* platform() const { return platform_; }

  /// Demand of a table scan of `column_indexes` of `table` with `filter`
  /// (may be null) fused in: zone pruning, then the scan's transfer bytes
  /// and its decode and filter instructions (exec/scan.h).
  ResourceEstimate ScanDemand(const storage::TableStorage& table,
                              const std::vector<int>& column_indexes,
                              const exec::ExprPtr& filter = nullptr) const;

  /// Input rows of each sorted run SortOp forms from `rows` rows. Over a
  /// table scan of `scanned` it forms one run per morsel: the scan's own
  /// PruneScan ranges under `filter`, cut by MorselizeRanges at
  /// morsel_rows, each run holding its morsel's share of `rows` (the last
  /// one partial). Over any other child (`scanned` null) it forms one run.
  std::vector<double> SortRuns(double rows,
                               const storage::TableStorage* scanned,
                               const exec::ExprPtr& filter) const;

  /// Demand of sorting `runs` (each run's input rows, from SortRuns) on
  /// `num_keys` keys and keeping the first `limit_rows` rows (infinity:
  /// all), priced through the charge functions SortOp bills with
  /// (exec/sort_limit.h): each run's formation (SortRunInstructions) and,
  /// over several runs, the merge's log2(R) comparison ladder over the
  /// rows it emits parallelize across cores, while the merge's stitching
  /// of those rows stays serial (Amdahl). Runs that keep no rows (empty,
  /// or k = 0) are dropped, as SortOp drops them. Every term is at most
  /// the unlimited sort's, and equal to it when `limit_rows` covers the
  /// rows.
  ResourceEstimate SortDemand(
      const std::vector<double>& runs, size_t num_keys,
      double limit_rows = std::numeric_limits<double>::infinity()) const;

  /// Converts accumulated demand into (seconds, Joules) at the given
  /// execution knobs, mirroring ExecContext's critical-path rule.
  PlanCost Price(const ResourceEstimate& demand, int dop, int pstate) const;

 private:
  power::HardwarePlatform* platform_;
  CostModelParams params_;
  exec::ExecOptions exec_;
};

}  // namespace ecodb::optimizer

#endif  // ECODB_OPTIMIZER_COST_MODEL_H_
