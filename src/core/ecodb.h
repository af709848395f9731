// EcoDb: the public facade of the energy-aware database engine.
//
// An EcoDb instance owns a metered hardware platform (CPU/DRAM/chassis plus
// a configurable storage complement), a catalog, table storage, and the
// energy-aware planner. Typical use (see examples/quickstart.cc):
//
//   ecodb::core::DbConfig config;                  // platform + storage
//   auto db = ecodb::core::EcoDb::Open(config);
//   db->CreateTable("orders", schema);
//   db->Load("orders", columns);
//   auto outcome = db->Execute(spec, Objective::Balanced(0.05));
//   outcome->stats.energy -> per-device Joules; outcome->plan -> choices.

#ifndef ECODB_CORE_ECODB_H_
#define ECODB_CORE_ECODB_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/operator.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "sched/session.h"
#include "sim/arrival_trace.h"
#include "storage/btree.h"
#include "storage/disk_array.h"
#include "storage/fault_injector.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/status.h"

namespace ecodb::core {

enum class PlatformPreset {
  kDl785,         // the paper's Figure 1 host class
  kFlashScan,     // the paper's Figure 2 host class
  kProportional,  // an energy-proportional small server
};

struct DbConfig {
  PlatformPreset preset = PlatformPreset::kProportional;
  /// > 0: build a RAID array of this many HDDs as the primary device.
  int hdd_count = 0;
  power::HddSpec hdd_spec;
  /// The array's RAID level, stripe and controller (RAID-5 by default).
  storage::ArraySpec array_spec;
  /// > 0: build this many SSDs (used when hdd_count == 0, or as a second
  /// tier when both are set).
  int ssd_count = 1;
  power::SsdSpec ssd_spec;
  /// What every query bills with; the cost model prices with it too.
  exec::ExecOptions exec_options;
  optimizer::CostModelParams cost_params;
  optimizer::PlannerOptions planner_options;
  /// Derive the planner's dop candidates from the platform's core count
  /// (PlatformDopLadder) instead of planner_options.dops. On by default;
  /// set to false to keep a hand-tuned planner_options.dops ladder.
  bool derive_dop_ladder = true;
  /// Deterministic fault schedule. When active() every storage device is
  /// wrapped in a FaultInjectedDevice that replays the plan; the same seed
  /// and plan reproduce byte-identical rows and bit-identical charges at
  /// any dop.
  storage::FaultPlan fault_plan;
};

/// Result of one query: rows, measured resource stats, chosen plan.
struct QueryOutcome {
  exec::QueryResultSet rows;
  exec::QueryStats stats;
  std::optional<optimizer::PhysicalPlan> plan;
};

class EcoDb {
 public:
  static StatusOr<std::unique_ptr<EcoDb>> Open(const DbConfig& config);

  EcoDb(const EcoDb&) = delete;
  EcoDb& operator=(const EcoDb&) = delete;

  // --- Schema & data -----------------------------------------------------

  /// A column-layout table on the primary device.
  Status CreateTable(const std::string& name, catalog::Schema schema);
  Status CreateTable(const std::string& name, catalog::Schema schema,
                     storage::TableLayout layout,
                     storage::StorageDevice* device);

  Status Load(const std::string& table,
              const std::vector<storage::ColumnData>& columns);

  /// Applies a compression kind to one column of an existing table.
  Status SetCompression(const std::string& table, const std::string& column,
                        storage::CompressionKind kind);

  /// Creates a physical variant of `table` under `variant_name` with the
  /// given per-column compression (same rows; the planner can then choose
  /// between the two per the objective).
  Status CloneWithCompression(
      const std::string& table, const std::string& variant_name,
      const std::map<std::string, storage::CompressionKind>& kinds);

  /// Refreshes catalog statistics for `table`.
  Status Analyze(const std::string& table);

  /// Builds a B+tree index over an integer/date column of `table` (keys ->
  /// row positions). The index is owned by the database; pass it into a
  /// QuerySpec via TableAlternatives::index to enable the index-scan
  /// access path.
  StatusOr<storage::BTreeIndex*> CreateIndex(const std::string& table,
                                             const std::string& column);

  /// Builds zone maps over `table` (block min/max), enabling scan pruning.
  Status BuildZoneMaps(const std::string& table, size_t block_rows);

  // --- Querying ----------------------------------------------------------

  /// Plans `spec` under `objective`, executes the chosen plan, returns rows
  /// plus measured time/energy and the plan itself.
  StatusOr<QueryOutcome> Execute(const optimizer::QuerySpec& spec,
                                 const optimizer::Objective& objective);

  /// Executes a hand-built operator tree (bypassing the planner).
  StatusOr<QueryOutcome> Run(exec::Operator* root);

  // --- Serving -----------------------------------------------------------

  /// Admits a seeded arrival trace of many concurrent sessions onto this
  /// instance's shared platform and returns the per-session / per-tenant
  /// energy bills (DESIGN.md §12). The admission schedule and the bills are
  /// pure functions of (trace, config): replays are bit-identical.
  StatusOr<sched::ServingReport> Serve(
      const sim::ArrivalTrace& trace, const sched::ServingConfig& config,
      const sched::SessionManager::QueryFactory& factory);

  // --- Introspection -----------------------------------------------------

  StatusOr<storage::TableStorage*> table(const std::string& name);
  catalog::Catalog* catalog() { return &catalog_; }
  power::HardwarePlatform* platform() { return platform_.get(); }
  storage::StorageDevice* primary_device() { return primary_device_; }
  /// The RAID array built from hdd_count, or nullptr when none was
  /// configured. Degraded-mode experiments drive FailMember/rebuild here.
  storage::DiskArray* raid_array() { return raid_array_; }
  /// The fault injector replaying config.fault_plan, or nullptr when the
  /// plan is inactive.
  storage::FaultInjector* fault_injector() { return fault_injector_.get(); }
  optimizer::Planner* planner() { return planner_.get(); }
  optimizer::CostModel* cost_model() { return cost_model_.get(); }

  /// Whole-instance energy breakdown since Open().
  power::EnergyBreakdown EnergyReport() const {
    return platform_->BreakdownSinceStart();
  }

 private:
  explicit EcoDb(const DbConfig& config);

  DbConfig config_;
  std::unique_ptr<power::HardwarePlatform> platform_;
  std::vector<std::unique_ptr<storage::StorageDevice>> devices_;
  storage::StorageDevice* primary_device_ = nullptr;
  storage::DiskArray* raid_array_ = nullptr;
  std::unique_ptr<storage::FaultInjector> fault_injector_;
  catalog::Catalog catalog_;
  std::map<std::string, std::unique_ptr<storage::TableStorage>> tables_;
  std::map<std::string, std::unique_ptr<storage::BTreeIndex>> indexes_;
  std::unique_ptr<optimizer::CostModel> cost_model_;
  std::unique_ptr<optimizer::Planner> planner_;
};

}  // namespace ecodb::core

#endif  // ECODB_CORE_ECODB_H_
