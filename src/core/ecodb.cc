#include "core/ecodb.h"

#include "exec/scan.h"
#include "storage/hdd.h"

namespace ecodb::core {

EcoDb::EcoDb(const DbConfig& config) : config_(config) {}

StatusOr<std::unique_ptr<EcoDb>> EcoDb::Open(const DbConfig& config) {
  auto db = std::unique_ptr<EcoDb>(new EcoDb(config));

  switch (config.preset) {
    case PlatformPreset::kDl785:
      db->platform_ = power::MakeDl785Platform();
      break;
    case PlatformPreset::kFlashScan:
      db->platform_ = power::MakeFlashScanPlatform();
      break;
    case PlatformPreset::kProportional:
      db->platform_ = power::MakeProportionalPlatform();
      break;
  }
  ECODB_RETURN_IF_ERROR(
      exec::ValidateExecOptions(config.exec_options, db->platform_->cpu()));
  power::EnergyMeter* meter = db->platform_->meter();

  if (config.fault_plan.active()) {
    db->fault_injector_ =
        std::make_unique<storage::FaultInjector>(config.fault_plan);
  }
  // Wraps `device` in a FaultInjectedDevice when a fault plan is active;
  // otherwise passes it through unchanged.
  const auto with_faults = [&db, meter](
                               std::unique_ptr<storage::StorageDevice> device)
      -> std::unique_ptr<storage::StorageDevice> {
    if (db->fault_injector_ == nullptr) return device;
    return std::make_unique<storage::FaultInjectedDevice>(
        std::move(device), db->fault_injector_.get(), meter);
  };

  if (config.hdd_count > 0) {
    std::vector<std::unique_ptr<storage::StorageDevice>> members;
    members.reserve(config.hdd_count);
    for (int i = 0; i < config.hdd_count; ++i) {
      members.push_back(with_faults(std::make_unique<storage::HddDevice>(
          "hdd" + std::to_string(i), config.hdd_spec, meter)));
    }
    ECODB_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::DiskArray> array,
        storage::DiskArray::Create("array0", config.array_spec,
                                   std::move(members), meter));
    db->raid_array_ = array.get();
    db->primary_device_ = array.get();
    db->devices_.push_back(std::move(array));
    const int trays = (config.hdd_count +
                       db->platform_->chassis().disks_per_tray - 1) /
                      db->platform_->chassis().disks_per_tray;
    db->platform_->SetActiveTraysAt(0.0, trays);
  }
  for (int i = 0; i < config.ssd_count; ++i) {
    auto ssd = with_faults(std::make_unique<storage::SsdDevice>(
        "ssd" + std::to_string(i), config.ssd_spec, meter));
    if (db->primary_device_ == nullptr) db->primary_device_ = ssd.get();
    db->devices_.push_back(std::move(ssd));
  }
  if (db->primary_device_ == nullptr) {
    return Status::InvalidArgument("configure at least one storage device");
  }

  db->cost_model_ = std::make_unique<optimizer::CostModel>(
      db->platform_.get(), config.cost_params, config.exec_options);
  optimizer::PlannerOptions planner_options = config.planner_options;
  if (config.derive_dop_ladder) {
    planner_options.dops = optimizer::PlatformDopLadder(*db->platform_);
  }
  db->planner_ = std::make_unique<optimizer::Planner>(db->cost_model_.get(),
                                                      planner_options);
  return db;
}

Status EcoDb::CreateTable(const std::string& name, catalog::Schema schema) {
  return CreateTable(name, std::move(schema), storage::TableLayout::kColumn,
                     primary_device_);
}

Status EcoDb::CreateTable(const std::string& name, catalog::Schema schema,
                          storage::TableLayout layout,
                          storage::StorageDevice* device) {
  ECODB_ASSIGN_OR_RETURN(catalog::TableId id,
                         catalog_.CreateTable(name, schema));
  tables_[name] = std::make_unique<storage::TableStorage>(
      id, std::move(schema), layout, device);
  return Status::OK();
}

Status EcoDb::Load(const std::string& table,
                   const std::vector<storage::ColumnData>& columns) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  ECODB_RETURN_IF_ERROR(it->second->Append(columns));
  return Analyze(table);
}

Status EcoDb::SetCompression(const std::string& table,
                             const std::string& column,
                             storage::CompressionKind kind) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  return it->second->SetCompression(column, kind);
}

Status EcoDb::CloneWithCompression(
    const std::string& table, const std::string& variant_name,
    const std::map<std::string, storage::CompressionKind>& kinds) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  const storage::TableStorage& src = *it->second;

  ECODB_RETURN_IF_ERROR(CreateTable(variant_name, src.schema(), src.layout(),
                                    src.device()));
  storage::TableStorage* clone = tables_[variant_name].get();
  std::vector<storage::ColumnData> columns;
  columns.reserve(src.schema().num_columns());
  for (int i = 0; i < src.schema().num_columns(); ++i) {
    columns.push_back(src.RawColumn(i));
  }
  ECODB_RETURN_IF_ERROR(clone->Append(columns));
  for (const auto& [column, kind] : kinds) {
    ECODB_RETURN_IF_ERROR(clone->SetCompression(column, kind));
  }
  return Analyze(variant_name);
}

Status EcoDb::Analyze(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  catalog::TableStats stats;
  ECODB_RETURN_IF_ERROR(it->second->AnalyzeInto(&stats));
  return catalog_.UpdateStats(it->second->id(), std::move(stats));
}

StatusOr<storage::BTreeIndex*> EcoDb::CreateIndex(const std::string& table,
                                                  const std::string& column) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  const storage::TableStorage& t = *it->second;
  const int col = t.schema().FindColumn(column);
  if (col < 0) return Status::NotFound("no column " + column);
  if (!catalog::IsIntegerLike(t.schema().column(col).type)) {
    return Status::InvalidArgument("indexes require integer/date columns");
  }
  auto index = std::make_unique<storage::BTreeIndex>();
  const storage::ColumnData& data = t.RawColumn(col);
  for (uint64_t r = 0; r < t.row_count(); ++r) {
    index->Insert(data.i64[r], r);
  }
  storage::BTreeIndex* raw = index.get();
  indexes_[table + "." + column] = std::move(index);
  return raw;
}

Status EcoDb::BuildZoneMaps(const std::string& table, size_t block_rows) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  return it->second->BuildZoneMaps(block_rows);
}

StatusOr<QueryOutcome> EcoDb::Execute(const optimizer::QuerySpec& spec,
                                      const optimizer::Objective& objective) {
  ECODB_ASSIGN_OR_RETURN(optimizer::PhysicalPlan plan,
                         planner_->ChoosePlan(spec, objective));
  ECODB_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                         planner_->BuildOperator(spec, plan));

  exec::ExecOptions options = config_.exec_options;
  options.dop = plan.dop;
  options.pstate = plan.pstate;
  exec::ExecContext ctx(platform_.get(), options);
  ECODB_ASSIGN_OR_RETURN(exec::QueryResultSet rows,
                         exec::CollectAll(root.get(), &ctx));
  QueryOutcome outcome;
  outcome.rows = std::move(rows);
  outcome.stats = ctx.Finish();
  outcome.plan = plan;
  return outcome;
}

StatusOr<QueryOutcome> EcoDb::Run(exec::Operator* root) {
  exec::ExecContext ctx(platform_.get(), config_.exec_options);
  ECODB_ASSIGN_OR_RETURN(exec::QueryResultSet rows,
                         exec::CollectAll(root, &ctx));
  QueryOutcome outcome;
  outcome.rows = std::move(rows);
  outcome.stats = ctx.Finish();
  return outcome;
}

StatusOr<sched::ServingReport> EcoDb::Serve(
    const sim::ArrivalTrace& trace, const sched::ServingConfig& config,
    const sched::SessionManager::QueryFactory& factory) {
  sched::SessionManager manager(platform_.get(), config);
  return manager.Serve(trace, factory);
}

StatusOr<storage::TableStorage*> EcoDb::table(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  return it->second.get();
}

}  // namespace ecodb::core
