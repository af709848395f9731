#include "catalog/catalog.h"

#include <mutex>

namespace ecodb::catalog {

StatusOr<TableId> Catalog::CreateTable(const std::string& name,
                                       Schema schema) {
  std::unique_lock lock(mu_);
  if (by_name_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  const TableId id = next_id_++;
  TableEntry entry;
  entry.id = id;
  entry.name = name;
  entry.schema = std::move(schema);
  entry.stats.columns.resize(entry.schema.num_columns());
  by_name_.emplace(name, id);
  by_id_.emplace(id, std::move(entry));
  return id;
}

StatusOr<const TableEntry*> Catalog::GetTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return GetTableLocked(it->second);
}

StatusOr<const TableEntry*> Catalog::GetTable(TableId id) const {
  std::shared_lock lock(mu_);
  return GetTableLocked(id);
}

StatusOr<const TableEntry*> Catalog::GetTableLocked(TableId id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("no such table id");
  return &it->second;
}

Status Catalog::DropTable(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  by_id_.erase(it->second);
  by_name_.erase(it);
  return Status::OK();
}

Status Catalog::UpdateStats(TableId id, TableStats stats) {
  std::unique_lock lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("no such table id");
  it->second.stats = std::move(stats);
  return Status::OK();
}

Status Catalog::AddForeignKey(TableId id, ForeignKey fk) {
  std::unique_lock lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("no such table id");
  if (it->second.schema.FindColumn(fk.column) < 0) {
    return Status::InvalidArgument("foreign-key column '" + fk.column +
                                   "' missing from '" + it->second.name + "'");
  }
  auto parent_it = by_name_.find(fk.parent_table);
  if (parent_it == by_name_.end()) {
    return Status::NotFound("foreign-key parent table '" + fk.parent_table +
                            "' not registered");
  }
  const TableEntry& parent = by_id_.at(parent_it->second);
  if (parent.schema.FindColumn(fk.parent_column) < 0) {
    return Status::InvalidArgument("foreign-key parent column '" +
                                   fk.parent_column + "' missing from '" +
                                   fk.parent_table + "'");
  }
  it->second.foreign_keys.push_back(std::move(fk));
  return Status::OK();
}

}  // namespace ecodb::catalog
