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
  return &by_id_.at(it->second);
}

Status Catalog::UpdateStats(TableId id, TableStats stats) {
  std::unique_lock lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("no such table id");
  it->second.stats = std::move(stats);
  return Status::OK();
}

}  // namespace ecodb::catalog
