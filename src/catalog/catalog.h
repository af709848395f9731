// Catalog: table registry and optimizer statistics.
//
// The statistics here feed the energy-aware cost model (Section 4.1 of the
// paper: "To improve energy efficiency, query optimizers will need power
// models to estimate energy costs" — and they still need cardinalities).

#ifndef ECODB_CATALOG_CATALOG_H_
#define ECODB_CATALOG_CATALOG_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "util/status.h"

namespace ecodb::catalog {

/// Per-column statistics for selectivity estimation.
struct ColumnStats {
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;
  double min_f64 = 0.0;
  double max_f64 = 0.0;
  uint64_t distinct_values = 0;
};

struct TableStats {
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;  // parallel to the schema
};

using TableId = uint32_t;

struct TableEntry {
  TableId id = 0;
  std::string name;
  Schema schema;
  TableStats stats;
};

/// Name -> table registry. Thread-safe: lookups take a shared lock, DDL and
/// stats updates take an exclusive lock. TableEntry pointers returned by
/// GetTable stay valid for the catalog's lifetime (tables are never
/// dropped); callers must not read an entry's stats across a concurrent
/// UpdateStats of the same table.
class Catalog {
 public:
  /// Registers a table; AlreadyExists if the name is taken.
  StatusOr<TableId> CreateTable(const std::string& name, Schema schema);

  StatusOr<const TableEntry*> GetTable(const std::string& name) const;

  /// Replaces a table's statistics (set by TableStorage::AnalyzeInto).
  Status UpdateStats(TableId id, TableStats stats);

  size_t size() const {
    std::shared_lock lock(mu_);
    return by_id_.size();
  }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, TableId> by_name_;
  std::unordered_map<TableId, TableEntry> by_id_;
  TableId next_id_ = 1;
};

}  // namespace ecodb::catalog

#endif  // ECODB_CATALOG_CATALOG_H_
