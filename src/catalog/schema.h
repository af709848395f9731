// Relational schema: data types, columns, and table definitions.

#ifndef ECODB_CATALOG_SCHEMA_H_
#define ECODB_CATALOG_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace ecodb::catalog {

/// Column data types. kDate is stored as int64 days-since-epoch.
enum class DataType {
  kInt64,
  kDouble,
  kString,
  kDate,
};

/// Whether the type's values are stored in the int64 lane of a column.
inline bool IsIntegerLike(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDate;
}

/// Nominal width in bytes for I/O volume accounting.
int TypeWidthBytes(DataType type, int avg_string_len = 16);

struct Column {
  std::string name;
  DataType type = DataType::kInt64;
  /// Average payload width for strings (bytes); ignored otherwise.
  int avg_width = 16;

  bool operator==(const Column&) const = default;
};

/// Ordered column list with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column named `name`, or -1.
  int FindColumn(const std::string& name) const;

  /// Sum of column widths: bytes per row in an uncompressed row layout.
  int RowWidthBytes() const;

  /// Projection by index.
  Schema ProjectIndexes(const std::vector<int>& indexes) const;

  bool operator==(const Schema&) const = default;

 private:
  std::vector<Column> columns_;
};

}  // namespace ecodb::catalog

#endif  // ECODB_CATALOG_SCHEMA_H_
