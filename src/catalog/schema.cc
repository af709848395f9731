#include "catalog/schema.h"

namespace ecodb::catalog {

int TypeWidthBytes(DataType type, int avg_string_len) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kDate:
      return 8;
    case DataType::kString:
      return avg_string_len;
  }
  return 8;
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

int Schema::FindColumn(const std::string& name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return -1;
}

int Schema::RowWidthBytes() const {
  int width = 0;
  for (const Column& c : columns_) {
    width += TypeWidthBytes(c.type, c.avg_width);
  }
  return width;
}

Schema Schema::ProjectIndexes(const std::vector<int>& indexes) const {
  std::vector<Column> cols;
  cols.reserve(indexes.size());
  for (int i : indexes) cols.push_back(columns_[i]);
  return Schema(std::move(cols));
}

}  // namespace ecodb::catalog
