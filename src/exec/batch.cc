#include "exec/batch.h"

#include <algorithm>
#include <cassert>

namespace ecodb::exec {

namespace {

template <typename T>
void GatherLane(const std::vector<T>& src, size_t offset,
                std::span<const uint32_t> rows, std::vector<T>* dst) {
  const size_t base = dst->size();
  dst->resize(base + rows.size());
  const T* in = src.data() + offset;
  T* out = dst->data() + base;
  for (size_t i = 0; i < rows.size(); ++i) out[i] = in[rows[i]];
}

/// Moves the rows whose mask entry is set to the front of `lane`, in
/// order, and drops the rest.
template <typename T>
void CompactLane(const std::vector<uint8_t>& mask, std::vector<T>* lane) {
  size_t kept = 0;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (!mask[r]) continue;
    if (kept != r) (*lane)[kept] = std::move((*lane)[r]);
    ++kept;
  }
  lane->resize(kept);
}

}  // namespace

void GatherColumn(const ColumnData& src, size_t offset,
                  std::span<const uint32_t> rows, ColumnData* dst) {
  assert(src.type == dst->type);
  switch (dst->type) {
    case catalog::DataType::kInt64:
    case catalog::DataType::kDate:
      GatherLane(src.i64, offset, rows, &dst->i64);
      break;
    case catalog::DataType::kDouble:
      GatherLane(src.f64, offset, rows, &dst->f64);
      break;
    case catalog::DataType::kString:
      GatherLane(src.str, offset, rows, &dst->str);
      break;
  }
}

RecordBatch::RecordBatch(catalog::Schema schema)
    : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    columns_[i].type = schema_.column(i).type;
  }
}

Value RecordBatch::GetValue(size_t row, size_t col) const {
  assert(row < num_rows_ && col < columns_.size());
  const ColumnData& c = columns_[col];
  Value v;
  v.type = c.type;
  switch (c.type) {
    case catalog::DataType::kInt64:
    case catalog::DataType::kDate:
      v.i64 = c.i64[row];
      break;
    case catalog::DataType::kDouble:
      v.f64 = c.f64[row];
      break;
    case catalog::DataType::kString:
      v.str = c.str[row];
      break;
  }
  return v;
}

Status RecordBatch::AppendRow(const std::vector<Value>& row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type != columns_[i].type) {
      return Status::InvalidArgument("row type mismatch at column " +
                                     std::to_string(i));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    ColumnData& c = columns_[i];
    switch (c.type) {
      case catalog::DataType::kInt64:
      case catalog::DataType::kDate:
        c.i64.push_back(row[i].i64);
        break;
      case catalog::DataType::kDouble:
        c.f64.push_back(row[i].f64);
        break;
      case catalog::DataType::kString:
        c.str.push_back(row[i].str);
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

Status RecordBatch::SealRows(size_t rows) {
  for (const ColumnData& c : columns_) {
    if (c.size() != rows) {
      return Status::InvalidArgument("lane length does not match seal count");
    }
  }
  num_rows_ = rows;
  return Status::OK();
}

void RecordBatch::Gather(const RecordBatch& src,
                         std::span<const uint32_t> rows, size_t first_col) {
  assert(first_col + src.num_columns() <= columns_.size());
  for (size_t c = 0; c < src.num_columns(); ++c) {
    GatherColumn(src.columns_[c], 0, rows, &columns_[first_col + c]);
  }
}

void RecordBatch::FilterInPlace(const std::vector<uint8_t>& mask) {
  assert(mask.size() == num_rows_);
  for (ColumnData& c : columns_) {
    switch (c.type) {
      case catalog::DataType::kInt64:
      case catalog::DataType::kDate:
        CompactLane(mask, &c.i64);
        break;
      case catalog::DataType::kDouble:
        CompactLane(mask, &c.f64);
        break;
      case catalog::DataType::kString:
        CompactLane(mask, &c.str);
        break;
    }
  }
  num_rows_ = static_cast<size_t>(
      std::count_if(mask.begin(), mask.end(), [](uint8_t m) { return m != 0; }));
}

}  // namespace ecodb::exec
