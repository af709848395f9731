#include "exec/index_scan.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "storage/page.h"

namespace ecodb::exec {

IndexScanOp::IndexScanOp(const storage::TableStorage* table,
                         const storage::BTreeIndex* index,
                         std::vector<std::string> columns, int64_t lo,
                         int64_t hi)
    : table_(table),
      index_(index),
      column_names_(std::move(columns)),
      lo_(lo),
      hi_(hi) {}

Status IndexScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;

  column_indexes_.clear();
  if (column_names_.empty()) {
    for (int i = 0; i < table_->schema().num_columns(); ++i) {
      column_indexes_.push_back(i);
      column_names_.push_back(table_->schema().column(i).name);
    }
  } else {
    for (const std::string& name : column_names_) {
      const int idx = table_->schema().FindColumn(name);
      if (idx < 0) return Status::NotFound("index scan column '" + name +
                                           "'");
      column_indexes_.push_back(idx);
    }
  }
  schema_ = table_->schema().ProjectIndexes(column_indexes_);

  // --- Index probe: real tree traversal.
  row_ids_ = index_->RangeScan(lo_, hi_);
  for (uint64_t id : row_ids_) {
    if (id >= table_->row_count()) {
      return Status::Internal("index row id out of table range");
    }
  }

  // --- Device charging. Index pages are random reads (root-to-leaf path
  // plus the qualifying leaf chain); heap rows are fetched page-wise, with
  // adjacent row ids sharing a page.
  const uint64_t page = storage::Page::kPageSize;
  const size_t index_pages = index_->PagesForRange(lo_, hi_);
  const int row_width = std::max(1, table_->schema().RowWidthBytes());
  const uint64_t rows_per_page = std::max<uint64_t>(1, page / row_width);
  std::set<uint64_t> pages;
  for (uint64_t id : row_ids_) pages.insert(id / rows_per_page);
  heap_pages_ = pages.size();

  if (table_->device() != nullptr) {
    for (size_t i = 0; i < index_pages; ++i) {
      ECODB_RETURN_IF_ERROR(ctx->PollCancel());
      ECODB_RETURN_IF_ERROR(
          ctx->ChargeRead(table_->device(), page, /*sequential=*/false));
    }
    for (size_t i = 0; i < heap_pages_; ++i) {
      ECODB_RETURN_IF_ERROR(ctx->PollCancel());
      ECODB_RETURN_IF_ERROR(
          ctx->ChargeRead(table_->device(), page, /*sequential=*/false));
    }
  }

  // --- CPU: descent comparisons + per-match touch.
  ctx->ChargeInstructions(
      IndexScanInstructions(static_cast<double>(index_->height()),
                            static_cast<double>(row_ids_.size()),
                            static_cast<double>(column_indexes_.size())));
  cursor_ = 0;
  open_ = true;
  return Status::OK();
}

Status IndexScanOp::Next(RecordBatch* out, bool* eos) {
  if (!open_) return Status::FailedPrecondition("index scan not open");
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (cursor_ >= row_ids_.size()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  const size_t take =
      std::min(ctx_->options().batch_rows, row_ids_.size() - cursor_);
  RecordBatch batch(schema_);
  for (size_t i = 0; i < take; ++i) {
    const size_t row = row_ids_[cursor_ + i];
    for (size_t c = 0; c < column_indexes_.size(); ++c) {
      const storage::ColumnData& src =
          table_->RawColumn(column_indexes_[c]);
      storage::ColumnData& dst = batch.column(c);
      switch (src.type) {
        case catalog::DataType::kInt64:
        case catalog::DataType::kDate:
          dst.i64.push_back(src.i64[row]);
          break;
        case catalog::DataType::kDouble:
          dst.f64.push_back(src.f64[row]);
          break;
        case catalog::DataType::kString:
          dst.str.push_back(src.str[row]);
          break;
      }
    }
  }
  ECODB_RETURN_IF_ERROR(batch.SealRows(take));
  cursor_ += take;
  *out = std::move(batch);
  return Status::OK();
}

void IndexScanOp::Close() { open_ = false; }

}  // namespace ecodb::exec
