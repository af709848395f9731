#include "exec/scan.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "exec/exec_context.h"
#include "exec/filter_project.h"
#include "exec/operator.h"
#include "storage/zone_map.h"

namespace ecodb::exec {

StatusOr<QueryResultSet> CollectAll(Operator* root, ExecContext* ctx) {
  // Poll before Open so a session whose deadline sits exactly at its
  // admission instant stops before charging any work at all.
  ECODB_RETURN_IF_ERROR(ctx->PollCancel());
  ECODB_RETURN_IF_ERROR(root->Open(ctx));
  QueryResultSet result;
  result.schema = root->output_schema();
  bool eos = false;
  while (!eos) {
    ECODB_RETURN_IF_ERROR(ctx->PollCancel());
    RecordBatch batch;
    ECODB_RETURN_IF_ERROR(root->Next(&batch, &eos));
    if (batch.num_rows() > 0) {
      ctx->CountRows(batch.num_rows());
      result.batches.push_back(std::move(batch));
    }
  }
  root->Close();
  return result;
}

Status Drain(Operator* child, ExecContext* ctx, RecordBatch* out) {
  *out = RecordBatch(child->output_schema());
  std::vector<RecordBatch> batches;
  size_t rows = 0;
  bool eos = false;
  while (true) {
    ECODB_RETURN_IF_ERROR(ctx->PollCancel());
    RecordBatch batch;
    ECODB_RETURN_IF_ERROR(child->Next(&batch, &eos));
    if (eos) break;
    rows += batch.num_rows();
    batches.push_back(std::move(batch));
  }
  // One contiguous insert per lane and batch, into lanes sized once. The
  // values are copied, not moved: moving the first batch and the strings
  // in measured slower on join_graph's q3 and q9.
  for (size_t c = 0; c < out->num_columns(); ++c) {
    ColumnData& lane = out->column(c);
    const auto append = [&](auto member) {
      auto& dst = lane.*member;
      dst.reserve(rows);
      for (const RecordBatch& batch : batches) {
        const auto& src = batch.column(c).*member;
        dst.insert(dst.end(), src.begin(), src.end());
      }
    };
    switch (lane.type) {
      case catalog::DataType::kInt64:
      case catalog::DataType::kDate:
        append(&ColumnData::i64);
        break;
      case catalog::DataType::kDouble:
        append(&ColumnData::f64);
        break;
      case catalog::DataType::kString:
        append(&ColumnData::str);
        break;
    }
  }
  return out->SealRows(rows);
}

namespace {

/// Copies rows [range.begin, range.end) of `src` into `dst`.
void CopyRange(const ColumnData& src, ScanRowRange range, ColumnData* dst) {
  const auto first = static_cast<long>(range.begin);
  const auto last = static_cast<long>(range.end);
  dst->type = src.type;
  switch (src.type) {
    case catalog::DataType::kInt64:
    case catalog::DataType::kDate:
      dst->i64.assign(src.i64.begin() + first, src.i64.begin() + last);
      break;
    case catalog::DataType::kDouble:
      dst->f64.assign(src.f64.begin() + first, src.f64.begin() + last);
      break;
    case catalog::DataType::kString:
      dst->str.assign(src.str.begin() + first, src.str.begin() + last);
      break;
  }
}

// Conservative per-block predicate check: may a row in a block whose values
// lie in [zmin, zmax] satisfy `op` against literal `v`? Integers compare as
// integers and anything else through double, as Expr's comparisons do.
template <typename T>
bool ZoneMayMatch(CompareOp op, T zmin, T zmax, T v) {
  switch (op) {
    case CompareOp::kEq:
      return zmin <= v && v <= zmax;
    case CompareOp::kNe:
      return !(zmin == v && zmax == v);
    case CompareOp::kLt:
      return zmin < v;
    case CompareOp::kLe:
      return zmin <= v;
    case CompareOp::kGt:
      return zmax > v;
    case CompareOp::kGe:
      return zmax >= v;
  }
  return true;
}

// Recursively evaluates the prune filter over zone maps into a per-block
// "may match" bitmap. Unknown shapes prune nothing (all true).
std::vector<bool> ZoneBlocksMayMatch(const ExprPtr& e,
                                     const storage::TableStorage& table) {
  const storage::ZoneMapSet& zones = table.zone_maps();
  const size_t n = zones.num_blocks();
  std::vector<bool> all(n, true);
  if (e == nullptr) return all;

  switch (e->kind()) {
    case ExprKind::kLogical: {
      std::vector<bool> l = ZoneBlocksMayMatch(e->lhs(), table);
      const std::vector<bool> r = ZoneBlocksMayMatch(e->rhs(), table);
      for (size_t i = 0; i < n; ++i) {
        l[i] = e->logical_op() == LogicalOp::kAnd ? (l[i] && r[i])
                                                  : (l[i] || r[i]);
      }
      return l;
    }
    case ExprKind::kCompare: {
      const std::optional<ColumnCompare> c = NormalizeColumnCompare(e);
      if (!c.has_value()) return all;
      const int col = table.schema().FindColumn(c->column);
      if (col < 0) return all;
      const CompareOp op = c->op;
      const Value& lit = c->literal;

      const catalog::DataType type = table.schema().column(col).type;
      std::vector<bool> out(n, true);
      for (size_t b = 0; b < n; ++b) {
        const storage::ZoneEntry& z = table.zone_maps().entries[col][b];
        if (catalog::IsIntegerLike(type) && catalog::IsIntegerLike(lit.type)) {
          out[b] = ZoneMayMatch(op, z.min_i64, z.max_i64, lit.i64);
          continue;
        }
        double zmin, zmax, v;
        if (type == catalog::DataType::kDouble) {
          zmin = z.min_f64;
          zmax = z.max_f64;
          v = lit.AsDouble();
        } else if (type == catalog::DataType::kString) {
          if (lit.type != catalog::DataType::kString) return all;
          zmin = static_cast<double>(z.min_i64);
          zmax = static_cast<double>(z.max_i64);
          v = static_cast<double>(storage::ZoneStringPrefixKey(lit.str));
          // Prefix summaries only support equality pruning safely (two
          // different strings can share a prefix key).
          if (op != CompareOp::kEq) return all;
        } else {
          zmin = static_cast<double>(z.min_i64);
          zmax = static_cast<double>(z.max_i64);
          v = lit.AsDouble();
        }
        out[b] = ZoneMayMatch(op, zmin, zmax, v);
      }
      return out;
    }
    default:
      return all;  // NOT and arithmetic shapes: no pruning
  }
}

}  // namespace

ScanPruning PruneScan(const ExprPtr& filter,
                      const storage::TableStorage& table) {
  ScanPruning out;
  const size_t total_rows = table.row_count();
  const bool pruning =
      filter != nullptr && !table.zone_maps().empty() && total_rows > 0;
  if (!pruning) {
    out.ranges.push_back({0, total_rows});
    return out;
  }
  const std::vector<bool> keep = ZoneBlocksMayMatch(filter, table);
  const size_t block_rows = table.zone_maps().block_rows;
  size_t kept_blocks = 0;
  for (size_t b = 0; b < keep.size(); ++b) {
    if (!keep[b]) {
      ++out.blocks_skipped;
      continue;
    }
    ++kept_blocks;
    const size_t begin = b * block_rows;
    const size_t end = std::min(total_rows, begin + block_rows);
    if (!out.ranges.empty() && out.ranges.back().end == begin) {
      out.ranges.back().end = end;  // coalesce adjacent blocks
    } else {
      out.ranges.push_back({begin, end});
    }
  }
  out.selected_fraction = keep.empty()
                              ? 1.0
                              : static_cast<double>(kept_blocks) /
                                    static_cast<double>(keep.size());
  return out;
}

double ScanFilterInstructions(const Expr& filter, const ScanPruning& pruning) {
  uint64_t selected = 0;
  for (const ScanRowRange& r : pruning.ranges) selected += r.end - r.begin;
  return FilterInstructions(filter, static_cast<double>(selected));
}

std::vector<ScanRowRange> MorselizeRanges(
    const std::vector<ScanRowRange>& ranges, size_t block_rows,
    size_t target_rows) {
  const size_t align = std::max<size_t>(1, block_rows);
  // Round the target up to a whole number of zone blocks so every cut
  // lands on a block boundary (ranges already start block-aligned).
  const size_t step = std::max(align, (target_rows + align - 1) / align * align);
  std::vector<ScanRowRange> morsels;
  for (const ScanRowRange& r : ranges) {
    for (size_t begin = r.begin; begin < r.end; begin += step) {
      morsels.push_back({begin, std::min(r.end, begin + step)});
    }
  }
  return morsels;
}

TableScanOp::TableScanOp(const storage::TableStorage* table,
                         std::vector<std::string> columns,
                         ExprPtr prune_filter, ExprPtr exact_filter)
    : table_(table),
      column_names_(std::move(columns)),
      prune_filter_(std::move(prune_filter)),
      exact_filter_(std::move(exact_filter)) {}

Status TableScanOp::Open(ExecContext* ctx) {
  // ecodb-lint: coordinator-only
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(ctx->PollCancel());

  column_indexes_.clear();
  if (column_names_.empty()) {
    for (int i = 0; i < table_->schema().num_columns(); ++i) {
      column_indexes_.push_back(i);
      column_names_.push_back(table_->schema().column(i).name);
    }
  } else {
    for (const std::string& name : column_names_) {
      const int idx = table_->schema().FindColumn(name);
      if (idx < 0) return Status::NotFound("scan column '" + name + "'");
      column_indexes_.push_back(idx);
    }
  }
  schema_ = table_->schema().ProjectIndexes(column_indexes_);
  if (exact_filter_ != nullptr) {
    ECODB_ASSIGN_OR_RETURN(filter_program_,
                           exact_filter_->BindPredicate(schema_));
  }

  // --- Zone-map pruning: selected row ranges + the surviving fraction.
  ScanPruning pruning = PruneScan(prune_filter_, *table_);
  blocks_skipped_ = pruning.blocks_skipped;

  // --- Device transfer (skipped blocks skip their bytes where the storage
  // format allows it).
  const uint64_t bytes =
      table_->ScanBytes(column_indexes_, pruning.selected_fraction);
  double shared_ready = 0.0;
  if (ctx->ConsumeSharedScan(table_, &shared_ready)) {
    // This scan rides another session's in-window transfer of the same
    // table: the paying session billed the device; this query only waits
    // for the shared data to become available.
    ctx->JoinIoCompletion(shared_ready);
  } else if (bytes > 0 && table_->device() != nullptr) {
    ECODB_RETURN_IF_ERROR(
        ctx->ChargeRead(table_->device(), bytes, /*sequential=*/true));
  }
  ctx->ChargeInstructions(ScanDecodeInstructions(ctx->options().decode_scale,
                                                 *table_, column_indexes_,
                                                 pruning.selected_fraction));

  // Column sources: borrow uncompressed lanes in place; decode compressed
  // columns across the pool (one task per compressed column).
  const size_t n_cols = column_indexes_.size();
  sources_.assign(n_cols, nullptr);
  owned_decodes_.assign(n_cols, storage::ColumnData{});
  std::vector<size_t> to_decode;
  for (size_t c = 0; c < n_cols; ++c) {
    const int idx = column_indexes_[c];
    if (table_->column_layout(idx).compression ==
        storage::CompressionKind::kNone) {
      sources_[c] = &table_->RawColumn(idx);
    } else {
      to_decode.push_back(c);
    }
  }
  if (!to_decode.empty()) {
    WorkerPool* pool = ctx->worker_pool();
    ECODB_RETURN_IF_ERROR(pool->Run(
        to_decode.size(), [&](size_t t, int /*slot*/) -> Status {
          // ecodb-lint: worker-context
          const size_t c = to_decode[t];
          ECODB_ASSIGN_OR_RETURN(owned_decodes_[c],
                                 table_->ReadColumn(column_indexes_[c]));
          return Status::OK();
        }));
    for (size_t c : to_decode) sources_[c] = &owned_decodes_[c];
  }

  morsels_ = MorselizeRanges(pruning.ranges, table_->zone_maps().block_rows,
                             ctx->options().morsel_rows);

  // The fused filter's modeled cost is charged up front from the selected
  // row total (dop-invariant; what a downstream FilterOp would charge on
  // the scan's output).
  if (exact_filter_ != nullptr) {
    ctx->ChargeInstructions(ScanFilterInstructions(*exact_filter_, pruning));
  }

  slots_.clear();
  materialized_ = false;
  cursor_ = 0;
  open_ = true;
  return Status::OK();
}

Status TableScanOp::ProduceRange(ScanRowRange range,
                                 RecordBatch* out) const {
  // ecodb-lint: worker-context
  const size_t take = range.end - range.begin;
  RecordBatch batch(schema_);
  size_t rows = take;
  if (exact_filter_ == nullptr) {
    for (size_t c = 0; c < sources_.size(); ++c) {
      CopyRange(*sources_[c], range, &batch.column(c));
    }
  } else {
    // Evaluate the filter over the lanes it reads, then gather the
    // surviving rows of every projected lane straight from its source.
    const std::vector<int>& inputs = filter_program_.inputs();
    std::vector<ColumnData> probe(inputs.size());
    for (size_t f = 0; f < inputs.size(); ++f) {
      CopyRange(*sources_[static_cast<size_t>(inputs[f])], range, &probe[f]);
    }
    EvalScratch scratch;
    std::vector<uint8_t> mask;
    ECODB_RETURN_IF_ERROR(
        filter_program_.EvaluateMaskInto(probe, take, &scratch, &mask));
    std::vector<uint32_t> selected(take);
    rows = 0;
    for (size_t r = 0; r < take; ++r) {  // branch-free selection vector
      selected[rows] = static_cast<uint32_t>(r);
      rows += mask[r] != 0;
    }
    selected.resize(rows);
    for (size_t c = 0; c < sources_.size(); ++c) {
      GatherColumn(*sources_[c], range.begin, selected, &batch.column(c));
    }
  }
  ECODB_RETURN_IF_ERROR(batch.SealRows(rows));
  *out = std::move(batch);
  return Status::OK();
}

Status TableScanOp::ProduceMorsel(size_t index, RecordBatch* out) const {
  // ecodb-lint: worker-context
  assert(index < morsels_.size());
  return ProduceRange(morsels_[index], out);
}

Status TableScanOp::Materialize() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  // Batches of at most batch_rows, each cut from one morsel: the rows and
  // their order are the morsels', only the batch granularity differs.
  const std::vector<ScanRowRange> batches =
      MorselizeRanges(morsels_, 1, ctx_->options().batch_rows);
  WorkerPool* pool = ctx_->worker_pool();
  slots_.assign(batches.size(), RecordBatch{});
  ECODB_RETURN_IF_ERROR(
      pool->Run(batches.size(), [&](size_t b, int /*slot*/) -> Status {
        // ecodb-lint: worker-context
        return ProduceRange(batches[b], &slots_[b]);
      }));
  materialized_ = true;
  cursor_ = 0;
  return Status::OK();
}

Status TableScanOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  if (!open_) return Status::FailedPrecondition("scan not open");
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (!materialized_) ECODB_RETURN_IF_ERROR(Materialize());
  if (cursor_ >= slots_.size()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  *out = std::move(slots_[cursor_]);
  ++cursor_;
  return Status::OK();
}

void TableScanOp::Close() {
  sources_.clear();
  owned_decodes_.clear();
  slots_.clear();
  open_ = false;
}

}  // namespace ecodb::exec
