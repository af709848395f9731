#include "exec/joins.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>

#include "exec/filter_project.h"

namespace ecodb::exec {

using catalog::DataType;

catalog::Schema JoinedSchema(const catalog::Schema& left,
                             const catalog::Schema& right) {
  std::vector<catalog::Column> cols = left.columns();
  for (const catalog::Column& rc : right.columns()) {
    catalog::Column c = rc;
    if (left.FindColumn(c.name) >= 0) c.name += "_r";
    cols.push_back(std::move(c));
  }
  return catalog::Schema(std::move(cols));
}

namespace {

/// Nominal resident bytes of a materialized batch.
uint64_t BatchBytes(const RecordBatch& batch) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnData& lane = batch.column(c);
    bytes += lane.i64.size() * 8 + lane.f64.size() * 8;
    for (const std::string& s : lane.str) bytes += s.size() + 16;
  }
  return bytes;
}

/// Fills `out` (left columns, then right) with the pairs (left row
/// `left_sel[i]`, right row `right_sel[i]`), copying each column once.
Status GatherJoined(const catalog::Schema& schema, const RecordBatch& left,
                    std::span<const uint32_t> left_sel,
                    const RecordBatch& right,
                    std::span<const uint32_t> right_sel, RecordBatch* out) {
  *out = RecordBatch(schema);
  out->Gather(left, left_sel);
  out->Gather(right, right_sel, left.num_columns());
  return out->SealRows(left_sel.size());
}

/// Keeps the entries of `sel` whose mask byte is set, in order.
void KeepSelected(const std::vector<uint8_t>& mask,
                  std::vector<uint32_t>* sel) {
  size_t kept = 0;
  uint32_t* rows = sel->data();
  for (size_t i = 0; i < mask.size(); ++i) {
    rows[kept] = rows[i];
    kept += mask[i] != 0;
  }
  sel->resize(kept);
}

/// The probe loop: pairs each probe row p in [0, rows), in order, with the
/// build rows of key id `key_id(p)` (none for kNoKey), ascending. The
/// selections are sized from the batch once: a unique-key build gives a
/// probe row at most one build row, key id k being row k, and otherwise a
/// first pass counts the pairs.
template <typename KeyIdFn>
void SelectPairs(const FlatKeyIndex& index, size_t rows, KeyIdFn key_id,
                 std::vector<uint32_t>* probe_sel,
                 std::vector<uint32_t>* build_sel) {
  constexpr uint32_t kNoKey = FlatKeyIndex::kNoKey;
  if (index.unique_keys()) {
    probe_sel->resize(rows);
    build_sel->resize(rows);
    uint32_t* ps = probe_sel->data();
    uint32_t* bs = build_sel->data();
    size_t n = 0;
    for (size_t p = 0; p < rows; ++p) {
      const uint32_t k = key_id(p);
      ps[n] = static_cast<uint32_t>(p);
      bs[n] = k;
      n += k != kNoKey;
    }
    probe_sel->resize(n);
    build_sel->resize(n);
    return;
  }
  std::vector<uint32_t> keys(rows);
  size_t pairs = 0;
  for (size_t p = 0; p < rows; ++p) {
    keys[p] = key_id(p);
    if (keys[p] != kNoKey) pairs += index.Rows(keys[p]).size();
  }
  probe_sel->resize(pairs);
  build_sel->resize(pairs);
  size_t n = 0;
  for (size_t p = 0; p < rows; ++p) {
    if (keys[p] == kNoKey) continue;
    const std::span<const uint32_t> run = index.Rows(keys[p]);
    std::fill_n(probe_sel->data() + n, run.size(), static_cast<uint32_t>(p));
    std::copy(run.begin(), run.end(), build_sel->data() + n);
    n += run.size();
  }
}

}  // namespace

// --------------------------------------------------------------------------
// PairFilter
// --------------------------------------------------------------------------

PairFilter::PairFilter(std::vector<ExprPtr> predicates)
    : predicates_(std::move(predicates)) {}

Status PairFilter::Bind(const catalog::Schema& joined, size_t left_columns) {
  programs_.clear();
  left_columns_ = left_columns;
  for (const ExprPtr& predicate : predicates_) {
    ECODB_ASSIGN_OR_RETURN(programs_.emplace_back(),
                           predicate->BindPredicate(joined));
  }
  return Status::OK();
}

Status PairFilter::Apply(const RecordBatch& left, const RecordBatch& right,
                         std::vector<uint32_t>* left_sel,
                         std::vector<uint32_t>* right_sel,
                         size_t* reaching) const {
  if (programs_.empty()) return Status::OK();
  EvalScratch scratch;
  std::vector<uint8_t> mask;
  for (size_t j = 0; j < programs_.size(); ++j) {
    reaching[j] = left_sel->size();
    const std::vector<int>& inputs = programs_[j].inputs();
    std::vector<ColumnData> lanes(inputs.size());
    for (size_t c = 0; c < inputs.size(); ++c) {
      const size_t col = static_cast<size_t>(inputs[c]);
      const bool is_left = col < left_columns_;
      const ColumnData& src =
          is_left ? left.column(col) : right.column(col - left_columns_);
      lanes[c].type = src.type;
      GatherColumn(src, 0, is_left ? *left_sel : *right_sel, &lanes[c]);
    }
    ECODB_RETURN_IF_ERROR(programs_[j].EvaluateMaskInto(
        lanes, left_sel->size(), &scratch, &mask));
    KeepSelected(mask, left_sel);
    KeepSelected(mask, right_sel);
  }
  return Status::OK();
}

void PairFilter::Charge(ExecContext* ctx, const size_t* reaching) const {
  // ecodb-lint: coordinator-only
  for (size_t j = 0; j < predicates_.size(); ++j) {
    ctx->ChargeInstructions(FilterInstructions(
        *predicates_[j], static_cast<double>(reaching[j])));
  }
}

// --------------------------------------------------------------------------
// HashJoinOp
// --------------------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::string left_key, std::string right_key,
                       std::vector<ExprPtr> residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_name_(std::move(left_key)),
      right_key_name_(std::move(right_key)),
      residual_(std::move(residual)) {}

Status HashJoinOp::Open(ExecContext* ctx) {
  // ecodb-lint: coordinator-only
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());

  left_key_ = left_->output_schema().FindColumn(left_key_name_);
  right_key_ = right_->output_schema().FindColumn(right_key_name_);
  if (left_key_ < 0 || right_key_ < 0) {
    return Status::NotFound("join key column not found");
  }
  const DataType lt = left_->output_schema().column(left_key_).type;
  ECODB_RETURN_IF_ERROR(CheckHashJoinKeys(
      lt, right_->output_schema().column(right_key_).type));
  string_key_ = lt == DataType::kString;

  // Build phase: materialize the right side and index it. Both replace
  // what an earlier Open left, so an Open retried after a mid-query error
  // builds once.
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &build_rows_));
  const ColumnData& key_lane = build_rows_.column(right_key_);
  if (string_key_) {
    const std::vector<std::string>& keys = key_lane.str;
    index_.Build(
        keys.size(), [&](size_t r) { return HashBytes(keys[r]); },
        [&](size_t a, size_t b) { return keys[a] == keys[b]; });
  } else {
    index_.Build(key_lane.i64);
  }
  const double build_rows = static_cast<double>(build_rows_.num_rows());
  build_bytes_ = static_cast<uint64_t>(HashBuildBytes(
      static_cast<double>(BatchBytes(build_rows_)), build_rows));
  ctx->ChargeInstructions(HashBuildInstructions(build_rows));
  ctx->ChargeDram(build_bytes_);

  probe_source_ = dynamic_cast<MorselSource*>(left_.get());
  probe_slots_.clear();
  slot_reaching_.clear();
  probed_ = false;
  probe_cursor_ = 0;
  return residual_.Bind(schema_, left_->output_schema().num_columns());
}

Status HashJoinOp::ProbeBatch(const RecordBatch& probe, RecordBatch* joined,
                              size_t* matches, size_t* reaching) const {
  const ColumnData& keys = probe.column(static_cast<size_t>(left_key_));
  const ColumnData& build_keys =
      build_rows_.column(static_cast<size_t>(right_key_));
  const size_t rows = probe.num_rows();
  std::vector<uint32_t> probe_sel;
  std::vector<uint32_t> build_sel;
  if (string_key_) {
    SelectPairs(
        index_, rows,
        [&](size_t p) {
          const std::string& key = keys.str[p];
          return index_.FindHashed(HashBytes(key), [&](uint32_t b) {
            return build_keys.str[b] == key;
          });
        },
        &probe_sel, &build_sel);
  } else if (index_.direct()) {
    const int64_t* key = keys.i64.data();
    SelectPairs(
        index_, rows, [&](size_t p) { return index_.FindDirect(key[p]); },
        &probe_sel, &build_sel);
  } else {
    SelectPairs(
        index_, rows,
        [&](size_t p) {
          const int64_t key = keys.i64[p];
          return index_.FindHashed(
              MixHash64(static_cast<uint64_t>(key)),
              [&](uint32_t b) { return build_keys.i64[b] == key; });
        },
        &probe_sel, &build_sel);
  }
  *matches = build_sel.size();
  ECODB_RETURN_IF_ERROR(
      residual_.Apply(probe, build_rows_, &probe_sel, &build_sel, reaching));
  return GatherJoined(schema_, probe, probe_sel, build_rows_, build_sel,
                      joined);
}

Status HashJoinOp::ParallelProbe() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  const size_t n_morsels = probe_source_->morsel_count();
  const size_t n_residual = residual_.size();
  probe_slots_.assign(n_morsels, RecordBatch{});
  slot_reaching_.assign(n_morsels * n_residual, 0);
  std::vector<size_t> probe_counts(n_morsels, 0);
  std::vector<size_t> match_counts(n_morsels, 0);
  WorkerPool* pool = ctx_->worker_pool();
  ECODB_RETURN_IF_ERROR(
      pool->Run(n_morsels, [&](size_t m, int /*slot*/) -> Status {
        // ecodb-lint: worker-context
        RecordBatch probe;
        ECODB_RETURN_IF_ERROR(probe_source_->ProduceMorsel(m, &probe));
        probe_counts[m] = probe.num_rows();
        return ProbeBatch(probe, &probe_slots_[m], &match_counts[m],
                          slot_reaching_.data() + m * n_residual);
      }));
  uint64_t probe_rows = 0;
  uint64_t total_matches = 0;
  for (size_t m = 0; m < n_morsels; ++m) {
    probe_rows += probe_counts[m];
    total_matches += match_counts[m];
  }
  // Same formulas as the serial probe, applied to dop-invariant totals.
  ctx_->ChargeInstructions(
      HashProbeInstructions(static_cast<double>(probe_rows)) +
      OutputInstructions(static_cast<double>(total_matches)));
  probed_ = true;
  probe_cursor_ = 0;
  return Status::OK();
}

Status HashJoinOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (probe_source_ != nullptr) {
    if (!probed_) ECODB_RETURN_IF_ERROR(ParallelProbe());
    if (probe_cursor_ >= probe_slots_.size()) {
      *eos = true;
      return Status::OK();
    }
    *eos = false;
    residual_.Charge(ctx_,
                     slot_reaching_.data() + probe_cursor_ * residual_.size());
    *out = std::move(probe_slots_[probe_cursor_]);
    ++probe_cursor_;
    return Status::OK();
  }
  RecordBatch probe;
  ECODB_RETURN_IF_ERROR(left_->Next(&probe, eos));
  if (*eos) return Status::OK();
  ctx_->ChargeInstructions(
      HashProbeInstructions(static_cast<double>(probe.num_rows())));
  size_t matches = 0;
  std::vector<size_t> reaching(residual_.size());
  ECODB_RETURN_IF_ERROR(ProbeBatch(probe, out, &matches, reaching.data()));
  ctx_->ChargeInstructions(OutputInstructions(static_cast<double>(matches)));
  residual_.Charge(ctx_, reaching.data());
  return Status::OK();
}

void HashJoinOp::Close() {
  left_->Close();
  right_->Close();
  index_ = FlatKeyIndex();
  probe_slots_.clear();
}

// --------------------------------------------------------------------------
// NestedLoopJoinOp
// --------------------------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate,
                                   std::vector<ExprPtr> residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::vector<ExprPtr>{std::move(predicate)}),
      residual_(std::move(residual)) {}

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &inner_));
  const size_t left_columns = left_->output_schema().num_columns();
  ECODB_RETURN_IF_ERROR(predicate_.Bind(schema_, left_columns));
  return residual_.Bind(schema_, left_columns);
}

Status NestedLoopJoinOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  RecordBatch outer;
  ECODB_RETURN_IF_ERROR(left_->Next(&outer, eos));
  if (*eos) return Status::OK();

  // Cross product of this outer batch with the inner side, outer-major,
  // then filter. The quadratic pair cost is the point: NLJ trades memory
  // for cycles.
  ctx_->ChargeInstructions(
      NestedLoopPairInstructions(static_cast<double>(outer.num_rows()),
                                 static_cast<double>(inner_.num_rows())));
  const size_t inner_rows = inner_.num_rows();
  std::vector<uint32_t> outer_sel(outer.num_rows() * inner_rows);
  std::vector<uint32_t> inner_sel(outer_sel.size());
  for (size_t lr = 0, i = 0; lr < outer.num_rows(); ++lr) {
    for (size_t rr = 0; rr < inner_rows; ++rr, ++i) {
      outer_sel[i] = static_cast<uint32_t>(lr);
      inner_sel[i] = static_cast<uint32_t>(rr);
    }
  }
  size_t unbilled = 0;
  ECODB_RETURN_IF_ERROR(
      predicate_.Apply(outer, inner_, &outer_sel, &inner_sel, &unbilled));
  ctx_->ChargeInstructions(
      OutputInstructions(static_cast<double>(outer_sel.size())));
  std::vector<size_t> reaching(residual_.size());
  ECODB_RETURN_IF_ERROR(residual_.Apply(outer, inner_, &outer_sel,
                                        &inner_sel, reaching.data()));
  residual_.Charge(ctx_, reaching.data());
  return GatherJoined(schema_, outer, outer_sel, inner_, inner_sel, out);
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_->Close();
}

// --------------------------------------------------------------------------
// MergeJoinOp
// --------------------------------------------------------------------------

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::string left_key, std::string right_key,
                         std::vector<ExprPtr> residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_name_(std::move(left_key)),
      right_key_name_(std::move(right_key)),
      residual_(std::move(residual)) {}

Status MergeJoinOp::Open(ExecContext* ctx) {
  // ecodb-lint: coordinator-only
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());

  const int lk = left_->output_schema().FindColumn(left_key_name_);
  const int rk = right_->output_schema().FindColumn(right_key_name_);
  if (lk < 0 || rk < 0) return Status::NotFound("join key column not found");
  ECODB_RETURN_IF_ERROR(
      CheckMergeJoinKeys(left_->output_schema().column(lk).type,
                         right_->output_schema().column(rk).type));

  ECODB_RETURN_IF_ERROR(Drain(left_.get(), ctx, &left_rows_));
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &right_rows_));

  auto sorted_order = [&](const RecordBatch& b, int key) {
    std::vector<uint32_t> order(b.num_rows());
    std::iota(order.begin(), order.end(), uint32_t{0});
    const ColumnData& lane = b.column(key);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t c) {
      return lane.i64[a] < lane.i64[c];
    });
    return order;
  };
  const std::vector<uint32_t> lorder = sorted_order(left_rows_, lk);
  const std::vector<uint32_t> rorder = sorted_order(right_rows_, rk);
  const double left_rows = static_cast<double>(left_rows_.num_rows());
  const double right_rows = static_cast<double>(right_rows_.num_rows());
  ctx->ChargeInstructions(MergeJoinSortInstructions(left_rows, right_rows));

  // Merge equal-key runs into the output's row pairs.
  left_sel_.clear();
  right_sel_.clear();
  const ColumnData& lkeys = left_rows_.column(lk);
  const ColumnData& rkeys = right_rows_.column(rk);
  size_t i = 0, j = 0;
  while (i < lorder.size() && j < rorder.size()) {
    const int64_t lv = lkeys.i64[lorder[i]];
    const int64_t rv = rkeys.i64[rorder[j]];
    if (lv < rv) {
      ++i;
    } else if (lv > rv) {
      ++j;
    } else {
      size_t jend = j;
      while (jend < rorder.size() && rkeys.i64[rorder[jend]] == lv) ++jend;
      size_t iend = i;
      while (iend < lorder.size() && lkeys.i64[lorder[iend]] == lv) ++iend;
      for (size_t a = i; a < iend; ++a) {
        for (size_t b = j; b < jend; ++b) {
          left_sel_.push_back(lorder[a]);
          right_sel_.push_back(rorder[b]);
        }
      }
      i = iend;
      j = jend;
    }
  }
  ctx->ChargeInstructions(MergeJoinWalkInstructions(
      left_rows, right_rows, static_cast<double>(left_sel_.size())));
  cursor_ = 0;
  return residual_.Bind(schema_, left_->output_schema().num_columns());
}

Status MergeJoinOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  const size_t batch_rows = ctx_->options().batch_rows;
  if (cursor_ >= left_sel_.size()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  const size_t take = std::min(batch_rows, left_sel_.size() - cursor_);
  const auto slice = [&](const std::vector<uint32_t>& sel) {
    return std::vector<uint32_t>(sel.begin() + cursor_,
                                 sel.begin() + cursor_ + take);
  };
  std::vector<uint32_t> left_sel = slice(left_sel_);
  std::vector<uint32_t> right_sel = slice(right_sel_);
  std::vector<size_t> reaching(residual_.size());
  ECODB_RETURN_IF_ERROR(residual_.Apply(left_rows_, right_rows_, &left_sel,
                                        &right_sel, reaching.data()));
  residual_.Charge(ctx_, reaching.data());
  ECODB_RETURN_IF_ERROR(GatherJoined(schema_, left_rows_, left_sel,
                                     right_rows_, right_sel, out));
  cursor_ += take;
  return Status::OK();
}

void MergeJoinOp::Close() {
  left_->Close();
  right_->Close();
}

}  // namespace ecodb::exec
