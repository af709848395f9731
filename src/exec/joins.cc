#include "exec/joins.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>

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

constexpr auto kHashInt64 = [](int64_t key) {
  return MixHash64(static_cast<uint64_t>(key));
};
constexpr auto kHashString = [](const std::string& key) {
  return HashBytes(key);
};

/// Groups the build key lane's rows by key; keys compare with ==.
template <typename Key, typename Hash>
void BuildIndex(const std::vector<Key>& keys, Hash hash, FlatKeyIndex* index) {
  index->Build(
      keys.size(), [&](size_t r) { return hash(keys[r]); },
      [&](size_t a, size_t b) { return keys[a] == keys[b]; });
}

/// Selects, for each probe row in order, the pairs (probe row, build row)
/// of its matches in ascending build-row order.
template <typename Key, typename Hash>
void ProbeIndex(const FlatKeyIndex& index, const std::vector<Key>& build_keys,
                const std::vector<Key>& probe_keys, Hash hash,
                std::vector<uint32_t>* probe_sel,
                std::vector<uint32_t>* build_sel) {
  for (size_t r = 0; r < probe_keys.size(); ++r) {
    const Key& key = probe_keys[r];
    const std::span<const uint32_t> run = index.Find(
        hash(key), [&](uint32_t b) { return build_keys[b] == key; });
    probe_sel->insert(probe_sel->end(), run.size(), static_cast<uint32_t>(r));
    build_sel->insert(build_sel->end(), run.begin(), run.end());
  }
}

}  // namespace

// --------------------------------------------------------------------------
// HashJoinOp
// --------------------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::string left_key, std::string right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_name_(std::move(left_key)),
      right_key_name_(std::move(right_key)) {}

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
  const DataType rt = right_->output_schema().column(right_key_).type;
  if ((lt == DataType::kString) != (rt == DataType::kString)) {
    return Status::InvalidArgument("join key type mismatch");
  }
  if (lt == DataType::kDouble || rt == DataType::kDouble) {
    return Status::InvalidArgument("hash join keys must be int64 or string");
  }
  string_key_ = lt == DataType::kString;

  // Build phase: materialize the right side and index it. Both replace
  // what an earlier Open left, so an Open retried after a mid-query error
  // builds once.
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &build_rows_));
  const ColumnData& key_lane = build_rows_.column(right_key_);
  if (string_key_) {
    BuildIndex(key_lane.str, kHashString, &index_);
  } else {
    BuildIndex(key_lane.i64, kHashInt64, &index_);
  }
  const double build_rows = static_cast<double>(build_rows_.num_rows());
  build_bytes_ = static_cast<uint64_t>(HashBuildBytes(
      static_cast<double>(BatchBytes(build_rows_)), build_rows));
  ctx->ChargeInstructions(HashBuildInstructions(build_rows));
  ctx->ChargeDram(build_bytes_);

  probe_source_ = dynamic_cast<MorselSource*>(left_.get());
  probe_slots_.clear();
  probed_ = false;
  probe_cursor_ = 0;
  return Status::OK();
}

Status HashJoinOp::ProbeBatch(const RecordBatch& probe, RecordBatch* joined,
                              size_t* matches) const {
  const ColumnData& keys = probe.column(static_cast<size_t>(left_key_));
  const ColumnData& build_keys =
      build_rows_.column(static_cast<size_t>(right_key_));
  std::vector<uint32_t> probe_sel;
  std::vector<uint32_t> build_sel;
  if (string_key_) {
    ProbeIndex(index_, build_keys.str, keys.str, kHashString, &probe_sel,
               &build_sel);
  } else {
    ProbeIndex(index_, build_keys.i64, keys.i64, kHashInt64, &probe_sel,
               &build_sel);
  }
  *matches = build_sel.size();
  return GatherJoined(schema_, probe, probe_sel, build_rows_, build_sel,
                      joined);
}

Status HashJoinOp::ParallelProbe() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  const size_t n_morsels = probe_source_->morsel_count();
  probe_slots_.assign(n_morsels, RecordBatch{});
  std::vector<size_t> match_counts(n_morsels, 0);
  WorkerPool* pool = ctx_->worker_pool();
  std::vector<WorkAccumulator> accs(static_cast<size_t>(pool->parallelism()));
  ECODB_RETURN_IF_ERROR(
      pool->Run(n_morsels, [&](size_t m, int slot) -> Status {
        // ecodb-lint: worker-context
        RecordBatch probe;
        ECODB_RETURN_IF_ERROR(probe_source_->ProduceMorsel(
            m, &probe, &accs[static_cast<size_t>(slot)]));
        return ProbeBatch(probe, &probe_slots_[m], &match_counts[m]);
      }));
  uint64_t probe_rows = 0;
  for (const WorkAccumulator& acc : accs) {
    probe_rows += acc.rows_out;
    ctx_->MergeWork(acc);
  }
  uint64_t total_matches = 0;
  for (size_t m : match_counts) total_matches += m;
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
    *out = std::move(probe_slots_[probe_cursor_]);
    ++probe_cursor_;
    return Status::OK();
  }
  while (true) {
    ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
    RecordBatch probe;
    ECODB_RETURN_IF_ERROR(left_->Next(&probe, eos));
    if (*eos) return Status::OK();
    ctx_->ChargeInstructions(
        HashProbeInstructions(static_cast<double>(probe.num_rows())));
    RecordBatch joined;
    size_t matches = 0;
    ECODB_RETURN_IF_ERROR(ProbeBatch(probe, &joined, &matches));
    ctx_->ChargeInstructions(
        OutputInstructions(static_cast<double>(matches)));
    *out = std::move(joined);
    return Status::OK();
  }
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
                                   ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {}

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &inner_));
  return predicate_->Bind(schema_);
}

Status NestedLoopJoinOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  RecordBatch outer;
  ECODB_RETURN_IF_ERROR(left_->Next(&outer, eos));
  if (*eos) return Status::OK();

  // Cross product of this outer batch with the inner side, then filter.
  // The quadratic pair cost is the point: NLJ trades memory for cycles.
  ctx_->ChargeInstructions(
      NestedLoopPairInstructions(static_cast<double>(outer.num_rows()),
                                 static_cast<double>(inner_.num_rows())));
  std::vector<uint32_t> inner_rows(inner_.num_rows());
  std::iota(inner_rows.begin(), inner_rows.end(), uint32_t{0});
  std::vector<uint32_t> outer_sel;
  std::vector<uint32_t> inner_sel;
  outer_sel.reserve(outer.num_rows() * inner_rows.size());
  inner_sel.reserve(outer.num_rows() * inner_rows.size());
  for (size_t lr = 0; lr < outer.num_rows(); ++lr) {
    outer_sel.insert(outer_sel.end(), inner_rows.size(),
                     static_cast<uint32_t>(lr));
    inner_sel.insert(inner_sel.end(), inner_rows.begin(), inner_rows.end());
  }
  RecordBatch joined;
  ECODB_RETURN_IF_ERROR(
      GatherJoined(schema_, outer, outer_sel, inner_, inner_sel, &joined));
  ECODB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                         predicate_->EvaluateMask(joined));
  joined.FilterInPlace(mask);
  ctx_->ChargeInstructions(
      OutputInstructions(static_cast<double>(joined.num_rows())));
  *out = std::move(joined);
  return Status::OK();
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_->Close();
}

// --------------------------------------------------------------------------
// MergeJoinOp
// --------------------------------------------------------------------------

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::string left_key, std::string right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_name_(std::move(left_key)),
      right_key_name_(std::move(right_key)) {}

Status MergeJoinOp::Open(ExecContext* ctx) {
  // ecodb-lint: coordinator-only
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());

  const int lk = left_->output_schema().FindColumn(left_key_name_);
  const int rk = right_->output_schema().FindColumn(right_key_name_);
  if (lk < 0 || rk < 0) return Status::NotFound("join key column not found");
  if (left_->output_schema().column(lk).type != DataType::kInt64 ||
      right_->output_schema().column(rk).type != DataType::kInt64) {
    return Status::InvalidArgument("merge join requires int64 keys");
  }

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
  return Status::OK();
}

Status MergeJoinOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  const size_t batch_rows = ctx_->options().batch_rows;
  if (cursor_ >= left_sel_.size()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  const size_t take = std::min(batch_rows, left_sel_.size() - cursor_);
  ECODB_RETURN_IF_ERROR(GatherJoined(
      schema_, left_rows_, std::span(left_sel_).subspan(cursor_, take),
      right_rows_, std::span(right_sel_).subspan(cursor_, take), out));
  cursor_ += take;
  return Status::OK();
}

void MergeJoinOp::Close() {
  left_->Close();
  right_->Close();
}

}  // namespace ecodb::exec
