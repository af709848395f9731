#include "exec/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "exec/scan.h"
#include "util/flat_key_index.h"

namespace ecodb::exec {

using catalog::DataType;

Status BindAggregation(const catalog::Schema& in,
                       const std::vector<std::string>& group_by_names,
                       const std::vector<AggregateItem>& aggregates,
                       std::vector<int>* group_by,
                       std::vector<BoundExpr>* inputs,
                       catalog::Schema* out_schema) {
  group_by->clear();
  inputs->clear();
  std::vector<catalog::Column> out_cols;
  for (const std::string& name : group_by_names) {
    const int idx = in.FindColumn(name);
    if (idx < 0) return Status::NotFound("group-by column '" + name + "'");
    group_by->push_back(idx);
    out_cols.push_back(in.column(idx));
  }
  for (const AggregateItem& item : aggregates) {
    DataType out_type = DataType::kDouble;
    BoundExpr& input = inputs->emplace_back();
    if (item.input != nullptr) {
      ECODB_ASSIGN_OR_RETURN(input, item.input->Bind(in));
      if (input.result_type() == DataType::kString) {
        return Status::InvalidArgument("aggregates need numeric inputs");
      }
    } else if (item.func != AggFunc::kCount) {
      return Status::InvalidArgument("only COUNT may omit its input");
    }
    if (item.func == AggFunc::kCount) out_type = DataType::kInt64;
    catalog::Column c;
    c.name = item.name;
    c.type = out_type;
    out_cols.push_back(std::move(c));
  }
  *out_schema = catalog::Schema(std::move(out_cols));
  return Status::OK();
}

namespace {

/// A string of at most this many bytes is its own key word.
constexpr size_t kPackedStringBytes = 7;
/// Low byte of a hashed (longer) string's key word; a packed word's low
/// byte is its length, at most 7, so the two kinds never compare equal.
constexpr uint64_t kHashedStringTag = 0xff;

/// A double group key's bits: its own, except -0.0 groups as +0.0.
uint64_t DoubleKeyBits(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One word per row of a group column, equal for equal keys: int64 and
/// date as is, a double by DoubleKeyBits, a string of at most 7 bytes
/// packed with its length, a longer one as its tagged hash (equal words
/// then still need a full compare).
void KeyWords(const ColumnData& lane, size_t rows, uint64_t* out) {
  switch (lane.type) {
    case DataType::kInt64:
    case DataType::kDate:
      for (size_t r = 0; r < rows; ++r) {
        out[r] = static_cast<uint64_t>(lane.i64[r]);
      }
      break;
    case DataType::kDouble:
      for (size_t r = 0; r < rows; ++r) out[r] = DoubleKeyBits(lane.f64[r]);
      break;
    case DataType::kString:
      for (size_t r = 0; r < rows; ++r) {
        const std::string& s = lane.str[r];
        if (s.size() > kPackedStringBytes) {
          out[r] = HashBytes(s) | kHashedStringTag;
          continue;
        }
        // A byte loop: a variable-length memcpy into the word stalls
        // store forwarding.
        uint64_t word = s.size();
        for (size_t i = 0; i < s.size(); ++i) {
          word |= uint64_t{static_cast<unsigned char>(s[i])} << (8 * (i + 1));
        }
        out[r] = word;
      }
      break;
  }
}

/// Folds `n` rows of an input read through `at` into the groups `ids`
/// names, each group's statistic combined with `op` in row order. One
/// group folds in a register; more fold into `dense` and are stored back.
template <typename At, typename Op>
void FoldColumn(const uint32_t* ids, size_t n, At at, Op op, size_t a,
                std::span<GroupAccum* const> targets,
                std::vector<double>* dense) {
  if (targets.size() == 1) {
    double acc = targets[0]->stat[a];
    for (size_t r = 0; r < n; ++r) acc = op(acc, at(r));
    targets[0]->stat[a] = acc;
    return;
  }
  dense->resize(targets.size());
  double* d = dense->data();
  for (size_t g = 0; g < targets.size(); ++g) d[g] = targets[g]->stat[a];
  for (size_t r = 0; r < n; ++r) d[ids[r]] = op(d[ids[r]], at(r));
  for (size_t g = 0; g < targets.size(); ++g) targets[g]->stat[a] = d[g];
}

/// Calls `f(op)` with the op that folds a value into `func`'s statistic
/// (COUNT has none: it reads the group's row count).
template <typename F>
void WithStatOp(AggFunc func, F&& f) {
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      f([](double x, double v) { return x + v; });
      break;
    case AggFunc::kMin:
      f([](double x, double v) { return std::min(x, v); });
      break;
    case AggFunc::kMax:
      f([](double x, double v) { return std::max(x, v); });
      break;
    case AggFunc::kCount:
      break;
  }
}

/// Folds `from` into `into` (the same group observed in a later partial).
void MergeGroupAccum(const std::vector<AggregateItem>& aggregates,
                     GroupAccum* into, const GroupAccum& from) {
  into->rows += from.rows;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    WithStatOp(aggregates[a].func, [&](auto op) {
      into->stat[a] = op(into->stat[a], from.stat[a]);
    });
  }
}

/// Appends the group's output row (keys then one value per aggregate).
Status AppendGroupRow(const GroupAccum& gs,
                      const std::vector<AggregateItem>& aggregates,
                      RecordBatch* batch) {
  std::vector<Value> row;
  row.reserve(gs.keys.size() + aggregates.size());
  for (const Value& k : gs.keys) row.push_back(k);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const bool any = gs.rows > 0;
    switch (aggregates[a].func) {
      case AggFunc::kSum:
        row.push_back(Value::Double(gs.stat[a]));
        break;
      case AggFunc::kCount:
        row.push_back(Value::Int64(gs.rows));
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        row.push_back(Value::Double(any ? gs.stat[a] : 0.0));
        break;
      case AggFunc::kAvg:
        row.push_back(Value::Double(
            any ? gs.stat[a] / static_cast<double>(gs.rows) : 0.0));
        break;
    }
  }
  return batch->AppendRow(row);
}

}  // namespace

void EncodeGroupKey(const RecordBatch& batch, const std::vector<int>& group_by,
                    size_t row, std::string* key) {
  key->clear();
  for (int g : group_by) {
    const ColumnData& lane = batch.column(static_cast<size_t>(g));
    switch (lane.type) {
      case DataType::kInt64:
      case DataType::kDate: {
        const int64_t v = lane.i64[row];
        key->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kDouble: {
        const uint64_t bits = DoubleKeyBits(lane.f64[row]);
        key->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
        break;
      }
      case DataType::kString: {
        const uint32_t len = static_cast<uint32_t>(lane.str[row].size());
        key->append(reinterpret_cast<const char*>(&len), sizeof(len));
        key->append(lane.str[row]);
        break;
      }
    }
  }
}

struct HashAggregateOp::FoldScratch {
  FlatKeyIndex index;
  std::vector<uint64_t> words;       // group column c's at [c·rows, ...)
  std::vector<uint32_t> ids;         // per row: its batch-local group
  std::vector<uint32_t> first_rows;  // per group: its first row
  std::vector<GroupAccum*> targets;  // per group: where it folds
  std::vector<int64_t> counts;       // per group: rows in this batch
  std::vector<double> dense;         // per group: one statistic
  std::vector<ColumnData> inputs;    // per aggregate: evaluated input
  EvalScratch eval;
};

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<std::string> group_by,
                                 std::vector<AggregateItem> aggregates)
    : child_(std::move(child)),
      group_by_names_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {}

Status HashAggregateOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(child_->Open(ctx));
  ECODB_RETURN_IF_ERROR(BindAggregation(child_->output_schema(),
                                        group_by_names_, aggregates_,
                                        &group_by_, &inputs_, &schema_));
  groups_.clear();
  computed_ = false;
  return Status::OK();
}

void HashAggregateOp::ChargeUpdate(uint64_t rows) {
  // ecodb-lint: coordinator-only
  for (double term :
       AggregateUpdateInstructions(aggregates_, static_cast<double>(rows))) {
    ctx_->ChargeInstructions(term);
  }
}

GroupAccum HashAggregateOp::NewGroup(const RecordBatch& batch,
                                     size_t row) const {
  GroupAccum gs;
  gs.keys.reserve(group_by_.size());
  for (int g : group_by_) {
    Value key = batch.GetValue(row, static_cast<size_t>(g));
    if (key.type == DataType::kDouble && key.f64 == 0.0) key.f64 = 0.0;
    gs.keys.push_back(std::move(key));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const AggregateItem& item : aggregates_) {
    gs.stat.push_back(item.func == AggFunc::kMin   ? kInf
                      : item.func == AggFunc::kMax ? -kInf
                                                   : 0.0);
  }
  return gs;
}

template <typename ResolveFn>
void HashAggregateOp::FoldBatch(const RecordBatch& batch, FoldScratch* s,
                                ResolveFn&& resolve) const {
  const size_t n = batch.num_rows();
  if (n == 0) return;

  // Pass 1: batch-local group ids, in order of first appearance.
  const size_t k = group_by_.size();
  if (k == 0) {
    s->first_rows.assign(1, 0);  // one group, so no row needs its id
  } else {
    s->words.resize(k * n);
    const uint64_t* words = s->words.data();
    for (size_t c = 0; c < k; ++c) {
      KeyWords(batch.column(static_cast<size_t>(group_by_[c])), n,
               s->words.data() + c * n);
    }
    const auto hash = [&](size_t r) {
      uint64_t h = 0;
      for (size_t c = 0; c < k; ++c) h = MixHash64(h ^ words[c * n + r]);
      return h;
    };
    const auto same = [&](size_t x, size_t y) {
      for (size_t c = 0; c < k; ++c) {
        const uint64_t* w = words + c * n;
        if (w[x] != w[y]) return false;
        if ((w[x] & 0xff) == kHashedStringTag) {
          const ColumnData& lane =
              batch.column(static_cast<size_t>(group_by_[c]));
          if (lane.type == DataType::kString && lane.str[x] != lane.str[y]) {
            return false;
          }
        }
      }
      return true;
    };
    s->index.AssignKeyIds(n, hash, same, &s->ids, &s->first_rows);
  }
  const size_t groups = s->first_rows.size();
  s->targets.resize(groups);
  resolve(std::span<const uint32_t>(s->first_rows),
          std::span<GroupAccum*>(s->targets));
  const std::span<GroupAccum* const> targets(s->targets);
  const uint32_t* ids = s->ids.data();

  // Pass 2: one row count per group, then each aggregate a column at a
  // time, reading a bare input column in place.
  if (groups == 1) {
    targets[0]->rows += static_cast<int64_t>(n);
  } else {
    s->counts.assign(groups, 0);
    for (size_t r = 0; r < n; ++r) ++s->counts[ids[r]];
    for (size_t g = 0; g < groups; ++g) targets[g]->rows += s->counts[g];
  }
  s->inputs.resize(aggregates_.size());
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const AggregateItem& item = aggregates_[a];
    if (item.func == AggFunc::kCount) continue;
    const ColumnData* lane = &s->inputs[a];
    if (item.input->kind() == ExprKind::kColumn) {
      lane = &batch.column(static_cast<size_t>(inputs_[a].inputs()[0]));
    } else {
      inputs_[a].EvaluateInto(batch, &s->eval, &s->inputs[a]);
    }
    WithStatOp(item.func, [&](auto op) {
      if (lane->type == DataType::kDouble) {
        const double* v = lane->f64.data();
        FoldColumn(
            ids, n, [v](size_t r) { return v[r]; }, op, a, targets, &s->dense);
      } else {
        const int64_t* v = lane->i64.data();
        FoldColumn(
            ids, n, [v](size_t r) { return static_cast<double>(v[r]); }, op,
            a, targets, &s->dense);
      }
    });
  }
}

Status HashAggregateOp::Compute() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  auto* source = dynamic_cast<MorselSource*>(child_.get());
  if (source != nullptr) {
    // One partial per morsel: its groups in order of first appearance,
    // each under its encoded key.
    using Partial = std::vector<std::pair<std::string, GroupAccum>>;
    const size_t n_morsels = source->morsel_count();
    std::vector<Partial> partials(n_morsels);
    WorkerPool* pool = ctx_->worker_pool();
    const size_t n_slots = static_cast<size_t>(pool->parallelism());
    std::vector<uint64_t> slot_rows(n_slots, 0);
    std::vector<FoldScratch> scratch(n_slots);
    ECODB_RETURN_IF_ERROR(
        pool->Run(n_morsels, [&](size_t m, int slot) -> Status {
          // ecodb-lint: worker-context
          RecordBatch batch;
          const size_t w = static_cast<size_t>(slot);
          ECODB_RETURN_IF_ERROR(source->ProduceMorsel(m, &batch));
          slot_rows[w] += batch.num_rows();
          Partial& partial = partials[m];
          FoldBatch(batch, &scratch[w],
                    [&](std::span<const uint32_t> first_rows,
                        std::span<GroupAccum*> targets) {
                      partial.resize(first_rows.size());
                      for (size_t g = 0; g < first_rows.size(); ++g) {
                        const uint32_t row = first_rows[g];
                        EncodeGroupKey(batch, group_by_, row,
                                       &partial[g].first);
                        partial[g].second = NewGroup(batch, row);
                        targets[g] = &partial[g].second;
                      }
                    });
          return Status::OK();
        }));
    uint64_t input_rows = 0;  // rows surviving the source's filter
    for (uint64_t rows : slot_rows) input_rows += rows;
    ChargeUpdate(input_rows);
    // Merge partials in morsel index order: each key occurs at most once
    // per partial, so every group's accumulator sees its contributions in
    // a fixed, dop-independent order.
    for (Partial& partial : partials) {
      for (auto& [key, gs] : partial) {
        // try_emplace moves neither argument when the key is present.
        auto [it, inserted] =
            groups_.try_emplace(std::move(key), std::move(gs));
        if (!inserted) MergeGroupAccum(aggregates_, &it->second, gs);
      }
    }
  } else {
    // Any other child: drain it batch by batch, folding each batch's rows
    // straight into groups_.
    FoldScratch scratch;
    std::string key;
    bool child_eos = false;
    while (true) {
      ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
      RecordBatch batch;
      ECODB_RETURN_IF_ERROR(child_->Next(&batch, &child_eos));
      if (child_eos) break;
      ChargeUpdate(batch.num_rows());
      FoldBatch(batch, &scratch,
                [&](std::span<const uint32_t> first_rows,
                    std::span<GroupAccum*> targets) {
                  for (size_t g = 0; g < first_rows.size(); ++g) {
                    EncodeGroupKey(batch, group_by_, first_rows[g], &key);
                    auto [it, inserted] = groups_.try_emplace(key);
                    if (inserted) it->second = NewGroup(batch, first_rows[g]);
                    targets[g] = &it->second;
                  }
                });
    }
  }

  // A global aggregate over zero rows still emits one row of zeros.
  if (groups_.empty() && group_by_.empty()) {
    groups_[""].stat.assign(aggregates_.size(), 0.0);
  }
  emit_ = groups_.cbegin();
  // Rough DRAM residency of the final aggregation state (partials are
  // transient).
  ctx_->ChargeDram(static_cast<uint64_t>(
      AggregateStateBytes(static_cast<double>(groups_.size()),
                          group_by_.size(), aggregates_.size())));
  computed_ = true;
  return Status::OK();
}

Status HashAggregateOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (!computed_) ECODB_RETURN_IF_ERROR(Compute());

  if (emit_ == groups_.cend()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  RecordBatch batch(schema_);
  size_t take = 0;
  for (; take < ctx_->options().batch_rows && emit_ != groups_.cend();
       ++take, ++emit_) {
    ECODB_RETURN_IF_ERROR(AppendGroupRow(emit_->second, aggregates_, &batch));
  }
  ctx_->ChargeInstructions(OutputInstructions(static_cast<double>(take)));
  *out = std::move(batch);
  return Status::OK();
}

void HashAggregateOp::Close() {
  child_->Close();
  groups_.clear();
  emit_ = groups_.cend();
}

}  // namespace ecodb::exec
