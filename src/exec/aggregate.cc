#include "exec/aggregate.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <utility>

#include "exec/scan.h"

namespace ecodb::exec {

using catalog::DataType;

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "unknown";
}

Status BindAggregation(const catalog::Schema& in,
                       const std::vector<std::string>& group_by_names,
                       std::vector<AggregateItem>* aggregates,
                       std::vector<int>* group_by,
                       catalog::Schema* out_schema) {
  group_by->clear();
  std::vector<catalog::Column> out_cols;
  for (const std::string& name : group_by_names) {
    const int idx = in.FindColumn(name);
    if (idx < 0) return Status::NotFound("group-by column '" + name + "'");
    group_by->push_back(idx);
    out_cols.push_back(in.column(idx));
  }
  for (AggregateItem& item : *aggregates) {
    DataType out_type = DataType::kDouble;
    if (item.input != nullptr) {
      ECODB_RETURN_IF_ERROR(item.input->Bind(in));
      if (item.input->result_type() == DataType::kString) {
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
        const double v = lane.f64[row];
        key->append(reinterpret_cast<const char*>(&v), sizeof(v));
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

void InitGroupAccum(GroupAccum* gs, const RecordBatch& batch,
                    const std::vector<int>& group_by, size_t row,
                    size_t num_aggregates) {
  gs->keys.reserve(group_by.size());
  for (int g : group_by) {
    gs->keys.push_back(batch.GetValue(row, static_cast<size_t>(g)));
  }
  gs->sum.assign(num_aggregates, 0.0);
  gs->count.assign(num_aggregates, 0);
  gs->min.assign(num_aggregates, std::numeric_limits<double>::infinity());
  gs->max.assign(num_aggregates, -std::numeric_limits<double>::infinity());
}

GroupAccum ZeroGroupAccum(size_t num_aggregates) {
  GroupAccum gs;
  gs.sum.assign(num_aggregates, 0.0);
  gs.count.assign(num_aggregates, 0);
  gs.min.assign(num_aggregates, 0.0);
  gs.max.assign(num_aggregates, 0.0);
  return gs;
}

void MergeGroupAccum(GroupAccum* into, const GroupAccum& from) {
  for (size_t a = 0; a < into->sum.size(); ++a) {
    into->sum[a] += from.sum[a];
    into->count[a] += from.count[a];
    into->min[a] = std::min(into->min[a], from.min[a]);
    into->max[a] = std::max(into->max[a], from.max[a]);
  }
}

Status AppendGroupRow(const GroupAccum& gs,
                      const std::vector<AggregateItem>& aggregates,
                      RecordBatch* batch) {
  std::vector<Value> row;
  row.reserve(gs.keys.size() + aggregates.size());
  for (const Value& k : gs.keys) row.push_back(k);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    switch (aggregates[a].func) {
      case AggFunc::kSum:
        row.push_back(Value::Double(gs.sum[a]));
        break;
      case AggFunc::kCount:
        row.push_back(Value::Int64(gs.count[a]));
        break;
      case AggFunc::kMin:
        row.push_back(Value::Double(gs.count[a] ? gs.min[a] : 0.0));
        break;
      case AggFunc::kMax:
        row.push_back(Value::Double(gs.count[a] ? gs.max[a] : 0.0));
        break;
      case AggFunc::kAvg:
        row.push_back(Value::Double(
            gs.count[a] ? gs.sum[a] / static_cast<double>(gs.count[a])
                        : 0.0));
        break;
    }
  }
  return batch->AppendRow(row);
}

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
                                        group_by_names_, &aggregates_,
                                        &group_by_, &schema_));
  groups_.clear();
  computed_ = false;
  cursor_ = 0;
  return Status::OK();
}

void HashAggregateOp::ChargeUpdate(uint64_t rows) {
  // ecodb-lint: coordinator-only
  const double n = static_cast<double>(rows);
  ctx_->ChargeInstructions(ctx_->options().costs.agg_update_per_row * n);
  for (const AggregateItem& item : aggregates_) {
    if (item.input != nullptr) {
      ctx_->ChargeInstructions(item.input->InstructionsPerRow() * n);
    }
  }
}

Status HashAggregateOp::Compute() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  auto* source = dynamic_cast<MorselSource*>(child_.get());
  if (source != nullptr) {
    const size_t n_morsels = source->morsel_count();
    std::vector<std::unordered_map<std::string, GroupAccum>> partials(
        n_morsels);
    WorkerPool* pool = ctx_->worker_pool();
    std::vector<WorkAccumulator> accs(
        static_cast<size_t>(pool->parallelism()));
    ECODB_RETURN_IF_ERROR(
        pool->Run(n_morsels, [&](size_t m, int slot) -> Status {
          // ecodb-lint: worker-context
          RecordBatch batch;
          WorkAccumulator& acc = accs[static_cast<size_t>(slot)];
          ECODB_RETURN_IF_ERROR(source->ProduceMorsel(m, &batch, &acc));
          return AccumulateBatch(batch, group_by_, aggregates_, &partials[m]);
        }));
    uint64_t input_rows = 0;
    for (const WorkAccumulator& acc : accs) {
      input_rows += acc.rows_out;  // rows surviving the source's filter
      ctx_->MergeWork(acc);
    }
    ChargeUpdate(input_rows);
    // Merge partials in morsel index order: each key occurs at most once
    // per partial, so every group's accumulator sees its contributions in
    // a fixed, dop-independent order — iterating the unordered partials
    // below cannot perturb results or charges (groups_ is an ordered map).
    // NOLINT-ECODB(EC5)
    for (std::unordered_map<std::string, GroupAccum>& partial : partials) {
      // NOLINT-ECODB(EC5)
      for (auto& [key, gs] : partial) {
        auto [it, inserted] = groups_.try_emplace(key);
        if (inserted) {
          it->second = std::move(gs);
        } else {
          MergeGroupAccum(&it->second, gs);
        }
      }
    }
  } else {
    // Any other child: drain it batch by batch into groups_ directly.
    bool child_eos = false;
    while (true) {
      ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
      RecordBatch batch;
      ECODB_RETURN_IF_ERROR(child_->Next(&batch, &child_eos));
      if (child_eos) break;
      ChargeUpdate(batch.num_rows());
      ECODB_RETURN_IF_ERROR(
          AccumulateBatch(batch, group_by_, aggregates_, &groups_));
    }
  }

  // A global aggregate over zero rows still emits one row of zeros.
  if (groups_.empty() && group_by_.empty()) {
    groups_.emplace("", ZeroGroupAccum(aggregates_.size()));
  }
  emit_order_.clear();
  emit_order_.reserve(groups_.size());
  for (const auto& [k, gs] : groups_) emit_order_.push_back(k);
  // Rough DRAM residency of the final aggregation state (partials are
  // transient).
  ctx_->ChargeDram(groups_.size() *
                   (32 + 32 * (aggregates_.size() + group_by_.size())));
  computed_ = true;
  return Status::OK();
}

Status HashAggregateOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (!computed_) ECODB_RETURN_IF_ERROR(Compute());

  if (cursor_ >= emit_order_.size()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  const size_t take =
      std::min(ctx_->options().batch_rows, emit_order_.size() - cursor_);
  RecordBatch batch(schema_);
  for (size_t i = 0; i < take; ++i) {
    const GroupAccum& gs = groups_.at(emit_order_[cursor_ + i]);
    ECODB_RETURN_IF_ERROR(AppendGroupRow(gs, aggregates_, &batch));
  }
  ctx_->ChargeInstructions(ctx_->options().costs.output_per_row *
                           static_cast<double>(take));
  cursor_ += take;
  *out = std::move(batch);
  return Status::OK();
}

void HashAggregateOp::Close() {
  child_->Close();
  groups_.clear();
}

}  // namespace ecodb::exec
