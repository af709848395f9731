// Hash aggregation: GROUP BY over key columns with SUM/COUNT/MIN/MAX/AVG.
//
// When its child is a MorselSource (a table scan), HashAggregateOp
// aggregates each morsel into a morsel-local partial hash table inside the
// worker that produced the morsel — no shared state, no locks — then merges
// the partials into one ordered group table in morsel index order. Any
// other child (a join, a filter, another aggregate) is drained batch by
// batch on the coordinator with the same arithmetic; the child's type
// selects the branch, never the dop.
//
// Determinism contract: a group key appears at most once per morsel
// partial, and partials merge in morsel order, so the merged accumulators
// see contributions in a fixed order independent of dop and scheduling.
// With morsel boundaries themselves dop-invariant, the output and all
// modeled charges are identical at every dop. Charges are computed by the
// coordinator from merged row totals.

#ifndef ECODB_EXEC_AGGREGATE_H_
#define ECODB_EXEC_AGGREGATE_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace ecodb::exec {

enum class AggFunc { kSum, kCount, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc func);

/// One aggregate output: func over an input expression.
struct AggregateItem {
  std::string name;  // output column name
  AggFunc func = AggFunc::kCount;
  /// Input expression; may be null for COUNT(*).
  ExprPtr input;
};

/// Running accumulator of one group (all aggregate functions at once; the
/// final value is picked per function at emission).
struct GroupAccum {
  std::vector<Value> keys;
  std::vector<double> sum;
  std::vector<int64_t> count;
  std::vector<double> min;
  std::vector<double> max;
};

/// Resolves group-by names and binds aggregate inputs against `in`,
/// producing the key column indexes and the output schema.
Status BindAggregation(const catalog::Schema& in,
                       const std::vector<std::string>& group_by_names,
                       std::vector<AggregateItem>* aggregates,
                       std::vector<int>* group_by,
                       catalog::Schema* out_schema);

/// Encodes row `row`'s group key into `key` (deterministic; strings are
/// length-prefixed so keys never collide across types).
void EncodeGroupKey(const RecordBatch& batch, const std::vector<int>& group_by,
                    size_t row, std::string* key);

/// Prepares a fresh accumulator for the group that row `row` starts.
void InitGroupAccum(GroupAccum* gs, const RecordBatch& batch,
                    const std::vector<int>& group_by, size_t row,
                    size_t num_aggregates);

/// The all-zero accumulator a global aggregate over no rows emits.
GroupAccum ZeroGroupAccum(size_t num_aggregates);

/// Folds `from` into `into` (same group observed in another partial).
void MergeGroupAccum(GroupAccum* into, const GroupAccum& from);

/// Appends the group's output row (keys then one value per aggregate).
Status AppendGroupRow(const GroupAccum& gs,
                      const std::vector<AggregateItem>& aggregates,
                      RecordBatch* batch);

/// Aggregates one batch into `groups` — any map keyed by the encoded group
/// key (the final table is an ordered std::map, morsel partials are
/// unordered_maps). Pure accumulation; the caller owns the cost charges.
template <typename GroupMap>
Status AccumulateBatch(const RecordBatch& batch,
                       const std::vector<int>& group_by,
                       const std::vector<AggregateItem>& aggregates,
                       GroupMap* groups) {
  std::vector<ColumnData> inputs(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (aggregates[a].input != nullptr) {
      ECODB_ASSIGN_OR_RETURN(inputs[a], aggregates[a].input->Evaluate(batch));
    }
  }
  std::string key;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    EncodeGroupKey(batch, group_by, r, &key);
    auto [it, inserted] = groups->try_emplace(key);
    GroupAccum& gs = it->second;
    if (inserted) {
      InitGroupAccum(&gs, batch, group_by, r, aggregates.size());
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      double v = 0.0;
      if (aggregates[a].input != nullptr) {
        const ColumnData& lane = inputs[a];
        v = lane.type == catalog::DataType::kDouble
                ? lane.f64[r]
                : static_cast<double>(lane.i64[r]);
      }
      gs.sum[a] += v;
      gs.count[a] += 1;
      gs.min[a] = std::min(gs.min[a], v);
      gs.max[a] = std::max(gs.max[a], v);
    }
  }
  return Status::OK();
}

class HashAggregateOp final : public Operator {
 public:
  /// `group_by` may be empty (global aggregate: exactly one output row).
  HashAggregateOp(OperatorPtr child, std::vector<std::string> group_by,
                  std::vector<AggregateItem> aggregates);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  /// Builds groups_ (morsel partials, or a batch drain of the child).
  Status Compute();
  /// Charges the aggregation's modeled CPU work for `rows` input rows.
  void ChargeUpdate(uint64_t rows);

  OperatorPtr child_;
  std::vector<std::string> group_by_names_;
  std::vector<int> group_by_;
  std::vector<AggregateItem> aggregates_;
  catalog::Schema schema_;
  // Deterministic output ordering: ordered map on the encoded key.
  std::map<std::string, GroupAccum> groups_;
  bool computed_ = false;
  std::vector<std::string> emit_order_;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_AGGREGATE_H_
