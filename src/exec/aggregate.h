// Hash aggregation: GROUP BY over key columns with SUM/COUNT/MIN/MAX/AVG.
//
// When its child is a MorselSource (a table scan), HashAggregateOp
// aggregates each morsel into a morsel-local partial inside the worker that
// produced the morsel — no shared state, no locks — then merges the
// partials into one ordered group table in morsel index order. Any other
// child (a join, a filter, another aggregate) is drained batch by batch on
// the coordinator straight into that table; the child's type selects the
// branch, never the dop.
//
// Each batch folds in two passes. First its rows get batch-local group ids
// from a FlatKeyIndex keyed on one 64-bit word per group column, and each
// batch-local group's key is encoded and looked up once, in the morsel's
// partial or in the group table. Then every aggregate folds its input a
// column at a time into the one statistic its function emits.
//
// Determinism contract: each group sees a batch's rows in row order, a
// group key appears at most once per morsel partial, and partials merge in
// morsel order, so the merged accumulators see contributions in a fixed
// order independent of dop and scheduling. With morsel boundaries
// themselves dop-invariant, the output and all modeled charges are
// identical at every dop. Charges are computed by the coordinator from
// merged row totals.

#ifndef ECODB_EXEC_AGGREGATE_H_
#define ECODB_EXEC_AGGREGATE_H_

#include <map>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace ecodb::exec {

enum class AggFunc { kSum, kCount, kMin, kMax, kAvg };

/// One aggregate output: func over an input expression.
struct AggregateItem {
  std::string name;  // output column name
  AggFunc func = AggFunc::kCount;
  /// Input expression; may be null for COUNT(*).
  ExprPtr input;
};

/// Running state of one group: its key values, its row count, and per
/// aggregate the one statistic the function emits (the sum for SUM and
/// AVG, the minimum for MIN, the maximum for MAX; COUNT reads `rows`).
struct GroupAccum {
  std::vector<Value> keys;
  int64_t rows = 0;
  std::vector<double> stat;
};

/// Resolves group-by names and binds aggregate inputs against `in`,
/// producing the key column indexes, each aggregate's bound input (none for
/// COUNT(*)) and the output schema.
Status BindAggregation(const catalog::Schema& in,
                       const std::vector<std::string>& group_by_names,
                       const std::vector<AggregateItem>& aggregates,
                       std::vector<int>* group_by,
                       std::vector<BoundExpr>* inputs,
                       catalog::Schema* out_schema);

/// Instructions of one row's group lookup and accumulate.
constexpr double kAggUpdatePerRow = 8.0;

/// The instruction terms HashAggregateOp bills for folding `rows` input
/// rows, one per charge and in charge order: the group lookup and
/// accumulate, then each aggregate's input expression (COUNT(*) has none).
inline std::vector<double> AggregateUpdateInstructions(
    const std::vector<AggregateItem>& aggregates, double rows) {
  std::vector<double> terms = {kAggUpdatePerRow * rows};
  for (const AggregateItem& item : aggregates) {
    if (item.input != nullptr) {
      terms.push_back(item.input->InstructionsPerRow() * rows);
    }
  }
  return terms;
}

/// Bytes of final aggregation state HashAggregateOp bills as DRAM traffic
/// for `groups` groups: 32 per group plus 32 per key and aggregate value.
inline double AggregateStateBytes(double groups, size_t num_keys,
                                  size_t num_aggregates) {
  return groups * static_cast<double>(32 + 32 * (num_aggregates + num_keys));
}

/// Encodes row `row`'s group key into `key`. Two rows share a group exactly
/// when their encodings are equal, and groups are emitted in ascending
/// encoding. Strings are length-prefixed so keys never collide across
/// types; a double is encoded by its bits, with -0.0 as +0.0 (so NaNs
/// group by bit pattern).
void EncodeGroupKey(const RecordBatch& batch, const std::vector<int>& group_by,
                    size_t row, std::string* key);

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
  /// Buffers of one batch fold, kept per worker slot across morsels.
  struct FoldScratch;

  /// Builds groups_ (morsel partials, or a batch drain of the child).
  Status Compute();
  /// Charges the aggregation's modeled CPU work for `rows` input rows.
  void ChargeUpdate(uint64_t rows);
  /// Folds `batch` into the accumulators `resolve(first_rows, targets)`
  /// hands out: targets[g] is the group whose first row in the batch is
  /// first_rows[g].
  template <typename ResolveFn>
  void FoldBatch(const RecordBatch& batch, FoldScratch* scratch,
                 ResolveFn&& resolve) const;
  /// A new accumulator for the group of `batch`'s row `row`.
  GroupAccum NewGroup(const RecordBatch& batch, size_t row) const;

  OperatorPtr child_;
  std::vector<std::string> group_by_names_;
  std::vector<int> group_by_;
  std::vector<AggregateItem> aggregates_;
  std::vector<BoundExpr> inputs_;  // per aggregate: its input, bound at Open
  catalog::Schema schema_;
  // Deterministic output ordering: ordered map on the encoded key.
  std::map<std::string, GroupAccum> groups_;
  bool computed_ = false;
  std::map<std::string, GroupAccum>::const_iterator emit_;
  ExecContext* ctx_ = nullptr;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_AGGREGATE_H_
