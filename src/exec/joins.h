// Join operators: hash join, (block) nested-loop join, sort-merge join.
//
// Section 4.1 of the paper uses the hash-join-vs-nested-loop choice as the
// canonical example of an energy-aware optimization: "the hash-join operator
// ... relies on using a large chunk of memory ... From a power perspective,
// these are 'expensive' operations and may tip the balance in favor of
// nested-loop join in more occasions than before." The operators here report
// their memory traffic (hash table builds) and CPU work separately so the
// optimizer's energy model can price exactly that tradeoff.
//
// Output schema convention: left columns then right columns; a right column
// whose name collides with a left column is exposed as "<name>_r".

#ifndef ECODB_EXEC_JOINS_H_
#define ECODB_EXEC_JOINS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "util/flat_key_index.h"

namespace ecodb::exec {

/// Builds the joined schema per the collision convention above.
catalog::Schema JoinedSchema(const catalog::Schema& left,
                             const catalog::Schema& right);

// Charge formulas: the joins bill through these and the planner prices
// with them on estimated counts. All are parallel instructions except
// HashBuildBytes, the build table's DRAM traffic (the rows' payload plus
// 32 bytes of bucket and entry overhead per row). A merge join sorts each
// input in n·log2(n) steps; a matched row costs OutputInstructions.
constexpr double kHashBuildPerRow = 16.0;   // insert into the hash table
constexpr double kHashProbePerRow = 10.0;   // probe + compare
constexpr double kNestedLoopPerPair = 3.0;  // one inner-loop compare

inline double HashBuildInstructions(double rows) {
  return kHashBuildPerRow * rows;
}
inline double HashBuildBytes(double payload_bytes, double rows) {
  return payload_bytes + 32.0 * rows;
}
inline double HashProbeInstructions(double rows) {
  return kHashProbePerRow * rows;
}
inline double NestedLoopPairInstructions(double outer_rows,
                                         double inner_rows) {
  return kNestedLoopPerPair * outer_rows * inner_rows;
}
inline double MergeJoinSortInstructions(double left_rows, double right_rows) {
  const auto nlogn = [](double n) { return n > 1 ? n * std::log2(n) : 0.0; };
  return kSortPerRowLogRow * (nlogn(left_rows) + nlogn(right_rows));
}
inline double MergeJoinWalkInstructions(double left_rows, double right_rows,
                                        double pairs) {
  return OutputInstructions(pairs) + 2.0 * (left_rows + right_rows);
}

// Key-type rules, one per join operator: each operator's Open applies its
// own, and the planner prices a join algorithm on an edge only when the
// rule accepts the edge's key types.

/// Nested-loop join (and any equality a join checks as a predicate): keys
/// compare unless exactly one is a string; integers compare as integers,
/// as hash and merge joins compare them, and any pair with a double through
/// double.
inline Status CheckComparableKeys(catalog::DataType left,
                                  catalog::DataType right) {
  if ((left == catalog::DataType::kString) !=
      (right == catalog::DataType::kString)) {
    return Status::InvalidArgument("join key type mismatch");
  }
  return Status::OK();
}
/// Hash join: comparable keys that hash as int64 lanes or as strings.
inline Status CheckHashJoinKeys(catalog::DataType left,
                                catalog::DataType right) {
  ECODB_RETURN_IF_ERROR(CheckComparableKeys(left, right));
  if (left == catalog::DataType::kDouble ||
      right == catalog::DataType::kDouble) {
    return Status::InvalidArgument(
        "hash join keys must be int64, date or string");
  }
  return Status::OK();
}
/// Merge join: int64 lanes on both sides (int64 or date keys).
inline Status CheckMergeJoinKeys(catalog::DataType left,
                                 catalog::DataType right) {
  if (!catalog::IsIntegerLike(left) || !catalog::IsIntegerLike(right)) {
    return Status::InvalidArgument("merge join requires int64 or date keys");
  }
  return Status::OK();
}

/// Predicates a join checks on its candidate pairs before it gathers them:
/// the optimizer's residual equi-join edges, or a nested-loop join's own
/// predicate. Each reads only the columns it names, gathered for the pairs
/// still standing, and drops the pairs it fails in order, so the join
/// gathers only what survives. A predicate bills
/// FilterInstructions(predicate, pairs reaching it), which is what a
/// FilterOp stacked on the join billed for the same batch.
class PairFilter {
 public:
  PairFilter() = default;
  explicit PairFilter(std::vector<ExprPtr> predicates);

  size_t size() const { return predicates_.size(); }

  /// Binds each predicate to `joined`, whose first `left_columns` columns
  /// come from the left input, the rest from the right.
  Status Bind(const catalog::Schema& joined, size_t left_columns);

  /// Keeps, in order, the pairs (left row `left_sel[i]`, right row
  /// `right_sel[i]`) that pass every predicate; `reaching[j]` is the
  /// number of pairs predicate j saw. Read-only, so concurrent calls are
  /// safe.
  Status Apply(const RecordBatch& left, const RecordBatch& right,
               std::vector<uint32_t>* left_sel,
               std::vector<uint32_t>* right_sel, size_t* reaching) const;

  /// Bills each predicate on the pairs that reached it, in order.
  void Charge(ExecContext* ctx, const size_t* reaching) const;

 private:
  std::vector<ExprPtr> predicates_;
  std::vector<BoundExpr> programs_;  // per predicate, bound to `joined`
  size_t left_columns_ = 0;
};

/// Equi-join on one key column per side. The right (build) side must fit
/// in memory; its size is charged as DRAM traffic. Rows come out in probe
/// order, each probe row's matches in ascending build-row order, so no
/// output depends on the hash function or on how the build is addressed
/// (by key offset for dense int64/date keys, hashed otherwise). `residual`
/// predicates are checked on the matched pairs before any column is
/// gathered (see PairFilter); a batch they empty still comes out, empty.
///
/// When the left (probe) child is a MorselSource (a table scan), the probe
/// phase runs morsel-parallel: each worker pulls probe morsels and probes
/// the read-only build table into a per-morsel output slot; slots are
/// emitted in morsel order and all modeled charges come from dop-invariant
/// row/match totals (the residual predicates bill per slot as it is
/// emitted), so results and accounting match the batch-at-a-time probe of
/// any other child exactly.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key,
             std::string right_key, std::vector<ExprPtr> residual = {});

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  /// Bytes resident in the build hash table after Open (observability for
  /// the optimizer-vs-actual tests).
  uint64_t build_bytes() const { return build_bytes_; }

 private:
  /// Probes one batch against the build table and gathers the pairs that
  /// pass the residual predicates into `joined`; `matches` counts the
  /// pairs before them and `reaching` is as in PairFilter::Apply.
  /// Read-only, so safe to call concurrently on distinct batches.
  Status ProbeBatch(const RecordBatch& probe, RecordBatch* joined,
                    size_t* matches, size_t* reaching) const;
  /// Runs the morsel-parallel probe into probe_slots_.
  Status ParallelProbe();

  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_name_;
  std::string right_key_name_;
  PairFilter residual_;
  int left_key_ = -1;
  int right_key_ = -1;
  catalog::Schema schema_;
  // Build side, materialized and grouped by key; int64, date and string
  // keys supported.
  RecordBatch build_rows_;
  FlatKeyIndex index_;
  bool string_key_ = false;
  uint64_t build_bytes_ = 0;
  // Parallel probe state (set when the left child is a MorselSource).
  MorselSource* probe_source_ = nullptr;
  std::vector<RecordBatch> probe_slots_;  // per-morsel, emitted in order
  std::vector<size_t> slot_reaching_;     // per morsel, per residual
  bool probed_ = false;
  size_t probe_cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

/// Block nested-loop join with an arbitrary predicate over the joined
/// schema. Inner (right) side is materialized once. The predicate and then
/// the `residual` predicates are checked on each outer batch's pairs
/// before any column is gathered (see PairFilter).
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   std::vector<ExprPtr> residual = {});

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  PairFilter predicate_;  // unbilled: the pair charge covers it
  PairFilter residual_;
  catalog::Schema schema_;
  RecordBatch inner_;
  ExecContext* ctx_ = nullptr;
};

/// Sort-merge equi-join: materializes and sorts both sides by key, then
/// merges. CPU-heavier but needs no resident hash table. `residual`
/// predicates are checked on each emitted slice of `batch_rows` pairs
/// before it is gathered (see PairFilter).
class MergeJoinOp final : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key,
              std::string right_key, std::vector<ExprPtr> residual = {});

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_name_;
  std::string right_key_name_;
  PairFilter residual_;
  catalog::Schema schema_;
  // Both sides, materialized and merged on Open: output row i pairs left
  // row left_sel_[i] with right row right_sel_[i]; Next streams them out.
  RecordBatch left_rows_;
  RecordBatch right_rows_;
  std::vector<uint32_t> left_sel_;
  std::vector<uint32_t> right_sel_;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_JOINS_H_
