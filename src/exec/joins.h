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

/// Equi-join on one key column per side. The right (build) side must fit
/// in memory; its size is charged as DRAM traffic. Rows come out in probe
/// order, each probe row's matches in ascending build-row order, so no
/// output depends on the hash function.
///
/// When the left (probe) child is a MorselSource (a table scan), the probe
/// phase runs morsel-parallel: each worker pulls probe morsels and probes
/// the read-only build table into a per-morsel output slot; slots are
/// emitted in morsel order and all modeled charges come from dop-invariant
/// row/match totals, so results and accounting match the batch-at-a-time
/// probe of any other child exactly.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key,
             std::string right_key);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  /// Bytes resident in the build hash table after Open (observability for
  /// the optimizer-vs-actual tests).
  uint64_t build_bytes() const { return build_bytes_; }

 private:
  /// Probes one batch against the build table (read-only; safe to call
  /// concurrently on distinct batches).
  Status ProbeBatch(const RecordBatch& probe, RecordBatch* joined,
                    size_t* matches) const;
  /// Runs the morsel-parallel probe into probe_slots_.
  Status ParallelProbe();

  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_name_;
  std::string right_key_name_;
  int left_key_ = -1;
  int right_key_ = -1;
  catalog::Schema schema_;
  // Build side, materialized and grouped by key; int64 and string keys
  // supported.
  RecordBatch build_rows_;
  FlatKeyIndex index_;
  bool string_key_ = false;
  uint64_t build_bytes_ = 0;
  // Parallel probe state (set when the left child is a MorselSource).
  MorselSource* probe_source_ = nullptr;
  std::vector<RecordBatch> probe_slots_;  // per-morsel, emitted in order
  bool probed_ = false;
  size_t probe_cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

/// Block nested-loop join with an arbitrary predicate over the joined
/// schema. Inner (right) side is materialized once.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;
  catalog::Schema schema_;
  RecordBatch inner_;
  ExecContext* ctx_ = nullptr;
};

/// Sort-merge equi-join: materializes and sorts both sides by key, then
/// merges. CPU-heavier but needs no resident hash table.
class MergeJoinOp final : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key,
              std::string right_key);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_name_;
  std::string right_key_name_;
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
