// Morsel-driven external sort with an optional limit, and the Limit
// operator.
//
// SortOp implements the two classical external-sort phases morsel-parallel,
// after the run-formation/merge structure of Leis et al. (SIGMOD 2014) and
// the JouleSort framing of Section 2.3 of the paper (records sorted per
// Joule):
//
//  1. Run formation — when the child is a MorselSource, workers claim
//     zone-block-aligned morsels from the query's WorkerPool ticket and
//     turn each morsel into an independent sorted run (stable within the
//     run). Runs are indexed by morsel, so the set of runs is a pure
//     function of the table, the filter, and ExecOptions::morsel_rows —
//     never of dop or scheduling. Any other child (a join, a filter, an
//     aggregate) streams batch by batch into one run; the child's type
//     selects the branch, never the dop. Each row's first sort key is
//     encoded once into an order-preserving 64-bit word; a run is a stable
//     LSD radix sort of (word, row), with equal words ordered on the keys
//     only where the word is not the whole key.
//  2. Parallel multiway merge — the coordinator picks key splitters from a
//     deterministic sample of the sorted runs, range-partitions every run
//     by those splitters, and workers merge one partition each, comparing
//     words first. Ties are broken by (run index, position in run), which
//     equals the input's global order, so the concatenated partitions are
//     byte-identical to a stable sort of the input. Each partition is
//     gathered a column at a time into batches of ExecOptions::batch_rows.
//
// ORDER BY + LIMIT (DESIGN.md §8): with a limit k, each run keeps only its
// first k rows — a run of at most 2k rows is sorted whole and cut at k, a
// longer one streams through a bounded heap (O(n log k) modeled
// comparisons, an O(k) working set) — and the merge emits only the first
// k rows, billing its ladder and stitching on those rows alone. So in
// every term and at every k the limited sort bills no more than the
// unlimited one followed by LimitOp(k), exactly as much at k >= n, and
// emits byte-identical rows; it is the one ORDER BY + LIMIT tree the
// planner builds. The paper's thesis is doing the same work with fewer
// Joules; a full external sort that spills every row only to discard all
// but k is exactly the waste it targets.
//
// Determinism contract (DESIGN.md §7): results, run boundaries, splitters,
// and all modeled charges are dop-invariant. Workers never touch the
// ExecContext; the coordinator settles every charge after each pool round
// in run/partition order, so floating-point accumulation order is fixed.
// Parallelism shortens only the CPU critical path (run formation and
// partition merges divide across cores; partition stitching is charged
// serial per Amdahl) and thereby the energy window. Splitter selection —
// sorting up to 16 sampled keys per run and binary-searching every run at
// up to 7 splitters — also runs on the coordinator, and is not billed.
//
// Spill accounting: when the rows the runs keep exceed
// `memory_budget_bytes` and a spill device is configured, every run is
// billed a sequential write when it forms and a sequential read when the
// merge consumes it — per-run charges on the device's own timeline, settled
// in run order, exactly once across Open retries.

#ifndef ECODB_EXEC_SORT_LIMIT_H_
#define ECODB_EXEC_SORT_LIMIT_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "storage/device.h"

namespace ecodb::exec {

struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Modeled comparison instructions for `rows` rows each climbing a
/// log2(`fan_in`) ladder: run formation (fan_in = run rows) and the merge
/// (fan_in = run count). Shared with CostModel::SortDemand so the planner
/// prices exactly what SortOp charges.
inline double SortLadderInstructions(double rows, double fan_in,
                                     double num_keys) {
  return kSortPerRowLogRow * rows * std::log2(fan_in) * num_keys;
}

/// Modeled comparison instructions for forming one run of `rows` input
/// rows that keeps its first `keep` of them (`keep` >= `rows` keeps all;
/// an unlimited sort passes infinity). A run of more than 2·keep rows
/// streams through a bounded heap: every row pays a compare against the
/// heap root plus a log2(keep) sift ladder. Any other run is sorted whole
/// and cut at `keep`, paying its own log2(rows) ladder, so a limit never
/// bills more than the unlimited sort. A run that keeps nothing or holds
/// at most one row compares nothing. Shared with CostModel::SortDemand.
inline double SortRunInstructions(double rows, double keep,
                                  double num_keys) {
  if (keep <= 0.0 || rows <= 1.0) return 0.0;
  if (2.0 * keep < rows) {
    return kSortPerRowLogRow * rows * (1.0 + std::log2(keep)) * num_keys;
  }
  return SortLadderInstructions(rows, rows, num_keys);
}

/// Serial instructions the coordinator bills for merging `runs` sorted runs
/// into the `rows` rows the merge emits (none for one run): their
/// stitching, the log2(runs) ladder over the same rows being parallel.
/// Shared with CostModel::SortDemand.
inline double SortMergeSerialInstructions(double rows, double runs) {
  if (runs <= 1.0) return 0.0;
  return OutputInstructions(rows);
}

/// The child's rows in stable order on `keys`; with `limit`, only the first
/// `*limit` of them.
class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys,
         uint64_t memory_budget_bytes = UINT64_MAX,
         storage::StorageDevice* spill_device = nullptr,
         std::optional<size_t> limit = std::nullopt);

  const catalog::Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  /// True when the last Open's kept rows exceeded the memory budget and its
  /// runs were billed to the spill device.
  bool spilled() const { return spilled_; }
  /// Non-empty sorted runs formed (valid after Open; dop-invariant).
  size_t num_runs() const { return num_runs_; }
  /// Merge partitions produced by splitter range-partitioning (valid after
  /// Open; dop-invariant).
  size_t merge_partitions() const { return num_partitions_; }

 private:
  /// One sorted run: its kept rows in output order (under a limit, at most
  /// k) with their first-key words, and the input rows it was formed from
  /// (for charging).
  struct Run {
    RecordBatch rows;
    std::vector<uint64_t> words;
    uint64_t rows_in = 0;
  };
  /// Turns the rows offered to it, in input order, into one Run.
  class RunBuilder;

  /// Forms runs_ (one per morsel, or one streamed from the child).
  Status FormRuns();
  /// Settles formation instructions + DRAM + per-run spill writes
  /// (coordinator, run order).
  Status SettleRunCharges();
  /// Reads spilled runs back, then range-partitions runs_ by sampled
  /// splitters and merges the partitions across the pool into batches_,
  /// keeping the first k rows under a limit.
  Status MergeRuns();

  /// Writes the first sort key's order-preserving word (DESIGN.md §7) for
  /// each row of `batch` into `words`.
  void EncodeWords(const RecordBatch& batch,
                   std::vector<uint64_t>* words) const;

  /// Three-way comparison, in output order, of row `ra` of `a` (first-key
  /// word `wa`) against row `rb` of `b` (word `wb`): the words decide
  /// unless they tie, and then the keys the word leaves open do. Ties
  /// return 0 — callers break them by input position, so every path is
  /// stable the same way. Doubles compare in a total order: NaN after
  /// every number (so ASC puts NaNs last and DESC first), NaNs tied among
  /// themselves, -0.0 tied with +0.0.
  int CompareRows(uint64_t wa, const RecordBatch& a, size_t ra, uint64_t wb,
                  const RecordBatch& b, size_t rb) const;

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  uint64_t memory_budget_bytes_;
  storage::StorageDevice* spill_device_;
  std::optional<size_t> limit_;

  std::vector<int> key_idx_;
  // The first key a word tie leaves undecided: 1 when the first key's word
  // is the whole key, 0 for a string key (its longer values share words).
  size_t tie_key_ = 0;
  std::vector<Run> runs_;             // non-empty, in morsel order
  std::vector<RecordBatch> batches_;  // merged output, in key order
  size_t num_runs_ = 0;
  size_t num_partitions_ = 0;
  bool spilled_ = false;
  // Spill-billing watermarks (DESIGN.md §8): runs re-form identically when
  // Open is retried after a mid-query error, so these survive the retry and
  // keep spill I/O billed exactly once. Never reset in Open.
  uint64_t spill_write_charged_ = 0;
  bool spill_read_charged_ = false;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

/// Passes at most `limit` rows through.
class LimitOp final : public Operator {
 public:
  LimitOp(OperatorPtr child, size_t limit);

  const catalog::Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
  ExecContext* ctx_ = nullptr;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_SORT_LIMIT_H_
