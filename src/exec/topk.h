// Top-k ORDER BY + LIMIT fusion: a bounded-heap operator that keeps only
// the first k rows of the sort order instead of materializing a full sort.
//
// The paper's thesis is doing the same work with fewer Joules; a full
// external sort that spills runs to a device only to discard all but k rows
// is exactly the energy waste it targets. TopKOp streams its input through
// bounded max-heaps of k rows (O(n log k) modeled comparisons, a k-row
// working set per heap, and zero spill when the kept rows fit the sort
// memory budget).
//
// When the child is a MorselSource, workers reduce each morsel to its local
// top-k candidate run, and every run is kept until the merge: runs·k
// candidate rows in total. Any other child (a join, a filter, an aggregate)
// streams batch by batch through one heap into a single candidate run of at
// most k rows. The child's type selects the branch, never the dop.
//
// Equivalence contract (DESIGN.md §8): TopKOp emits rows byte-identical to
// SortOp (stable sort) followed by LimitOp(k). Stability is enforced by
// breaking key ties with (run index, position in run), which equals the
// input's global order because runs are indexed by morsel.
//
// Determinism contract (DESIGN.md §7): runs derive from morsel boundaries
// (never from dop), worker-side results are exact (copied rows), and every
// modeled charge is settled on the coordinator in run order, so results and
// accounting are bit-identical at every dop. The coordinator's candidate
// merge is charged through the serial-instruction bucket (Amdahl).

#ifndef ECODB_EXEC_TOPK_H_
#define ECODB_EXEC_TOPK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "exec/operator.h"
#include "exec/sort_limit.h"
#include "storage/device.h"

namespace ecodb::exec {

/// Modeled comparison instructions for streaming `rows` rows through a
/// bounded heap of `k` rows: every row pays one compare against the heap
/// root plus a log2(k) sift ladder. At k = n this approaches the full
/// sort's n·log2(n); at k = 1 it degenerates to a linear min-scan. Shared
/// with CostModel::SortDemand so the planner prices exactly what the
/// operator charges.
inline double TopKCompareInstructions(const CostConstants& c, double rows,
                                      double k, double num_keys) {
  if (rows <= 0.0 || k <= 0.0) return 0.0;
  const double k_eff = std::min(rows, k);
  return c.sort_per_row_log_row * rows *
         (1.0 + std::log2(std::max(1.0, k_eff))) * num_keys;
}

/// The first `k` rows of the child's stable sort order on `keys`. When the
/// kept candidate rows, summed over every candidate run (runs·k at most),
/// exceed `memory_budget_bytes` and a spill device is configured, each
/// candidate run is billed one sequential write + read (exactly once across
/// Open retries, like SortOp).
class TopKOp final : public Operator {
 public:
  TopKOp(OperatorPtr child, std::vector<SortKey> keys, size_t k,
         uint64_t memory_budget_bytes = UINT64_MAX,
         storage::StorageDevice* spill_device = nullptr);

  const catalog::Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  /// True when the last Open's kept candidate set exceeded the memory
  /// budget and was billed to the spill device.
  bool spilled() const { return spilled_; }
  /// Non-empty candidate runs formed (valid after Open; dop-invariant).
  size_t num_runs() const { return num_runs_; }

 private:
  /// One run's local top-k: kept rows in output order, plus the run's input
  /// row count (for charging).
  struct CandidateRun {
    RecordBatch rows;
    uint64_t rows_in = 0;
  };
  /// Streams rows into a bounded heap that becomes one CandidateRun.
  class RunBuilder;

  /// Forms runs_ (one per morsel, or one streamed from the child).
  Status FormRuns();
  /// Settles formation instructions + DRAM + per-run spill writes
  /// (coordinator, run order).
  Status SettleRunCharges();
  /// Merges runs_ into result_, keeping the global first k; charges the
  /// merge serially and per-run spill reads in run order.
  Status MergeRuns();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  size_t k_;
  uint64_t memory_budget_bytes_;
  storage::StorageDevice* spill_device_;

  std::vector<int> key_idx_;
  std::vector<CandidateRun> runs_;  // non-empty, in morsel order
  RecordBatch result_;
  size_t num_runs_ = 0;
  bool spilled_ = false;
  // Spill-billing watermarks (DESIGN.md §8): candidate runs re-form
  // identically when Open is retried after a mid-query error, so these
  // survive the retry and keep spill I/O billed exactly once. Never reset
  // in Open.
  uint64_t spill_write_charged_ = 0;
  bool spill_read_charged_ = false;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_TOPK_H_
