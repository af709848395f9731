// Morsel-driven external sort, and the Limit operator.
//
// SortOp implements the two classical external-sort phases morsel-parallel,
// after the run-formation/merge structure of Leis et al. (SIGMOD 2014) and
// the JouleSort framing of Section 2.3 of the paper (records sorted per
// Joule):
//
//  1. Run formation — when the child is a MorselSource, workers claim
//     zone-block-aligned morsels from the query's WorkerPool ticket and
//     sort each morsel into an independent sorted run (stable within the
//     run). Runs are indexed by morsel, so the set of runs is a pure
//     function of the table, the filter, and ExecOptions::morsel_rows —
//     never of dop or scheduling. Any other child (a join, a filter, an
//     aggregate) is drained into one run; the child's type selects the
//     branch, never the dop.
//  2. Parallel multiway merge — the coordinator picks key splitters from a
//     deterministic sample of the sorted runs, range-partitions every run
//     by those splitters, and workers merge one partition each. Ties are
//     broken by (run index, position in run), which equals the input's
//     global order, so the concatenated partitions are byte-identical to a
//     stable sort of the input.
//
// Determinism contract (DESIGN.md §7): results, run boundaries, splitters,
// and all modeled charges are dop-invariant. Workers never touch the
// ExecContext; the coordinator settles every charge after each pool round
// in run/partition order, so floating-point accumulation order is fixed.
// Parallelism shortens only the CPU critical path (run formation and
// partition merges divide across cores; splitter selection and partition
// stitching are charged serial per Amdahl) and thereby the energy window.
//
// Spill accounting: when the materialized input exceeds
// `memory_budget_bytes` and a spill device is configured, every run is
// billed a sequential write when it forms and a sequential read when the
// merge consumes it — per-run charges on the device's own timeline, settled
// in run order, exactly once across Open retries.

#ifndef ECODB_EXEC_SORT_LIMIT_H_
#define ECODB_EXEC_SORT_LIMIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "storage/device.h"

namespace ecodb::exec {

struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Three-way comparison of row `ra` of `a` against row `rb` of `b` on the
/// sort keys (`key_idx[i]` is keys[i]'s column index in both schemas).
/// The sign follows the sort direction; ties return 0 — callers break them
/// by input position so every sort path is stable the same way. Doubles
/// compare in a total order: NaN after every number (so ASC puts NaNs last
/// and DESC first), NaNs tied among themselves, -0.0 tied with +0.0. Shared by
/// SortOp and TopKOp so one comparison semantics backs every ordering
/// operator.
int CompareRowsOnKeys(const RecordBatch& a, size_t ra, const RecordBatch& b,
                      size_t rb, const std::vector<SortKey>& keys,
                      const std::vector<int>& key_idx);

/// Resolves `keys` against `schema` into column indexes, or NotFound for a
/// missing sort column.
Status ResolveSortKeys(const catalog::Schema& schema,
                       const std::vector<SortKey>& keys,
                       std::vector<int>* key_idx);

class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys,
         uint64_t memory_budget_bytes = UINT64_MAX,
         storage::StorageDevice* spill_device = nullptr);

  const catalog::Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  /// True when the last Open's input exceeded the memory budget and its
  /// runs were billed to the spill device.
  bool spilled() const { return spilled_; }
  /// Sorted runs formed (valid after Open; dop-invariant).
  size_t num_runs() const { return num_runs_; }
  /// Merge partitions produced by splitter range-partitioning (valid after
  /// Open; dop-invariant).
  size_t merge_partitions() const { return num_partitions_; }

 private:
  /// Sorts `batch`'s rows stably by keys_ into `run`.
  Status SortRun(const RecordBatch& batch, RecordBatch* run) const;
  /// Forms runs_ (one per morsel, or one for a drained child).
  Status FormRuns();
  /// Settles DRAM + per-run spill charges (coordinator, run order).
  Status SettleRunCharges();
  /// Range-partitions runs_ by sampled splitters and merges partitions
  /// across the pool into partitions_.
  Status MergeRuns();

  /// Three-way row comparison on the sort keys (sign follows sort order;
  /// ties return 0 — callers break them by (run, position)).
  int CompareRows(const RecordBatch& a, size_t ra, const RecordBatch& b,
                  size_t rb) const;

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  uint64_t memory_budget_bytes_;
  storage::StorageDevice* spill_device_;

  std::vector<int> key_idx_;
  std::vector<RecordBatch> runs_;        // sorted, in morsel order
  std::vector<RecordBatch> partitions_;  // merged output, in key order
  size_t num_runs_ = 0;
  size_t num_partitions_ = 0;
  uint64_t total_bytes_ = 0;
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
