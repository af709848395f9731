// Index scan: the B+tree access path.
//
// Fetches the rows whose indexed key falls in [lo, hi] via root-to-leaf
// descent plus a leaf-chain walk, then random page reads for the qualifying
// rows. The energy profile is the inverse of a full scan's: per-row random
// I/O that wins at low selectivity and loses badly at high selectivity —
// the access-path crossover the paper's Section 5.1 asks to re-evaluate
// under the energy objective (bench/ablate_index_crossover).

#ifndef ECODB_EXEC_INDEX_SCAN_H_
#define ECODB_EXEC_INDEX_SCAN_H_

#include <string>
#include <vector>

#include "exec/operator.h"
#include "storage/btree.h"
#include "storage/table_storage.h"

namespace ecodb::exec {

/// Instructions to read one value out of a lane.
constexpr double kTupleTouch = 1.0;

/// Instructions IndexScanOp bills: 20 per level of a `height` descent, and
/// a tuple touch of each of `columns` in each of the `matches` rows.
inline double IndexScanInstructions(double height, double matches,
                                    double columns) {
  return 20.0 * height + kTupleTouch * matches * columns;
}

class IndexScanOp final : public Operator {
 public:
  /// Emits rows of `table` whose `index` key lies in [lo, hi] (inclusive),
  /// projecting `columns` (empty = all). `index` must map keys to row
  /// positions of `table`; both must outlive the operator.
  IndexScanOp(const storage::TableStorage* table,
              const storage::BTreeIndex* index,
              std::vector<std::string> columns, int64_t lo, int64_t hi);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  /// Matching rows found during Open.
  size_t matches() const { return row_ids_.size(); }
  /// Heap pages fetched (distinct pages holding matching rows).
  size_t heap_pages_fetched() const { return heap_pages_; }

 private:
  const storage::TableStorage* table_;
  const storage::BTreeIndex* index_;
  std::vector<std::string> column_names_;
  std::vector<int> column_indexes_;
  int64_t lo_;
  int64_t hi_;
  catalog::Schema schema_;
  std::vector<uint64_t> row_ids_;
  size_t heap_pages_ = 0;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
  bool open_ = false;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_INDEX_SCAN_H_
