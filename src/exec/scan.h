// Morsel-driven table scan, with optional zone-map pruning and a fused
// exact filter.
//
// TableScanOp streams a TableStorage's projected columns. On Open it submits
// the device I/O for the projected footprint (sequential stream — the whole
// point of the Figure 2 experiment is the size of this transfer under
// different compression choices), decodes any integer-coded columns, parses
// any dictionary-coded ones into their strings and codes, and charges the
// corresponding CPU instructions. A dictionary column's strings are built
// per morsel, for the rows it keeps (and for every row of a lane the
// filter reads), each copied from its code's entry.
//
// When the table has zone maps and a prune filter is supplied, blocks whose
// min/max cannot satisfy the filter are skipped: their rows are never
// emitted, and — for uncompressed columns and row-layout tables — their
// bytes are never transferred, so skipped I/O is skipped energy. Pruning is
// conservative (may emit non-matching rows); an optional exact filter
// (which may alias the prune filter) is applied row-exactly inside the scan.
//
// The selected row ranges are split into morsels whose boundaries align
// with zone-map blocks. Consumers that accept a MorselSource (aggregate,
// sort, top-k, the hash-join probe) pull morsels inside their own worker
// tasks; any other consumer pulls batches through Next(), which produces
// them across the query's WorkerPool (a pool of one runs them inline).
//
// Determinism contract: morsel boundaries depend only on the table, the
// prune filter, and ExecOptions::morsel_rows — never on dop or on which
// worker ran a morsel. Output is emitted in row order, and every modeled
// charge is computed from dop-invariant totals on the coordinator, so a
// query returns byte-identical results and identical accounting at every
// dop (only wall-clock and the energy window change).

#ifndef ECODB_EXEC_SCAN_H_
#define ECODB_EXEC_SCAN_H_

#include <span>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "storage/table_storage.h"

namespace ecodb::exec {

/// A half-open run of selected row positions.
struct ScanRowRange {
  size_t begin;
  size_t end;
};

/// Outcome of zone-map pruning: the surviving row ranges (block-aligned,
/// ascending, adjacent blocks coalesced) plus skip statistics.
struct ScanPruning {
  std::vector<ScanRowRange> ranges;
  size_t blocks_skipped = 0;
  double selected_fraction = 1.0;
};

/// Evaluates `filter` against `table`'s zone maps into the selected row
/// ranges. With a null filter, no zone maps, or an empty table, everything
/// is selected. The scan and the planner's estimator both use this one
/// routine, so `blocks_skipped` agrees between them.
ScanPruning PruneScan(const ExprPtr& filter,
                      const storage::TableStorage& table);

/// Decode instructions a scan of `column_indexes` bills when
/// `selected_fraction` of the blocks survive pruning: the table's
/// DecodeInstructions, scaled by ExecOptions::decode_scale. The scan
/// transfers `table.ScanBytes(column_indexes, selected_fraction)`.
inline double ScanDecodeInstructions(double decode_scale,
                                     const storage::TableStorage& table,
                                     const std::vector<int>& column_indexes,
                                     double selected_fraction) {
  return table.DecodeInstructions(column_indexes, selected_fraction) *
         decode_scale;
}

/// Instructions the scan's fused exact `filter` bills: FilterInstructions
/// on every row `pruning` keeps. Rows in skipped blocks cost nothing.
double ScanFilterInstructions(const Expr& filter, const ScanPruning& pruning);

/// A pipeline source that can hand out independent morsels. ProduceMorsel
/// must be safe to call concurrently for distinct indexes once Open() has
/// returned.
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  /// Number of morsels (valid after Open).
  virtual size_t morsel_count() const = 0;

  /// Materializes morsel `index` into `out` (the rows surviving any local
  /// filtering). Charges nothing: the consumer bills from its own totals.
  virtual Status ProduceMorsel(size_t index, RecordBatch* out) const = 0;
};

/// Splits selected row ranges into morsels of ~`target_rows`, aligned to
/// multiples of `block_rows` (pass 0 or 1 when the table has no zone maps).
std::vector<ScanRowRange> MorselizeRanges(
    const std::vector<ScanRowRange>& ranges, size_t block_rows,
    size_t target_rows);

class TableScanOp final : public Operator, public MorselSource {
 public:
  /// Projects `columns` (empty = all) from `table`. A non-null
  /// `prune_filter` enables zone-map block skipping (ignored when the table
  /// has no zone maps); `exact_filter` (may alias prune_filter) is applied
  /// row-exactly inside each morsel.
  TableScanOp(const storage::TableStorage* table,
              std::vector<std::string> columns = {},
              ExprPtr prune_filter = nullptr, ExprPtr exact_filter = nullptr);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  // MorselSource:
  size_t morsel_count() const override { return morsels_.size(); }
  Status ProduceMorsel(size_t index, RecordBatch* out) const override;

  /// Blocks skipped by zone-map pruning during the last Open (0 when
  /// pruning was off).
  size_t blocks_skipped() const { return blocks_skipped_; }

 private:
  /// Materializes rows [range.begin, range.end): copies each lane, or with
  /// an exact filter gathers each lane's surviving rows.
  Status ProduceRange(ScanRowRange range, RecordBatch* out) const;
  /// Produces every Next() batch across the pool into slots_.
  Status Materialize();

  const storage::TableStorage* table_;
  std::vector<std::string> column_names_;
  std::vector<int> column_indexes_;
  ExprPtr prune_filter_;
  ExprPtr exact_filter_;
  catalog::Schema schema_;
  /// The exact filter bound to schema_: its inputs are the projected lanes
  /// it reads.
  BoundExpr filter_program_;

  /// One projected column as ProduceRange reads it: a lane of values, or
  /// a dictionary column's strings and codes.
  struct ColumnSource {
    const storage::ColumnData* lane = nullptr;  // null: read `coded`
    storage::DictionaryColumn coded;

    /// Copies rows [range.begin, range.end) into `dst`.
    void CopyRange(ScanRowRange range, storage::ColumnData* dst) const;
    /// Appends rows `offset + rows[i]`, in that order, to `dst`.
    void Gather(size_t offset, std::span<const uint32_t> rows,
                storage::ColumnData* dst) const;
  };

  /// Per projected column: a borrowed uncompressed lane, an owned integer
  /// decode (in owned_decodes_), or a dictionary column.
  std::vector<ColumnSource> sources_;
  std::vector<storage::ColumnData> owned_decodes_;

  std::vector<ScanRowRange> morsels_;
  size_t blocks_skipped_ = 0;
  std::vector<RecordBatch> slots_;  // Next() batches, emitted in order
  bool materialized_ = false;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
  bool open_ = false;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_SCAN_H_
