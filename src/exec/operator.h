// Pull-based (Volcano-style, vectorized) operator interface.
//
// Every operator consumes batches from its children and produces batches of
// its output schema, reporting its CPU / I/O / DRAM work to the ExecContext
// as it goes. `Next` returns batches until it sets `eos`.

#ifndef ECODB_EXEC_OPERATOR_H_
#define ECODB_EXEC_OPERATOR_H_

#include <memory>
#include <vector>

#include "exec/batch.h"
#include "exec/exec_context.h"
#include "util/status.h"

namespace ecodb::exec {

class Operator {
 public:
  virtual ~Operator() = default;

  /// Output schema; valid after Open().
  virtual const catalog::Schema& output_schema() const = 0;

  /// Prepares the operator (binds expressions, opens children, performs
  /// blocking work such as hash builds). `ctx` outlives the operator's use.
  virtual Status Open(ExecContext* ctx) = 0;

  /// Produces the next batch. Sets `*eos` when exhausted (then `out` is
  /// left empty). May legally produce empty non-EOS batches.
  virtual Status Next(RecordBatch* out, bool* eos) = 0;

  /// Releases resources; idempotent.
  virtual void Close() = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Instructions to emit one output row.
constexpr double kOutputPerRow = 2.0;
/// Instructions of one sort comparison-swap on one key: SortOp's ladders
/// and the merge join's input sorts.
constexpr double kSortPerRowLogRow = 3.0;

/// Instructions an operator bills, and the planner prices, for emitting
/// `rows` rows: join matches, aggregate groups, a merged sort's rows.
inline double OutputInstructions(double rows) { return kOutputPerRow * rows; }

/// Drains `root` into a materialized result set, counting emitted rows into
/// the context. The operator must not yet be open.
StatusOr<QueryResultSet> CollectAll(Operator* root, ExecContext* ctx);

/// Materializes everything an open `child` produces into one batch. Polls
/// the cancellation token per batch: a killed session stops draining at a
/// deterministic batch boundary with its partial charges intact.
Status Drain(Operator* child, ExecContext* ctx, RecordBatch* out);

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_OPERATOR_H_
