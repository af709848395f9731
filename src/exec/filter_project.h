// The filter operator.

#ifndef ECODB_EXEC_FILTER_PROJECT_H_
#define ECODB_EXEC_FILTER_PROJECT_H_

#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace ecodb::exec {

/// Instructions FilterOp bills for evaluating `predicate` on `rows` rows,
/// from its static per-row cost. The scan's fused filter bills the same.
inline double FilterInstructions(const Expr& predicate, double rows) {
  return predicate.InstructionsPerRow() * rows;
}

/// Keeps rows for which `predicate` evaluates non-zero.
class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate);

  const catalog::Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_ = nullptr;
  // Reused across batches by the fused evaluator (operator runs
  // single-threaded, so sharing is safe).
  EvalScratch scratch_;
  std::vector<uint8_t> mask_;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_FILTER_PROJECT_H_
