// Expression trees: column references, literals, comparisons, arithmetic,
// and boolean connectives, evaluated columnwise over RecordBatches.
//
// Expressions are built programmatically (EcoDB's API is an embedded query
// builder, not a SQL parser), bound against an input schema, and evaluated
// to produce either a value lane or a selection mask.

#ifndef ECODB_EXEC_EXPR_H_
#define ECODB_EXEC_EXPR_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "util/status.h"

namespace ecodb::exec {

enum class ExprKind {
  kColumn,
  kLiteral,
  kCompare,
  kArith,
  kLogical,
  kNot,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };
enum class LogicalOp { kAnd, kOr };

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Reusable scratch buffers for the fused batch-at-a-time evaluators.
/// Owning one in an operator lets intermediate masks/lanes be reused
/// across batches instead of reallocating per Evaluate call. Slots are
/// indexed by recursion depth; a deque keeps addresses stable while the
/// pool grows mid-evaluation. Not thread-safe: use one per worker.
class EvalScratch {
 public:
  std::vector<uint8_t>* Mask(size_t slot) {
    while (masks_.size() <= slot) masks_.emplace_back();
    return &masks_[slot];
  }
  ColumnData* Lane(size_t slot) {
    while (lanes_.size() <= slot) lanes_.emplace_back();
    return &lanes_[slot];
  }

 private:
  std::deque<std::vector<uint8_t>> masks_;
  std::deque<ColumnData> lanes_;
};

/// Immutable expression node.
class Expr {
 public:
  // Factories.
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Value v);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Logical(LogicalOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr inner);

  ExprKind kind() const { return kind_; }
  const std::string& column_name() const { return column_name_; }
  const Value& literal() const { return literal_; }
  CompareOp compare_op() const { return compare_op_; }
  ArithOp arith_op() const { return arith_op_; }
  LogicalOp logical_op() const { return logical_op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  /// Resolves column names to indexes and checks types against `schema`.
  /// Must be called (again) before Evaluate when the input schema changes.
  Status Bind(const catalog::Schema& schema);

  /// Output type after a successful Bind.
  catalog::DataType result_type() const { return result_type_; }

  /// Evaluates over the batch into a column lane. Boolean results use the
  /// int64 lane with values 0/1.
  StatusOr<ColumnData> Evaluate(const RecordBatch& batch) const;

  /// Evaluates as a selection mask (expression must be boolean-typed).
  /// Wraps EvaluateMaskInto with a local scratch, so it stays safe to call
  /// concurrently from worker contexts.
  StatusOr<std::vector<uint8_t>> EvaluateMask(const RecordBatch& batch) const;

  /// Fused mask evaluation: compare nodes emit selection bytes directly and
  /// AND/OR combine masks (short-circuiting the batch when the cheaper side
  /// already decides it) — no per-node ColumnData temporaries. Output is
  /// byte-identical to EvaluateMask; `mask` is resized to the batch.
  Status EvaluateMaskInto(const RecordBatch& batch, EvalScratch* scratch,
                          std::vector<uint8_t>* mask) const;

  /// Fused lane evaluation into `out` (replacing its contents), reusing
  /// `scratch` across batches. Byte-identical to Evaluate.
  Status EvaluateInto(const RecordBatch& batch, EvalScratch* scratch,
                      ColumnData* out) const;

  /// Abstract per-row instruction cost of evaluating this tree (drives the
  /// CPU energy charge; shared with the optimizer's estimates).
  double InstructionsPerRow() const;

  /// Human-readable rendering, e.g. "(price > 100.0 AND qty < 5)".
  std::string ToString() const;

 private:
  Expr() = default;

 public:
  // Operand views for the fused loops (defined in expr.cc; implementation
  // detail, public only so file-local helpers can name them).
  struct NumView;
  struct I64View;

 private:
  Status MaskImpl(const RecordBatch& batch, EvalScratch* scratch,
                  size_t depth, std::vector<uint8_t>* mask) const;
  Status NumImpl(const RecordBatch& batch, EvalScratch* scratch, size_t depth,
                 ColumnData* out) const;
  Status MakeNumView(const RecordBatch& batch, EvalScratch* scratch,
                     size_t depth, int slot, NumView* view) const;
  Status MakeI64View(const RecordBatch& batch, EvalScratch* scratch,
                     size_t depth, int slot, I64View* view) const;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string column_name_;
  int column_index_ = -1;
  Value literal_;
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  LogicalOp logical_op_ = LogicalOp::kAnd;
  ExprPtr lhs_;
  ExprPtr rhs_;
  catalog::DataType result_type_ = catalog::DataType::kInt64;
  bool bound_ = false;
};

/// Collects every column name `expr` references into `out`.
void CollectColumns(const ExprPtr& expr, std::set<std::string>* out);

/// A comparison of one column against one literal, normalized so the column
/// is on the left ("lit < col" becomes "col > lit").
struct ColumnCompare {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;
};

/// The one column-vs-literal normalizer, shared by zone-map pruning and the
/// planner's key-range, band and selectivity estimates; nothing for any
/// other expression.
std::optional<ColumnCompare> NormalizeColumnCompare(const ExprPtr& e);

// Terse builder helpers for call sites:
//   Col("price") > Lit(100.0), And(a, b) ...
inline ExprPtr Col(std::string name) { return Expr::Column(std::move(name)); }
inline ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }
inline ExprPtr Lit(double v) { return Expr::Literal(Value::Double(v)); }
inline ExprPtr Lit(const char* v) { return Expr::Literal(Value::String(v)); }
inline ExprPtr LitDate(int64_t days) {
  return Expr::Literal(Value::Date(days));
}

inline ExprPtr operator==(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr operator!=(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr operator<(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr operator<=(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr operator>(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr operator>=(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr operator+(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr operator-(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr operator*(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr operator/(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kDiv, std::move(a), std::move(b));
}
inline ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::Logical(LogicalOp::kAnd, std::move(a), std::move(b));
}
inline ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Expr::Logical(LogicalOp::kOr, std::move(a), std::move(b));
}

/// lo <= expr AND expr <= hi (both ends inclusive, SQL BETWEEN).
inline ExprPtr Between(ExprPtr value, ExprPtr lo, ExprPtr hi) {
  ExprPtr lower = Expr::Compare(CompareOp::kGe, value, std::move(lo));
  ExprPtr upper =
      Expr::Compare(CompareOp::kLe, std::move(value), std::move(hi));
  return And(std::move(lower), std::move(upper));
}

/// expr = v1 OR expr = v2 OR ... (SQL IN over literals). Requires at least
/// one candidate.
template <typename T>
ExprPtr In(ExprPtr value, const std::vector<T>& candidates) {
  ExprPtr result;
  for (const T& c : candidates) {
    ExprPtr term = Expr::Compare(CompareOp::kEq, value, Lit(c));
    result = !result ? std::move(term)
                     : Or(std::move(result), std::move(term));
  }
  return result;
}

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_EXPR_H_
