// Expression trees: column references, literals, comparisons, arithmetic,
// and boolean connectives, evaluated columnwise over RecordBatches.
//
// Expressions are built programmatically (EcoDB's API is an embedded query
// builder, not a SQL parser) and never change. Binding one against an input
// schema returns a BoundExpr, the program the binding operator owns and
// evaluates into a value lane or a selection mask.

#ifndef ECODB_EXEC_EXPR_H_
#define ECODB_EXEC_EXPR_H_

#include <deque>
#include <memory>
#include <optional>
#include <span>
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

class BoundExpr;

/// Immutable expression node: it holds only what its factory set, so any
/// number of specs, operator trees and threads may share one.
class Expr : public std::enable_shared_from_this<Expr> {
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

  /// The program that evaluates this expression over batches of `schema`.
  /// NotFound for an unknown column; InvalidArgument for a comparison of a
  /// string with a number, arithmetic on a string, or an AND/OR/NOT operand
  /// that is not boolean (int64).
  StatusOr<BoundExpr> Bind(const catalog::Schema& schema) const;

  /// Bind for a predicate, which must also be boolean (int64), so an
  /// operator that filters by it fails at Open, not on its first batch.
  StatusOr<BoundExpr> BindPredicate(const catalog::Schema& schema) const;

  /// Abstract per-row instruction cost of evaluating this tree (drives the
  /// CPU energy charge; shared with the optimizer's estimates).
  double InstructionsPerRow() const;

  /// Human-readable rendering, e.g. "(price > 100.0 AND qty < 5)".
  std::string ToString() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string column_name_;
  Value literal_;
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  LogicalOp logical_op_ = LogicalOp::kAnd;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// An expression bound to one input schema, which the binding operator owns:
/// each node's result type and resolved column, the columns it reads, and
/// the expression. Immutable, so evaluations may run concurrently (each
/// with its own EvalScratch).
class BoundExpr {
 public:
  /// The bound schema's columns the expression reads, each once, in order
  /// of first use: an evaluation's input lane i holds column inputs()[i].
  const std::vector<int>& inputs() const { return inputs_; }

  /// The expression's output type.
  catalog::DataType result_type() const { return nodes_.front().type; }

  /// Evaluates over `batch`, a batch of the bound schema, into a column
  /// lane (0/1 int64 for booleans) by a tree walk, one lane per node: the
  /// reference semantics of the fused evaluators below.
  ColumnData Evaluate(const RecordBatch& batch) const;

  /// Fused evaluation into a selection mask, resized to the batch: `mask[i]`
  /// is 1 exactly where Evaluate is non-zero. InvalidArgument unless the
  /// expression is boolean (int64). Compare nodes emit selection bytes and
  /// AND/OR combine masks, skipping a side the cheaper side decided.
  Status EvaluateMaskInto(const RecordBatch& batch, EvalScratch* scratch,
                          std::vector<uint8_t>* mask) const;
  /// The same over the input lanes alone: `lanes[i]` holds `rows` values
  /// of input i.
  Status EvaluateMaskInto(std::span<const ColumnData> lanes, size_t rows,
                          EvalScratch* scratch,
                          std::vector<uint8_t>* mask) const;

  /// Fused lane evaluation into `out` (replacing its contents), reusing
  /// `scratch` across batches. Byte-identical to Evaluate.
  void EvaluateInto(const RecordBatch& batch, EvalScratch* scratch,
                    ColumnData* out) const;

 private:
  friend class Expr;

  /// One expression node, in pre-order (the root first).
  struct Node {
    const Expr* expr = nullptr;  // kind, operator and literal
    catalog::DataType type = catalog::DataType::kInt64;
    int input = -1;  // a column: its input lane
    int lhs = -1;    // operands: node indexes
    int rhs = -1;
  };
  /// One evaluation: the walk and the fused evaluators.
  struct Eval;

  /// Appends `e`'s subtree, typed against `schema`, in pre-order.
  Status Add(const Expr& e, const catalog::Schema& schema);

  std::shared_ptr<const Expr> root_;
  std::vector<Node> nodes_;
  std::vector<int> inputs_;
};

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
