#include "exec/expr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace ecodb::exec {

using catalog::DataType;

ExprPtr Expr::Column(std::string name) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Logical(LogicalOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kNot;
  e->lhs_ = std::move(inner);
  return e;
}

namespace {

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kDate;
}

// Integer arithmetic is defined as two's-complement wrapping (via the
// unsigned domain, where overflow is well-defined) so full-range operands
// are not UB under -fsanitize=undefined.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

// Numeric lane view: promotes int64/date lanes to double on demand.
double NumericAt(const ColumnData& c, size_t row) {
  return c.type == DataType::kDouble ? c.f64[row]
                                     : static_cast<double>(c.i64[row]);
}

/// One comparison of two numbers: int64 and date lanes compare as
/// integers, and any pair with a double through double, so no two distinct
/// integers compare equal.
template <typename T>
bool CompareNumbers(CompareOp op, T a, T b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

bool CompareStrings(CompareOp op, const std::string& a,
                    const std::string& b) {
  const int c = a.compare(b);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

// The tree walk's arithmetic, one row at a time (integer division
// promotes to double when bound, so it never reaches ArithInt64).
int64_t ArithInt64(ArithOp op, int64_t a, int64_t b) {
  return op == ArithOp::kAdd   ? WrapAdd(a, b)
         : op == ArithOp::kSub ? WrapSub(a, b)
                               : WrapMul(a, b);
}

double ArithDouble(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      return b == 0.0 ? 0.0 : a / b;
  }
  return 0.0;
}

/// `n` copies of literal `v` into `out`'s lane of v's type.
void Broadcast(const Value& v, size_t n, ColumnData* out) {
  switch (v.type) {
    case DataType::kInt64:
    case DataType::kDate:
      out->i64.assign(n, v.i64);
      break;
    case DataType::kDouble:
      out->f64.assign(n, v.f64);
      break;
    case DataType::kString:
      out->str.assign(n, v.str);
      break;
  }
}

}  // namespace

StatusOr<BoundExpr> Expr::Bind(const catalog::Schema& schema) const {
  BoundExpr b;
  b.root_ = shared_from_this();
  ECODB_RETURN_IF_ERROR(b.Add(*this, schema));
  return b;
}

StatusOr<BoundExpr> Expr::BindPredicate(const catalog::Schema& schema) const {
  ECODB_ASSIGN_OR_RETURN(BoundExpr b, Bind(schema));
  if (b.result_type() != DataType::kInt64) {
    return Status::InvalidArgument("predicate must be boolean (int64)");
  }
  return b;
}

Status BoundExpr::Add(const Expr& e, const catalog::Schema& schema) {
  const size_t self = nodes_.size();
  nodes_.push_back({&e});
  if (e.lhs() != nullptr) {
    nodes_[self].lhs = static_cast<int>(nodes_.size());
    ECODB_RETURN_IF_ERROR(Add(*e.lhs(), schema));
  }
  if (e.rhs() != nullptr) {
    nodes_[self].rhs = static_cast<int>(nodes_.size());
    ECODB_RETURN_IF_ERROR(Add(*e.rhs(), schema));
  }
  Node& n = nodes_[self];
  const DataType lt = n.lhs >= 0 ? nodes_[n.lhs].type : DataType::kInt64;
  const DataType rt = n.rhs >= 0 ? nodes_[n.rhs].type : DataType::kInt64;
  switch (e.kind()) {
    case ExprKind::kColumn: {
      const int c = schema.FindColumn(e.column_name());
      if (c < 0) {
        return Status::NotFound("unbound column '" + e.column_name() + "'");
      }
      n.type = schema.column(c).type;
      const auto it = std::find(inputs_.begin(), inputs_.end(), c);
      n.input = static_cast<int>(it - inputs_.begin());
      if (it == inputs_.end()) inputs_.push_back(c);
      break;
    }
    case ExprKind::kLiteral:
      n.type = e.literal().type;
      break;
    case ExprKind::kCompare:
      if (!(IsNumeric(lt) && IsNumeric(rt)) &&
          !(lt == DataType::kString && rt == DataType::kString)) {
        return Status::InvalidArgument("comparison type mismatch");
      }
      n.type = DataType::kInt64;
      break;
    case ExprKind::kArith:
      if (!IsNumeric(lt) || !IsNumeric(rt)) {
        return Status::InvalidArgument("arithmetic on non-numeric operand");
      }
      n.type = lt == DataType::kDouble || rt == DataType::kDouble ||
                       e.arith_op() == ArithOp::kDiv
                   ? DataType::kDouble
                   : DataType::kInt64;
      break;
    case ExprKind::kLogical:
    case ExprKind::kNot:
      // AND/OR/NOT read their operands' int64 lanes and masks.
      if (lt != DataType::kInt64 || rt != DataType::kInt64) {
        return Status::InvalidArgument(
            "logical operand must be boolean (int64)");
      }
      n.type = DataType::kInt64;
      break;
  }
  return Status::OK();
}

/// One evaluation of a bound program: its input lanes, their row count,
/// and the scratch the fused paths reuse.
struct BoundExpr::Eval {
  const BoundExpr& program;
  std::span<const ColumnData> columns;  // a batch's, or the input lanes
  const int* map = nullptr;  // input i is columns[map[i]]; null: columns[i]
  size_t rows = 0;
  EvalScratch* scratch = nullptr;

  const ColumnData& Input(int i) const {
    return columns[static_cast<size_t>(map != nullptr ? map[i] : i)];
  }
  ColumnData Walk(int node) const;
  Status RootMask(std::vector<uint8_t>* mask) const;
  void Mask(int node, size_t depth, std::vector<uint8_t>* mask) const;
  void LaneInto(int node, size_t depth, ColumnData* out) const;
  /// Operand `node` of a fused loop: a column's own lane, null for a
  /// literal (read its value), else the node computed into scratch.
  const ColumnData* Operand(int node, size_t depth, int slot) const;
};

ColumnData BoundExpr::Evaluate(const RecordBatch& batch) const {
  const Eval eval{*this, batch.columns(), inputs_.data(), batch.num_rows(),
                  nullptr};
  return eval.Walk(0);
}

ColumnData BoundExpr::Eval::Walk(int node) const {
  const Node& nd = program.nodes_[node];
  const Expr& e = *nd.expr;
  ColumnData out;
  out.type = nd.type;
  if (e.kind() == ExprKind::kColumn) return Input(nd.input);
  if (e.kind() == ExprKind::kLiteral) {
    Broadcast(e.literal(), rows, &out);
    return out;
  }
  const ColumnData l = Walk(nd.lhs);
  const ColumnData r = nd.rhs >= 0 ? Walk(nd.rhs) : ColumnData{};
  for (size_t i = 0; i < rows; ++i) {
    switch (e.kind()) {
      case ExprKind::kCompare:
        if (l.type == DataType::kString) {
          out.i64.push_back(
              CompareStrings(e.compare_op(), l.str[i], r.str[i]));
        } else if (catalog::IsIntegerLike(l.type) &&
                   catalog::IsIntegerLike(r.type)) {
          out.i64.push_back(
              CompareNumbers(e.compare_op(), l.i64[i], r.i64[i]));
        } else {
          out.i64.push_back(CompareNumbers(e.compare_op(), NumericAt(l, i),
                                           NumericAt(r, i)));
        }
        break;
      case ExprKind::kArith:
        if (nd.type == DataType::kInt64) {
          out.i64.push_back(ArithInt64(e.arith_op(), l.i64[i], r.i64[i]));
        } else {
          out.f64.push_back(
              ArithDouble(e.arith_op(), NumericAt(l, i), NumericAt(r, i)));
        }
        break;
      case ExprKind::kLogical:
        out.i64.push_back(e.logical_op() == LogicalOp::kAnd
                              ? (l.i64[i] != 0 && r.i64[i] != 0)
                              : (l.i64[i] != 0 || r.i64[i] != 0));
        break;
      default:  // kNot
        out.i64.push_back(l.i64[i] == 0);
        break;
    }
  }
  return out;
}

// --- Fused batch-at-a-time evaluation --------------------------------------
//
// The tree walk above materializes a ColumnData per node; it is kept as
// the reference semantics (and differential oracle). The
// fused path below emits selection masks directly and reads leaf operands
// (columns, literals) in place. It must stay byte-identical to the walk:
// in particular, integers compare as integers and any pair with a double
// through double, matching the reference exactly.

namespace {

struct NumView {
  const double* f64 = nullptr;
  const int64_t* i64 = nullptr;
  double constant = 0.0;
};

struct I64View {
  const int64_t* ptr = nullptr;
  int64_t constant = 0;
};

/// The view of a fused operand's lane, or of `literal` when it has none.
NumView NumOf(const ColumnData* lane, const Value& literal) {
  NumView v;
  if (lane == nullptr) {
    v.constant = literal.AsDouble();
  } else if (lane->type == DataType::kDouble) {
    v.f64 = lane->f64.data();
  } else {
    v.i64 = lane->i64.data();
  }
  return v;
}

I64View I64Of(const ColumnData* lane, const Value& literal) {
  return lane == nullptr ? I64View{nullptr, literal.i64}
                         : I64View{lane->i64.data(), 0};
}

template <typename L, typename R>
void CompareLoop(CompareOp op, size_t n, const L& l, const R& r,
                 uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) == r(i);
      break;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) != r(i);
      break;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) < r(i);
      break;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) <= r(i);
      break;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) > r(i);
      break;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) >= r(i);
      break;
  }
}

template <typename L, typename R>
void ArithF64Loop(ArithOp op, size_t n, const L& l, const R& r, double* out) {
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) + r(i);
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) - r(i);
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) * r(i);
      break;
    case ArithOp::kDiv:
      for (size_t i = 0; i < n; ++i) {
        const double b = r(i);
        out[i] = b == 0.0 ? 0.0 : l(i) / b;
      }
      break;
  }
}

template <typename L, typename R>
void ArithI64Loop(ArithOp op, size_t n, const L& l, const R& r,
                  int64_t* out) {
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] = WrapAdd(l(i), r(i));
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < n; ++i) out[i] = WrapSub(l(i), r(i));
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < n; ++i) out[i] = WrapMul(l(i), r(i));
      break;
    case ArithOp::kDiv:
      assert(false && "integer division promotes to double");
      break;
  }
}

template <typename F>
void WithNum(const NumView& v, F&& f) {
  if (v.f64 != nullptr) {
    f([p = v.f64](size_t i) { return p[i]; });
  } else if (v.i64 != nullptr) {
    f([p = v.i64](size_t i) { return static_cast<double>(p[i]); });
  } else {
    f([c = v.constant](size_t) { return c; });
  }
}

template <typename F>
void WithI64(const I64View& v, F&& f) {
  if (v.ptr != nullptr) {
    f([p = v.ptr](size_t i) { return p[i]; });
  } else {
    f([c = v.constant](size_t) { return c; });
  }
}

}  // namespace

const ColumnData* BoundExpr::Eval::Operand(int node, size_t depth,
                                           int slot) const {
  const Node& nd = program.nodes_[node];
  switch (nd.expr->kind()) {
    case ExprKind::kColumn:
      return &Input(nd.input);
    case ExprKind::kLiteral:
      return nullptr;
    default: {
      ColumnData* tmp = scratch->Lane(2 * depth + static_cast<size_t>(slot));
      LaneInto(node, depth + 1, tmp);
      return tmp;
    }
  }
}

Status BoundExpr::Eval::RootMask(std::vector<uint8_t>* mask) const {
  if (program.result_type() != DataType::kInt64) {
    return Status::InvalidArgument("mask expression must be boolean/int64");
  }
  Mask(0, 0, mask);
  return Status::OK();
}

void BoundExpr::Eval::Mask(int node, size_t depth,
                           std::vector<uint8_t>* mask) const {
  const Node& nd = program.nodes_[node];
  const Expr& e = *nd.expr;
  const size_t n = rows;
  mask->resize(n);
  switch (e.kind()) {
    case ExprKind::kColumn: {
      const int64_t* lane = Input(nd.input).i64.data();
      for (size_t i = 0; i < n; ++i) (*mask)[i] = lane[i] != 0;
      return;
    }
    case ExprKind::kLiteral:
      std::fill(mask->begin(), mask->end(),
                static_cast<uint8_t>(e.literal().i64 != 0));
      return;
    case ExprKind::kCompare: {
      const ColumnData* lp = Operand(nd.lhs, depth, 0);
      const ColumnData* rp = Operand(nd.rhs, depth, 1);
      const Value& lc = program.nodes_[nd.lhs].expr->literal();
      const Value& rc = program.nodes_[nd.rhs].expr->literal();
      if (program.nodes_[nd.lhs].type == DataType::kString) {
        // String operands are columns or literals by construction (every
        // other node kind produces a numeric type).
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] = CompareStrings(e.compare_op(), lp ? lp->str[i] : lc.str,
                                      rp ? rp->str[i] : rc.str);
        }
        return;
      }
      uint8_t* out = mask->data();
      if (catalog::IsIntegerLike(program.nodes_[nd.lhs].type) &&
          catalog::IsIntegerLike(program.nodes_[nd.rhs].type)) {
        WithI64(I64Of(lp, lc), [&](auto lg) {
          WithI64(I64Of(rp, rc), [&](auto rg) {
            CompareLoop(e.compare_op(), n, lg, rg, out);
          });
        });
        return;
      }
      WithNum(NumOf(lp, lc), [&](auto lg) {
        WithNum(NumOf(rp, rc),
                [&](auto rg) { CompareLoop(e.compare_op(), n, lg, rg, out); });
      });
      return;
    }
    case ExprKind::kLogical: {
      // Evaluate the cheaper side first; when it already decides the whole
      // batch (all-zero AND / all-one OR) the expensive side is skipped.
      // AND/OR are commutative over total masks, so output is unchanged.
      int a = nd.lhs;
      int b = nd.rhs;
      if (program.nodes_[b].expr->InstructionsPerRow() <
          program.nodes_[a].expr->InstructionsPerRow()) {
        std::swap(a, b);
      }
      Mask(a, depth + 1, mask);
      uint8_t all_one = 1, any_one = 0;
      for (size_t i = 0; i < n; ++i) {
        all_one &= (*mask)[i];
        any_one |= (*mask)[i];
      }
      const bool is_and = e.logical_op() == LogicalOp::kAnd;
      if (is_and && any_one == 0) return;
      if (!is_and && all_one == 1) return;
      std::vector<uint8_t>* tmp = scratch->Mask(depth);
      Mask(b, depth + 1, tmp);
      uint8_t* m = mask->data();
      const uint8_t* t = tmp->data();
      if (is_and) {
        for (size_t i = 0; i < n; ++i) m[i] &= t[i];
      } else {
        for (size_t i = 0; i < n; ++i) m[i] |= t[i];
      }
      return;
    }
    case ExprKind::kNot: {
      Mask(nd.lhs, depth + 1, mask);
      uint8_t* m = mask->data();
      for (size_t i = 0; i < n; ++i) m[i] ^= 1;
      return;
    }
    case ExprKind::kArith: {
      ColumnData* tmp = scratch->Lane(2 * depth);
      LaneInto(node, depth + 1, tmp);
      const int64_t* lane = tmp->i64.data();
      for (size_t i = 0; i < n; ++i) (*mask)[i] = lane[i] != 0;
      return;
    }
  }
}

void BoundExpr::Eval::LaneInto(int node, size_t depth, ColumnData* out) const {
  const Node& nd = program.nodes_[node];
  const Expr& e = *nd.expr;
  const size_t n = rows;
  out->type = nd.type;
  switch (e.kind()) {
    case ExprKind::kColumn:
      *out = Input(nd.input);
      return;
    case ExprKind::kLiteral:
      Broadcast(e.literal(), n, out);
      return;
    case ExprKind::kCompare:
    case ExprKind::kLogical:
    case ExprKind::kNot: {
      // Boolean nodes produce 0/1 int64 lanes; reuse the mask machinery
      // and widen (masks are exactly 0/1 bytes).
      std::vector<uint8_t>* m = scratch->Mask(depth);
      Mask(node, depth + 1, m);
      out->i64.resize(n);
      const uint8_t* src = m->data();
      for (size_t i = 0; i < n; ++i) out->i64[i] = src[i];
      return;
    }
    case ExprKind::kArith: {
      const ColumnData* lp = Operand(nd.lhs, depth, 0);
      const ColumnData* rp = Operand(nd.rhs, depth, 1);
      const Value& lc = program.nodes_[nd.lhs].expr->literal();
      const Value& rc = program.nodes_[nd.rhs].expr->literal();
      if (nd.type == DataType::kInt64) {
        out->i64.resize(n);
        int64_t* dst = out->i64.data();
        WithI64(I64Of(lp, lc), [&](auto lg) {
          WithI64(I64Of(rp, rc), [&](auto rg) {
            ArithI64Loop(e.arith_op(), n, lg, rg, dst);
          });
        });
      } else {
        out->f64.resize(n);
        double* dst = out->f64.data();
        WithNum(NumOf(lp, lc), [&](auto lg) {
          WithNum(NumOf(rp, rc), [&](auto rg) {
            ArithF64Loop(e.arith_op(), n, lg, rg, dst);
          });
        });
      }
      return;
    }
  }
}

Status BoundExpr::EvaluateMaskInto(const RecordBatch& batch,
                                   EvalScratch* scratch,
                                   std::vector<uint8_t>* mask) const {
  const Eval eval{*this, batch.columns(), inputs_.data(), batch.num_rows(),
                  scratch};
  return eval.RootMask(mask);
}

Status BoundExpr::EvaluateMaskInto(std::span<const ColumnData> lanes,
                                   size_t rows, EvalScratch* scratch,
                                   std::vector<uint8_t>* mask) const {
  const Eval eval{*this, lanes, nullptr, rows, scratch};
  return eval.RootMask(mask);
}

void BoundExpr::EvaluateInto(const RecordBatch& batch, EvalScratch* scratch,
                             ColumnData* out) const {
  out->i64.clear();
  out->f64.clear();
  out->str.clear();
  const Eval eval{*this, batch.columns(), inputs_.data(), batch.num_rows(),
                  scratch};
  eval.LaneInto(0, 0, out);
}

double Expr::InstructionsPerRow() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return 1.0;
    case ExprKind::kLiteral:
      return 0.5;
    case ExprKind::kCompare:
      return 2.0 + lhs_->InstructionsPerRow() + rhs_->InstructionsPerRow();
    case ExprKind::kArith:
      return 1.5 + lhs_->InstructionsPerRow() + rhs_->InstructionsPerRow();
    case ExprKind::kLogical:
      return 1.0 + lhs_->InstructionsPerRow() + rhs_->InstructionsPerRow();
    case ExprKind::kNot:
      return 1.0 + lhs_->InstructionsPerRow();
  }
  return 1.0;
}

std::optional<ColumnCompare> NormalizeColumnCompare(const ExprPtr& e) {
  if (e == nullptr || e->kind() != ExprKind::kCompare) return std::nullopt;
  const ExprPtr& l = e->lhs();
  const ExprPtr& r = e->rhs();
  const bool col_lit =
      l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kLiteral;
  const bool lit_col =
      l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn;
  if (!col_lit && !lit_col) return std::nullopt;
  ColumnCompare c{col_lit ? l->column_name() : r->column_name(),
                  e->compare_op(), col_lit ? r->literal() : l->literal()};
  if (lit_col) {
    switch (c.op) {
      case CompareOp::kLt:
        c.op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        c.op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        c.op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        c.op = CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  return c;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return column_name_;
    case ExprKind::kLiteral:
      switch (literal_.type) {
        case DataType::kInt64:
          return std::to_string(literal_.i64);
        case DataType::kDate:
          return "date:" + std::to_string(literal_.i64);
        case DataType::kDouble:
          return std::to_string(literal_.f64);
        case DataType::kString:
          return "'" + literal_.str + "'";
      }
      return "?";
    case ExprKind::kCompare: {
      static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
      return "(" + lhs_->ToString() + " " +
             kOps[static_cast<int>(compare_op_)] + " " + rhs_->ToString() +
             ")";
    }
    case ExprKind::kArith: {
      static const char* kOps[] = {"+", "-", "*", "/"};
      return "(" + lhs_->ToString() + " " +
             kOps[static_cast<int>(arith_op_)] + " " + rhs_->ToString() + ")";
    }
    case ExprKind::kLogical:
      return "(" + lhs_->ToString() +
             (logical_op_ == LogicalOp::kAnd ? " AND " : " OR ") +
             rhs_->ToString() + ")";
    case ExprKind::kNot:
      return "NOT " + lhs_->ToString();
  }
  return "?";
}

}  // namespace ecodb::exec
