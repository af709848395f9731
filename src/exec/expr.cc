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
}  // namespace

Status Expr::Bind(const catalog::Schema& schema) {
  switch (kind_) {
    case ExprKind::kColumn: {
      column_index_ = schema.FindColumn(column_name_);
      if (column_index_ < 0) {
        return Status::NotFound("unbound column '" + column_name_ + "'");
      }
      result_type_ = schema.column(column_index_).type;
      break;
    }
    case ExprKind::kLiteral:
      result_type_ = literal_.type;
      break;
    case ExprKind::kCompare: {
      ECODB_RETURN_IF_ERROR(lhs_->Bind(schema));
      ECODB_RETURN_IF_ERROR(rhs_->Bind(schema));
      const DataType lt = lhs_->result_type_;
      const DataType rt = rhs_->result_type_;
      const bool both_numeric = IsNumeric(lt) && IsNumeric(rt);
      const bool both_string =
          lt == DataType::kString && rt == DataType::kString;
      if (!both_numeric && !both_string) {
        return Status::InvalidArgument("comparison type mismatch");
      }
      result_type_ = DataType::kInt64;
      break;
    }
    case ExprKind::kArith: {
      ECODB_RETURN_IF_ERROR(lhs_->Bind(schema));
      ECODB_RETURN_IF_ERROR(rhs_->Bind(schema));
      if (!IsNumeric(lhs_->result_type_) || !IsNumeric(rhs_->result_type_)) {
        return Status::InvalidArgument("arithmetic on non-numeric operand");
      }
      const bool any_double = lhs_->result_type_ == DataType::kDouble ||
                              rhs_->result_type_ == DataType::kDouble ||
                              arith_op_ == ArithOp::kDiv;
      result_type_ = any_double ? DataType::kDouble : DataType::kInt64;
      break;
    }
    case ExprKind::kLogical:
      ECODB_RETURN_IF_ERROR(lhs_->Bind(schema));
      ECODB_RETURN_IF_ERROR(rhs_->Bind(schema));
      result_type_ = DataType::kInt64;
      break;
    case ExprKind::kNot:
      ECODB_RETURN_IF_ERROR(lhs_->Bind(schema));
      result_type_ = DataType::kInt64;
      break;
  }
  bound_ = true;
  return Status::OK();
}

namespace {

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

bool CompareDoubles(CompareOp op, double a, double b) {
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

}  // namespace

StatusOr<ColumnData> Expr::Evaluate(const RecordBatch& batch) const {
  if (!bound_) return Status::FailedPrecondition("expression not bound");
  const size_t n = batch.num_rows();
  ColumnData out;
  out.type = result_type_;
  switch (kind_) {
    case ExprKind::kColumn:
      return batch.column(column_index_);
    case ExprKind::kLiteral: {
      switch (result_type_) {
        case DataType::kInt64:
        case DataType::kDate:
          out.i64.assign(n, literal_.i64);
          break;
        case DataType::kDouble:
          out.f64.assign(n, literal_.f64);
          break;
        case DataType::kString:
          out.str.assign(n, literal_.str);
          break;
      }
      return out;
    }
    case ExprKind::kCompare: {
      ECODB_ASSIGN_OR_RETURN(ColumnData l, lhs_->Evaluate(batch));
      ECODB_ASSIGN_OR_RETURN(ColumnData r, rhs_->Evaluate(batch));
      out.i64.resize(n);
      if (l.type == DataType::kString) {
        for (size_t i = 0; i < n; ++i) {
          out.i64[i] = CompareStrings(compare_op_, l.str[i], r.str[i]);
        }
      } else if (l.type != DataType::kDouble && r.type != DataType::kDouble) {
        for (size_t i = 0; i < n; ++i) {
          out.i64[i] =
              CompareDoubles(compare_op_, static_cast<double>(l.i64[i]),
                             static_cast<double>(r.i64[i]));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          out.i64[i] = CompareDoubles(compare_op_, NumericAt(l, i),
                                      NumericAt(r, i));
        }
      }
      return out;
    }
    case ExprKind::kArith: {
      ECODB_ASSIGN_OR_RETURN(ColumnData l, lhs_->Evaluate(batch));
      ECODB_ASSIGN_OR_RETURN(ColumnData r, rhs_->Evaluate(batch));
      if (result_type_ == DataType::kInt64) {
        out.i64.resize(n);
        for (size_t i = 0; i < n; ++i) {
          switch (arith_op_) {
            case ArithOp::kAdd:
              out.i64[i] = WrapAdd(l.i64[i], r.i64[i]);
              break;
            case ArithOp::kSub:
              out.i64[i] = WrapSub(l.i64[i], r.i64[i]);
              break;
            case ArithOp::kMul:
              out.i64[i] = WrapMul(l.i64[i], r.i64[i]);
              break;
            case ArithOp::kDiv:
              assert(false && "integer division promotes to double");
              break;
          }
        }
      } else {
        out.f64.resize(n);
        for (size_t i = 0; i < n; ++i) {
          const double a = NumericAt(l, i);
          const double b = NumericAt(r, i);
          switch (arith_op_) {
            case ArithOp::kAdd:
              out.f64[i] = a + b;
              break;
            case ArithOp::kSub:
              out.f64[i] = a - b;
              break;
            case ArithOp::kMul:
              out.f64[i] = a * b;
              break;
            case ArithOp::kDiv:
              out.f64[i] = b == 0.0 ? 0.0 : a / b;
              break;
          }
        }
      }
      return out;
    }
    case ExprKind::kLogical: {
      ECODB_ASSIGN_OR_RETURN(ColumnData l, lhs_->Evaluate(batch));
      ECODB_ASSIGN_OR_RETURN(ColumnData r, rhs_->Evaluate(batch));
      out.i64.resize(n);
      for (size_t i = 0; i < n; ++i) {
        out.i64[i] = logical_op_ == LogicalOp::kAnd
                         ? (l.i64[i] != 0 && r.i64[i] != 0)
                         : (l.i64[i] != 0 || r.i64[i] != 0);
      }
      return out;
    }
    case ExprKind::kNot: {
      ECODB_ASSIGN_OR_RETURN(ColumnData l, lhs_->Evaluate(batch));
      out.i64.resize(n);
      for (size_t i = 0; i < n; ++i) out.i64[i] = l.i64[i] == 0;
      return out;
    }
  }
  return Status::Internal("unreachable expression kind");
}

// --- Fused batch-at-a-time evaluation --------------------------------------
//
// The tree-walk Evaluate above materializes a ColumnData per node; it is
// kept unchanged as the reference semantics (and differential oracle). The
// fused path below emits selection masks directly and reads leaf operands
// (columns, literals) in place. It must stay byte-identical to Evaluate:
// in particular, numeric comparisons always go through double — including
// int64 vs int64 — matching the reference exactly.

struct Expr::NumView {
  const double* f64 = nullptr;
  const int64_t* i64 = nullptr;
  double constant = 0.0;
};

struct Expr::I64View {
  const int64_t* ptr = nullptr;
  int64_t constant = 0;
};

namespace {

// Binds a view to a row-indexed getter lambda so the op loops below
// specialize into tight branch-free code per operand shape.
template <typename F>
void WithNum(const Expr::NumView& v, F&& f);

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
void WithNum(const Expr::NumView& v, F&& f) {
  if (v.f64 != nullptr) {
    f([p = v.f64](size_t i) { return p[i]; });
  } else if (v.i64 != nullptr) {
    f([p = v.i64](size_t i) { return static_cast<double>(p[i]); });
  } else {
    f([c = v.constant](size_t) { return c; });
  }
}

template <typename F>
void WithI64(const Expr::I64View& v, F&& f) {
  if (v.ptr != nullptr) {
    f([p = v.ptr](size_t i) { return p[i]; });
  } else {
    f([c = v.constant](size_t) { return c; });
  }
}

}  // namespace

Status Expr::MakeNumView(const RecordBatch& batch, EvalScratch* scratch,
                         size_t depth, int slot, NumView* view) const {
  switch (kind_) {
    case ExprKind::kColumn: {
      const ColumnData& c = batch.column(column_index_);
      if (c.type == DataType::kDouble) {
        view->f64 = c.f64.data();
      } else {
        view->i64 = c.i64.data();
      }
      return Status::OK();
    }
    case ExprKind::kLiteral:
      view->constant = literal_.AsDouble();
      return Status::OK();
    default: {
      ColumnData* tmp = scratch->Lane(2 * depth + static_cast<size_t>(slot));
      ECODB_RETURN_IF_ERROR(NumImpl(batch, scratch, depth + 1, tmp));
      if (result_type_ == DataType::kDouble) {
        view->f64 = tmp->f64.data();
      } else {
        view->i64 = tmp->i64.data();
      }
      return Status::OK();
    }
  }
}

Status Expr::MakeI64View(const RecordBatch& batch, EvalScratch* scratch,
                         size_t depth, int slot, I64View* view) const {
  switch (kind_) {
    case ExprKind::kColumn:
      view->ptr = batch.column(column_index_).i64.data();
      return Status::OK();
    case ExprKind::kLiteral:
      view->constant = literal_.i64;
      return Status::OK();
    default: {
      ColumnData* tmp = scratch->Lane(2 * depth + static_cast<size_t>(slot));
      ECODB_RETURN_IF_ERROR(NumImpl(batch, scratch, depth + 1, tmp));
      view->ptr = tmp->i64.data();
      return Status::OK();
    }
  }
}

Status Expr::MaskImpl(const RecordBatch& batch, EvalScratch* scratch,
                      size_t depth, std::vector<uint8_t>* mask) const {
  if (result_type_ != DataType::kInt64) {
    return Status::InvalidArgument("mask expression must be boolean/int64");
  }
  const size_t n = batch.num_rows();
  mask->resize(n);
  switch (kind_) {
    case ExprKind::kColumn: {
      const int64_t* lane = batch.column(column_index_).i64.data();
      for (size_t i = 0; i < n; ++i) (*mask)[i] = lane[i] != 0;
      return Status::OK();
    }
    case ExprKind::kLiteral: {
      std::fill(mask->begin(), mask->end(),
                static_cast<uint8_t>(literal_.i64 != 0));
      return Status::OK();
    }
    case ExprKind::kCompare: {
      if (lhs_->result_type_ == DataType::kString) {
        // String operands are columns or literals by construction (every
        // other node kind produces a numeric type).
        auto lane_of = [&](const Expr& e) {
          return e.kind_ == ExprKind::kColumn
                     ? batch.column(e.column_index_).str.data()
                     : nullptr;
        };
        const std::string* lp = lane_of(*lhs_);
        const std::string* rp = lane_of(*rhs_);
        const std::string& lc = lhs_->literal_.str;
        const std::string& rc = rhs_->literal_.str;
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] = CompareStrings(compare_op_, lp ? lp[i] : lc,
                                      rp ? rp[i] : rc);
        }
        return Status::OK();
      }
      NumView l, r;
      ECODB_RETURN_IF_ERROR(lhs_->MakeNumView(batch, scratch, depth, 0, &l));
      ECODB_RETURN_IF_ERROR(rhs_->MakeNumView(batch, scratch, depth, 1, &r));
      uint8_t* out = mask->data();
      WithNum(l, [&](auto lg) {
        WithNum(r, [&](auto rg) { CompareLoop(compare_op_, n, lg, rg, out); });
      });
      return Status::OK();
    }
    case ExprKind::kLogical: {
      // Evaluate the cheaper side first; when it already decides the whole
      // batch (all-zero AND / all-one OR) the expensive side is skipped.
      // AND/OR are commutative over total masks, so output is unchanged.
      const Expr* a = lhs_.get();
      const Expr* b = rhs_.get();
      if (b->InstructionsPerRow() < a->InstructionsPerRow()) std::swap(a, b);
      ECODB_RETURN_IF_ERROR(a->MaskImpl(batch, scratch, depth + 1, mask));
      uint8_t all_one = 1, any_one = 0;
      for (size_t i = 0; i < n; ++i) {
        all_one &= (*mask)[i];
        any_one |= (*mask)[i];
      }
      const bool is_and = logical_op_ == LogicalOp::kAnd;
      if (is_and && any_one == 0) return Status::OK();
      if (!is_and && all_one == 1) return Status::OK();
      std::vector<uint8_t>* tmp = scratch->Mask(depth);
      ECODB_RETURN_IF_ERROR(b->MaskImpl(batch, scratch, depth + 1, tmp));
      uint8_t* m = mask->data();
      const uint8_t* t = tmp->data();
      if (is_and) {
        for (size_t i = 0; i < n; ++i) m[i] &= t[i];
      } else {
        for (size_t i = 0; i < n; ++i) m[i] |= t[i];
      }
      return Status::OK();
    }
    case ExprKind::kNot: {
      ECODB_RETURN_IF_ERROR(lhs_->MaskImpl(batch, scratch, depth + 1, mask));
      uint8_t* m = mask->data();
      for (size_t i = 0; i < n; ++i) m[i] ^= 1;
      return Status::OK();
    }
    case ExprKind::kArith: {
      ColumnData* tmp = scratch->Lane(2 * depth);
      ECODB_RETURN_IF_ERROR(NumImpl(batch, scratch, depth + 1, tmp));
      const int64_t* lane = tmp->i64.data();
      for (size_t i = 0; i < n; ++i) (*mask)[i] = lane[i] != 0;
      return Status::OK();
    }
  }
  return Status::Internal("unreachable expression kind");
}

Status Expr::NumImpl(const RecordBatch& batch, EvalScratch* scratch,
                     size_t depth, ColumnData* out) const {
  const size_t n = batch.num_rows();
  out->type = result_type_;
  switch (kind_) {
    case ExprKind::kColumn:
      *out = batch.column(column_index_);
      return Status::OK();
    case ExprKind::kLiteral:
      switch (result_type_) {
        case DataType::kInt64:
        case DataType::kDate:
          out->i64.assign(n, literal_.i64);
          break;
        case DataType::kDouble:
          out->f64.assign(n, literal_.f64);
          break;
        case DataType::kString:
          out->str.assign(n, literal_.str);
          break;
      }
      return Status::OK();
    case ExprKind::kCompare:
    case ExprKind::kLogical:
    case ExprKind::kNot: {
      // Boolean nodes produce 0/1 int64 lanes; reuse the mask machinery
      // and widen (masks are exactly 0/1 bytes).
      std::vector<uint8_t>* m = scratch->Mask(depth);
      ECODB_RETURN_IF_ERROR(MaskImpl(batch, scratch, depth + 1, m));
      out->i64.resize(n);
      const uint8_t* src = m->data();
      for (size_t i = 0; i < n; ++i) out->i64[i] = src[i];
      return Status::OK();
    }
    case ExprKind::kArith: {
      if (result_type_ == DataType::kInt64) {
        I64View l, r;
        ECODB_RETURN_IF_ERROR(
            lhs_->MakeI64View(batch, scratch, depth, 0, &l));
        ECODB_RETURN_IF_ERROR(
            rhs_->MakeI64View(batch, scratch, depth, 1, &r));
        out->i64.resize(n);
        int64_t* dst = out->i64.data();
        WithI64(l, [&](auto lg) {
          WithI64(r, [&](auto rg) { ArithI64Loop(arith_op_, n, lg, rg, dst); });
        });
      } else {
        NumView l, r;
        ECODB_RETURN_IF_ERROR(lhs_->MakeNumView(batch, scratch, depth, 0, &l));
        ECODB_RETURN_IF_ERROR(rhs_->MakeNumView(batch, scratch, depth, 1, &r));
        out->f64.resize(n);
        double* dst = out->f64.data();
        WithNum(l, [&](auto lg) {
          WithNum(r, [&](auto rg) { ArithF64Loop(arith_op_, n, lg, rg, dst); });
        });
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable expression kind");
}

Status Expr::EvaluateMaskInto(const RecordBatch& batch, EvalScratch* scratch,
                              std::vector<uint8_t>* mask) const {
  if (result_type_ != DataType::kInt64) {
    return Status::InvalidArgument("mask expression must be boolean/int64");
  }
  if (!bound_) return Status::FailedPrecondition("expression not bound");
  return MaskImpl(batch, scratch, 0, mask);
}

Status Expr::EvaluateInto(const RecordBatch& batch, EvalScratch* scratch,
                          ColumnData* out) const {
  if (!bound_) return Status::FailedPrecondition("expression not bound");
  out->i64.clear();
  out->f64.clear();
  out->str.clear();
  return NumImpl(batch, scratch, 0, out);
}

void CollectColumns(const ExprPtr& expr, std::set<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kColumn) {
    out->insert(expr->column_name());
    return;
  }
  CollectColumns(expr->lhs(), out);
  CollectColumns(expr->rhs(), out);
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
