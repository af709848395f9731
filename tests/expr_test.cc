// Tests for expression binding, evaluation, masks, and rendering.

#include <gtest/gtest.h>

#include "exec/batch.h"
#include "exec/expr.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

Schema TestSchema() {
  return Schema({
      Column{"a", DataType::kInt64, 8},
      Column{"b", DataType::kDouble, 8},
      Column{"s", DataType::kString, 8},
      Column{"d", DataType::kDate, 8},
  });
}

RecordBatch TestBatch() {
  RecordBatch batch(TestSchema());
  batch.column(0).i64 = {1, 2, 3, 4};
  batch.column(1).f64 = {1.5, -2.0, 0.0, 10.0};
  batch.column(2).str = {"x", "y", "x", "z"};
  batch.column(3).i64 = {100, 200, 300, 400};
  EXPECT_TRUE(batch.SealRows(4).ok());
  return batch;
}

/// `e` bound to TestSchema(); after a failed bind (a test failure), a
/// program of zeros, so the test's checks fail instead of crashing.
BoundExpr BindTest(const ExprPtr& e) {
  auto bound = e->Bind(TestSchema());
  EXPECT_TRUE(bound.ok()) << e->ToString() << ": "
                          << bound.status().message();
  return bound.ok() ? *std::move(bound)
                    : *Lit(int64_t{0})->Bind(TestSchema());
}

TEST(Expr, ColumnEvaluatesToLane) {
  const BoundExpr e = BindTest(Col("a"));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(e.inputs(), (std::vector<int>{0}));
}

TEST(Expr, UnknownColumnFailsBind) {
  auto e = Col("missing");
  EXPECT_EQ(e->Bind(TestSchema()).status().code(), StatusCode::kNotFound);
}

template <typename T>
constexpr bool kEvaluates =
    requires(const T& e, const RecordBatch& batch) { e.Evaluate(batch); };

TEST(Expr, EvaluateBeforeBindFails) {
  // Only the program Bind returns evaluates: an unbound Expr has no
  // Evaluate to call, and a failed Bind returns no program.
  static_assert(!kEvaluates<Expr>);
  static_assert(kEvaluates<BoundExpr>);
  EXPECT_FALSE(Col("missing")->Bind(TestSchema()).ok());
}

TEST(Expr, LiteralBroadcasts) {
  const BoundExpr e = BindTest(Lit(7.5));
  EXPECT_EQ(e.Evaluate(TestBatch()).f64,
            (std::vector<double>{7.5, 7.5, 7.5, 7.5}));
  EXPECT_TRUE(e.inputs().empty());
}

TEST(Expr, IntCompare) {
  const BoundExpr e = BindTest(Col("a") > Lit(int64_t{2}));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{0, 0, 1, 1}));
}

TEST(Expr, MixedIntDoubleCompare) {
  const BoundExpr e = BindTest(Col("b") >= Col("a"));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{1, 0, 0, 1}));
  EXPECT_EQ(e.inputs(), (std::vector<int>{1, 0}));  // in order of first use
}

TEST(Expr, StringCompare) {
  const BoundExpr e = BindTest(Col("s") == Lit("x"));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{1, 0, 1, 0}));
}

TEST(Expr, StringOrdering) {
  const BoundExpr e = BindTest(Col("s") < Lit("y"));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{1, 0, 1, 0}));
}

TEST(Expr, StringVsNumericRejectedAtBind) {
  auto e = Col("s") == Lit(int64_t{1});
  EXPECT_EQ(e->Bind(TestSchema()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Expr, AllSixComparators) {
  const RecordBatch batch = TestBatch();
  struct Case {
    CompareOp op;
    std::vector<int64_t> expect;
  };
  const Case cases[] = {
      {CompareOp::kEq, {0, 1, 0, 0}}, {CompareOp::kNe, {1, 0, 1, 1}},
      {CompareOp::kLt, {1, 0, 0, 0}}, {CompareOp::kLe, {1, 1, 0, 0}},
      {CompareOp::kGt, {0, 0, 1, 1}}, {CompareOp::kGe, {0, 1, 1, 1}},
  };
  for (const Case& c : cases) {
    const BoundExpr e =
        BindTest(Expr::Compare(c.op, Col("a"), Lit(int64_t{2})));
    EXPECT_EQ(e.Evaluate(batch).i64, c.expect) << static_cast<int>(c.op);
  }
}

TEST(Expr, IntegerArithmeticStaysInt) {
  const BoundExpr e = BindTest(Col("a") + Col("a") * Lit(int64_t{10}));
  EXPECT_EQ(e.result_type(), DataType::kInt64);
  EXPECT_EQ(e.Evaluate(TestBatch()).i64,
            (std::vector<int64_t>{11, 22, 33, 44}));
}

TEST(Expr, DivisionPromotesToDouble) {
  const BoundExpr e = BindTest(Col("a") / Lit(int64_t{2}));
  EXPECT_EQ(e.result_type(), DataType::kDouble);
  EXPECT_EQ(e.Evaluate(TestBatch()).f64,
            (std::vector<double>{0.5, 1.0, 1.5, 2.0}));
}

TEST(Expr, DivisionByZeroYieldsZero) {
  const BoundExpr e = BindTest(Lit(1.0) / Col("b"));
  EXPECT_DOUBLE_EQ(e.Evaluate(TestBatch()).f64[2], 0.0);  // b[2] == 0.0
}

TEST(Expr, MixedArithmeticPromotes) {
  const BoundExpr e = BindTest(Col("a") + Col("b"));
  EXPECT_EQ(e.result_type(), DataType::kDouble);
  EXPECT_EQ(e.Evaluate(TestBatch()).f64,
            (std::vector<double>{2.5, 0.0, 3.0, 14.0}));
}

TEST(Expr, ArithmeticOnStringsRejected) {
  auto e = Col("s") + Lit(int64_t{1});
  EXPECT_EQ(e->Bind(TestSchema()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Expr, LogicalAndOrNot) {
  const BoundExpr e =
      BindTest(And(Col("a") > Lit(int64_t{1}), Col("a") < Lit(int64_t{4})));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{0, 1, 1, 0}));

  const BoundExpr o = BindTest(
      Or(Col("a") == Lit(int64_t{1}), Col("a") == Lit(int64_t{4})));
  EXPECT_EQ(o.Evaluate(TestBatch()).i64, (std::vector<int64_t>{1, 0, 0, 1}));

  const BoundExpr n = BindTest(Expr::Not(Col("a") > Lit(int64_t{2})));
  EXPECT_EQ(n.Evaluate(TestBatch()).i64, (std::vector<int64_t>{1, 1, 0, 0}));
}

// AND, OR and NOT read their operands as int64 masks, so binding rejects a
// double ("b"), date ("d") or string ("s") operand, on either side.
const char* const kNonBooleanColumns[] = {"b", "d", "s"};

TEST(Expr, AndRejectsNonBooleanOperand) {
  for (const char* column : kNonBooleanColumns) {
    for (const ExprPtr& e : {And(Col(column), Col("a") > Lit(int64_t{1})),
                             And(Col("a") > Lit(int64_t{1}), Col(column))}) {
      EXPECT_EQ(e->Bind(TestSchema()).status().code(),
                StatusCode::kInvalidArgument)
          << e->ToString();
    }
  }
  // An int64 operand is a boolean: non-zero is true.
  const BoundExpr e = BindTest(And(Col("a"), Col("a") > Lit(int64_t{1})));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{0, 1, 1, 1}));
}

TEST(Expr, OrRejectsNonBooleanOperand) {
  for (const char* column : kNonBooleanColumns) {
    for (const ExprPtr& e : {Or(Col(column), Col("a") > Lit(int64_t{1})),
                             Or(Col("a") > Lit(int64_t{1}), Col(column))}) {
      EXPECT_EQ(e->Bind(TestSchema()).status().code(),
                StatusCode::kInvalidArgument)
          << e->ToString();
    }
  }
}

TEST(Expr, NotRejectsNonBooleanOperand) {
  for (const char* column : kNonBooleanColumns) {
    EXPECT_EQ(Expr::Not(Col(column))->Bind(TestSchema()).status().code(),
              StatusCode::kInvalidArgument)
        << column;
  }
}

TEST(Expr, PredicateMustBeBoolean) {
  for (const char* column : kNonBooleanColumns) {
    EXPECT_EQ(Col(column)->BindPredicate(TestSchema()).status().code(),
              StatusCode::kInvalidArgument)
        << column;
  }
  EXPECT_TRUE(Col("a")->BindPredicate(TestSchema()).ok());
  EXPECT_TRUE((Col("d") >= LitDate(250))->BindPredicate(TestSchema()).ok());
}

TEST(Expr, DateComparesAsInteger) {
  const BoundExpr e = BindTest(Col("d") >= LitDate(250));
  EXPECT_EQ(e.Evaluate(TestBatch()).i64, (std::vector<int64_t>{0, 0, 1, 1}));
}

TEST(Expr, EvaluateMaskRequiresBoolean) {
  const BoundExpr e = BindTest(Col("b"));  // double-typed
  EvalScratch scratch;
  std::vector<uint8_t> mask;
  EXPECT_FALSE(e.EvaluateMaskInto(TestBatch(), &scratch, &mask).ok());
}

TEST(Expr, EvaluateMaskFromComparison) {
  const BoundExpr e = BindTest(Col("a") != Lit(int64_t{3}));
  EvalScratch scratch;
  std::vector<uint8_t> mask;
  ASSERT_TRUE(e.EvaluateMaskInto(TestBatch(), &scratch, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 1, 0, 1}));
}

TEST(Expr, InstructionCostGrowsWithTreeSize) {
  auto small = Col("a") > Lit(int64_t{1});
  auto big = And(small, Or(Col("b") < Lit(0.0), Col("a") == Lit(int64_t{2})));
  EXPECT_GT(big->InstructionsPerRow(), small->InstructionsPerRow());
}

TEST(Expr, ToStringRendersTree) {
  auto e = And(Col("a") > Lit(int64_t{1}), Col("s") == Lit("x"));
  EXPECT_EQ(e->ToString(), "((a > 1) AND (s = 'x'))");
}

TEST(Expr, RebindAgainstNewSchemaWorks) {
  auto e = Col("a") > Lit(int64_t{0});
  const BoundExpr first = BindTest(e);
  // New schema where "a" sits at a different index. Binding again leaves
  // the first program as it was: both evaluate.
  Schema other({Column{"z", DataType::kInt64, 8},
                Column{"a", DataType::kInt64, 8}});
  auto second = e->Bind(other);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->inputs(), (std::vector<int>{1}));
  RecordBatch batch(other);
  batch.column(0).i64 = {9, 9};
  batch.column(1).i64 = {-1, 5};
  ASSERT_TRUE(batch.SealRows(2).ok());
  EXPECT_EQ(second->Evaluate(batch).i64, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(first.Evaluate(TestBatch()).i64,
            (std::vector<int64_t>{1, 1, 1, 1}));
}

// --- RecordBatch helpers ----------------------------------------------------

TEST(RecordBatch, AppendRowAndGetValue) {
  RecordBatch batch(TestSchema());
  ASSERT_TRUE(batch
                  .AppendRow({Value::Int64(7), Value::Double(1.25),
                              Value::String("hi"), Value::Date(30)})
                  .ok());
  EXPECT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.GetValue(0, 0).i64, 7);
  EXPECT_EQ(batch.GetValue(0, 2).str, "hi");
  EXPECT_EQ(batch.GetValue(0, 3).type, DataType::kDate);
}

TEST(RecordBatch, AppendRowTypeMismatchRejected) {
  RecordBatch batch(TestSchema());
  EXPECT_FALSE(batch
                   .AppendRow({Value::Double(1.0), Value::Double(1.0),
                               Value::String(""), Value::Date(0)})
                   .ok());
}

TEST(RecordBatch, FilterInPlaceKeepsMaskedRows) {
  RecordBatch batch = TestBatch();
  batch.FilterInPlace({1, 0, 0, 1});
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.column(0).i64, (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(batch.column(2).str, (std::vector<std::string>{"x", "z"}));
}

TEST(RecordBatch, SealRowsValidatesLaneLengths) {
  RecordBatch batch(TestSchema());
  batch.column(0).i64 = {1, 2};
  batch.column(1).f64 = {1.0};  // ragged
  batch.column(2).str = {"a", "b"};
  batch.column(3).i64 = {1, 2};
  EXPECT_FALSE(batch.SealRows(2).ok());
}

TEST(Value, AsDoublePromotes) {
  EXPECT_DOUBLE_EQ(Value::Int64(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value::Date(10).AsDouble(), 10.0);
}

}  // namespace
}  // namespace ecodb::exec
