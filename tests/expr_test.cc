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

TEST(Expr, ColumnEvaluatesToLane) {
  auto e = Col("a");
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto out = e->Evaluate(TestBatch());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->i64, (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST(Expr, UnknownColumnFailsBind) {
  auto e = Col("missing");
  EXPECT_EQ(e->Bind(TestSchema()).code(), StatusCode::kNotFound);
}

TEST(Expr, EvaluateBeforeBindFails) {
  auto e = Col("a");
  EXPECT_EQ(e->Evaluate(TestBatch()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Expr, LiteralBroadcasts) {
  auto e = Lit(7.5);
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto out = e->Evaluate(TestBatch());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->f64, (std::vector<double>{7.5, 7.5, 7.5, 7.5}));
}

TEST(Expr, IntCompare) {
  auto e = Col("a") > Lit(int64_t{2});
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto out = e->Evaluate(TestBatch());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->i64, (std::vector<int64_t>{0, 0, 1, 1}));
}

TEST(Expr, MixedIntDoubleCompare) {
  auto e = Col("b") >= Col("a");
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto out = e->Evaluate(TestBatch());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->i64, (std::vector<int64_t>{1, 0, 0, 1}));
}

TEST(Expr, StringCompare) {
  auto e = Col("s") == Lit("x");
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto out = e->Evaluate(TestBatch());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->i64, (std::vector<int64_t>{1, 0, 1, 0}));
}

TEST(Expr, StringOrdering) {
  auto e = Col("s") < Lit("y");
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto out = e->Evaluate(TestBatch());
  EXPECT_EQ(out->i64, (std::vector<int64_t>{1, 0, 1, 0}));
}

TEST(Expr, StringVsNumericRejectedAtBind) {
  auto e = Col("s") == Lit(int64_t{1});
  EXPECT_EQ(e->Bind(TestSchema()).code(), StatusCode::kInvalidArgument);
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
    auto e = Expr::Compare(c.op, Col("a"), Lit(int64_t{2}));
    ASSERT_TRUE(e->Bind(TestSchema()).ok());
    EXPECT_EQ(e->Evaluate(batch)->i64, c.expect)
        << static_cast<int>(c.op);
  }
}

TEST(Expr, IntegerArithmeticStaysInt) {
  auto e = Col("a") + Col("a") * Lit(int64_t{10});
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->result_type(), DataType::kInt64);
  auto out = e->Evaluate(TestBatch());
  EXPECT_EQ(out->i64, (std::vector<int64_t>{11, 22, 33, 44}));
}

TEST(Expr, DivisionPromotesToDouble) {
  auto e = Col("a") / Lit(int64_t{2});
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->result_type(), DataType::kDouble);
  auto out = e->Evaluate(TestBatch());
  EXPECT_EQ(out->f64, (std::vector<double>{0.5, 1.0, 1.5, 2.0}));
}

TEST(Expr, DivisionByZeroYieldsZero) {
  auto e = Lit(1.0) / Col("b");
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto out = e->Evaluate(TestBatch());
  EXPECT_DOUBLE_EQ(out->f64[2], 0.0);  // b[2] == 0.0
}

TEST(Expr, MixedArithmeticPromotes) {
  auto e = Col("a") + Col("b");
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->result_type(), DataType::kDouble);
  auto out = e->Evaluate(TestBatch());
  EXPECT_EQ(out->f64, (std::vector<double>{2.5, 0.0, 3.0, 14.0}));
}

TEST(Expr, ArithmeticOnStringsRejected) {
  auto e = Col("s") + Lit(int64_t{1});
  EXPECT_EQ(e->Bind(TestSchema()).code(), StatusCode::kInvalidArgument);
}

TEST(Expr, LogicalAndOrNot) {
  auto e = And(Col("a") > Lit(int64_t{1}), Col("a") < Lit(int64_t{4}));
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->Evaluate(TestBatch())->i64,
            (std::vector<int64_t>{0, 1, 1, 0}));

  auto o = Or(Col("a") == Lit(int64_t{1}), Col("a") == Lit(int64_t{4}));
  ASSERT_TRUE(o->Bind(TestSchema()).ok());
  EXPECT_EQ(o->Evaluate(TestBatch())->i64,
            (std::vector<int64_t>{1, 0, 0, 1}));

  auto n = Expr::Not(Col("a") > Lit(int64_t{2}));
  ASSERT_TRUE(n->Bind(TestSchema()).ok());
  EXPECT_EQ(n->Evaluate(TestBatch())->i64,
            (std::vector<int64_t>{1, 1, 0, 0}));
}

TEST(Expr, DateComparesAsInteger) {
  auto e = Col("d") >= LitDate(250);
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->Evaluate(TestBatch())->i64,
            (std::vector<int64_t>{0, 0, 1, 1}));
}

TEST(Expr, EvaluateMaskRequiresBoolean) {
  auto e = Col("b");  // double-typed
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_FALSE(e->EvaluateMask(TestBatch()).ok());
}

TEST(Expr, EvaluateMaskFromComparison) {
  auto e = Col("a") != Lit(int64_t{3});
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  auto mask = e->EvaluateMask(TestBatch());
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(*mask, (std::vector<uint8_t>{1, 1, 0, 1}));
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
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  // New schema where "a" sits at a different index.
  Schema other({Column{"z", DataType::kInt64, 8},
                Column{"a", DataType::kInt64, 8}});
  ASSERT_TRUE(e->Bind(other).ok());
  RecordBatch batch(other);
  batch.column(0).i64 = {9, 9};
  batch.column(1).i64 = {-1, 5};
  ASSERT_TRUE(batch.SealRows(2).ok());
  EXPECT_EQ(e->Evaluate(batch)->i64, (std::vector<int64_t>{0, 1}));
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
