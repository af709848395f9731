// Differential tests for the fused batch-at-a-time expression evaluators.
//
// The tree-walk Expr::Evaluate is the semantic oracle; EvaluateMaskInto /
// EvaluateInto are the fused kernels FilterOp, the scan's fused filter and
// the aggregate actually run.
// Seeded random expression trees over adversarial batches must agree
// byte-for-byte (masks) and bit-for-bit (double lanes), and whole plans
// must keep DESIGN §7's contract: byte-identical rows and bit-identical
// charges at every dop.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/filter_project.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

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
  });
}

// Adversarial batch: int64s beyond 2^53 (the double-cast comparison cliff),
// zeros (division guards), negatives, and repeated strings.
RecordBatch MakeBatch(Rng* rng, size_t rows) {
  RecordBatch batch(TestSchema());
  const char* tags[] = {"x", "y", "z"};
  for (size_t i = 0; i < rows; ++i) {
    const int shape = static_cast<int>(rng->Uniform(0, 5));
    int64_t a = 0;
    switch (shape) {
      case 0: a = 0; break;
      case 1: a = rng->Uniform(-100, 100); break;
      case 2: a = static_cast<int64_t>(rng->Next());  break;  // full range
      case 3: a = (int64_t{1} << 53) + rng->Uniform(0, 100); break;
      default: a = -(int64_t{1} << 53) - rng->Uniform(0, 100); break;
    }
    batch.column(0).i64.push_back(a);
    const int bshape = static_cast<int>(rng->Uniform(0, 3));
    double b = 0.0;
    if (bshape == 1) b = static_cast<double>(rng->Uniform(-1000, 1000)) * 0.25;
    if (bshape == 2) b = static_cast<double>(rng->Next()) * 1e-3;
    batch.column(1).f64.push_back(b);
    batch.column(2).str.push_back(tags[rng->Uniform(0, 2)]);
  }
  EXPECT_TRUE(batch.SealRows(rows).ok());
  return batch;
}

// Random well-typed numeric expression (int64 or double result).
ExprPtr RandomNumeric(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    switch (rng->Uniform(0, 3)) {
      case 0: return Col("a");
      case 1: return Col("b");
      case 2: return Lit(rng->Uniform(-50, 50));
      default: return Lit(static_cast<double>(rng->Uniform(-80, 80)) * 0.5);
    }
  }
  const auto op = static_cast<ArithOp>(rng->Uniform(0, 3));
  return Expr::Arith(op, RandomNumeric(rng, depth - 1),
                     RandomNumeric(rng, depth - 1));
}

// Random well-typed boolean expression.
ExprPtr RandomBool(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    if (rng->Bernoulli(0.2)) {
      const char* tags[] = {"x", "y", "z", "w"};
      const auto op = rng->Bernoulli(0.5) ? CompareOp::kEq : CompareOp::kNe;
      return Expr::Compare(op, Col("s"), Lit(tags[rng->Uniform(0, 3)]));
    }
    const auto op = static_cast<CompareOp>(rng->Uniform(0, 5));
    return Expr::Compare(op, RandomNumeric(rng, depth - 1),
                         RandomNumeric(rng, depth - 1));
  }
  switch (rng->Uniform(0, 2)) {
    case 0:
      return And(RandomBool(rng, depth - 1), RandomBool(rng, depth - 1));
    case 1:
      return Or(RandomBool(rng, depth - 1), RandomBool(rng, depth - 1));
    default:
      return Expr::Not(RandomBool(rng, depth - 1));
  }
}

TEST(FusedMaskDifferential, SeededRandomTreesMatchTreeWalk) {
  Rng rng(20260808);
  const Schema schema = TestSchema();
  int evaluated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const RecordBatch batch = MakeBatch(&rng, 1 + rng.Uniform(0, 192));
    ExprPtr e = RandomBool(&rng, 4);
    ASSERT_TRUE(e->Bind(schema).ok()) << e->ToString();

    auto oracle_lane = e->Evaluate(batch);
    ASSERT_TRUE(oracle_lane.ok()) << e->ToString();
    std::vector<uint8_t> oracle(batch.num_rows());
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      oracle[i] = oracle_lane->i64[i] != 0 ? 1 : 0;
    }

    EvalScratch scratch;
    std::vector<uint8_t> fused;
    ASSERT_TRUE(e->EvaluateMaskInto(batch, &scratch, &fused).ok())
        << e->ToString();
    ASSERT_EQ(fused, oracle) << e->ToString();
    ++evaluated;
  }
  EXPECT_EQ(evaluated, 300);
}

TEST(FusedLaneDifferential, SeededRandomTreesBitIdentical) {
  Rng rng(777);
  const Schema schema = TestSchema();
  for (int trial = 0; trial < 300; ++trial) {
    const RecordBatch batch = MakeBatch(&rng, 1 + rng.Uniform(0, 150));
    // Half the trials evaluate a boolean tree through the lane API (the
    // 0/1-widening path), half a numeric tree.
    ExprPtr e = trial % 2 ? RandomNumeric(&rng, 4) : RandomBool(&rng, 3);
    ASSERT_TRUE(e->Bind(schema).ok()) << e->ToString();

    auto oracle = e->Evaluate(batch);
    ASSERT_TRUE(oracle.ok()) << e->ToString();

    EvalScratch scratch;
    ColumnData fused;
    ASSERT_TRUE(e->EvaluateInto(batch, &scratch, &fused).ok())
        << e->ToString();

    EXPECT_EQ(fused.i64, oracle->i64) << e->ToString();
    EXPECT_EQ(fused.str, oracle->str) << e->ToString();
    // Doubles must match *bitwise* (not approximately): the fused loops
    // must perform the same operations in the same order as the oracle.
    ASSERT_EQ(fused.f64.size(), oracle->f64.size()) << e->ToString();
    if (!fused.f64.empty()) {
      EXPECT_EQ(std::memcmp(fused.f64.data(), oracle->f64.data(),
                            fused.f64.size() * sizeof(double)),
                0)
          << e->ToString();
    }
  }
}

TEST(FusedMaskDifferential, ScratchReuseAcrossShapes) {
  // One scratch reused across batches of different sizes and trees of
  // different depths must never leak state between evaluations.
  Rng rng(5);
  const Schema schema = TestSchema();
  EvalScratch scratch;
  std::vector<uint8_t> fused;
  for (int trial = 0; trial < 60; ++trial) {
    const RecordBatch batch = MakeBatch(&rng, 1 + rng.Uniform(0, 400));
    ExprPtr e = RandomBool(&rng, 1 + static_cast<int>(rng.Uniform(0, 4)));
    ASSERT_TRUE(e->Bind(schema).ok());
    auto oracle_lane = e->Evaluate(batch);
    ASSERT_TRUE(oracle_lane.ok());
    ASSERT_TRUE(e->EvaluateMaskInto(batch, &scratch, &fused).ok());
    ASSERT_EQ(fused.size(), batch.num_rows());
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      EXPECT_EQ(fused[i], oracle_lane->i64[i] != 0 ? 1 : 0)
          << e->ToString() << " row " << i;
    }
  }
}

// --- Whole-plan differential: byte-identical rows, bit-identical charges ---

class FusedPlanDifferentialTest : public ::testing::Test {
 protected:
  FusedPlanDifferentialTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  std::unique_ptr<storage::TableStorage> MakeTable(int n) {
    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"part", DataType::kInt64, 8},
                   Column{"qty", DataType::kDouble, 8},
                   Column{"flag", DataType::kString, 2}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(4);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    cols[3].type = DataType::kString;
    for (int i = 0; i < n; ++i) {
      cols[0].i64.push_back(i);
      cols[1].i64.push_back(i % 25);
      cols[2].f64.push_back((i % 37) * 0.25);
      cols[3].str.push_back(i % 3 ? "N" : "R");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  struct RunOutcome {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };

  RunOutcome Run(Operator* root, int dop) {
    ExecOptions options;
    options.dop = dop;
    ExecContext ctx(platform_.get(), options);
    auto result = CollectAll(root, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    RunOutcome out;
    out.stats = ctx.Finish();
    if (!result.ok()) return out;
    const size_t ncols = static_cast<size_t>(result->schema.num_columns());
    for (const auto& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<Value> row;
        row.reserve(ncols);
        for (size_t c = 0; c < ncols; ++c) row.push_back(batch.GetValue(r, c));
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  // A predicate exercising every fused path at once: arithmetic feeding a
  // compare, string equality, AND/OR with asymmetric costs, and NOT.
  static ExprPtr GnarlyPredicate() {
    return And(Or(Col("part") * Lit(int64_t{3}) - Lit(int64_t{10}) >=
                      Lit(int64_t{20}),
                  Expr::Not(Col("flag") == Lit("R"))),
               Col("qty") / Lit(4.0) < Lit(2.0));
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

TEST_F(FusedPlanDifferentialTest, FilterPlanIdenticalAtEveryDop) {
  auto table = MakeTable(20000);

  FilterOp serial(std::make_unique<TableScanOp>(table.get()),
                  GnarlyPredicate());
  const RunOutcome base = Run(&serial, 1);
  ASSERT_FALSE(base.rows.empty());

  for (int dop : {1, 2, 4, 8}) {
    TableScanOp scan(table.get(), {}, GnarlyPredicate(), GnarlyPredicate());
    const RunOutcome got = Run(&scan, dop);
    EXPECT_EQ(got.rows, base.rows) << "dop=" << dop;  // byte-identical
    // Charges are computed from static per-row costs before evaluation,
    // so the fused/short-circuit strategy cannot perturb them: exact
    // equality, not tolerance.
    EXPECT_EQ(got.stats.cpu_instructions, base.stats.cpu_instructions)
        << "dop=" << dop;
    EXPECT_EQ(got.stats.io_bytes, base.stats.io_bytes) << "dop=" << dop;
    EXPECT_EQ(got.stats.cpu_seconds, base.stats.cpu_seconds) << "dop=" << dop;
    // The measured meter integral re-rounds the same busy core-seconds
    // across a dop-dependent active_cores split, so it can wobble by a
    // couple of ulps (same reason parallel_exec_test uses DOUBLE_EQ).
    EXPECT_DOUBLE_EQ(got.stats.Joules(), base.stats.Joules())
        << "dop=" << dop;
  }
}

}  // namespace
}  // namespace ecodb::exec
