// Differential test for join-order equivalence: randomized 3-5-relation
// join graphs planned by the bitmask-DP enumerator AND by the fixed-order
// canonical oracle, executed at dop 1/2/4/8.
//
// The oracle (CanonicalJoinPlan) is deliberately estimate-free — left-deep
// hash joins in BFS edge order over variant 0 with table scans — so a
// cardinality-estimation bug in the DP cannot cancel out in the
// comparison. For every generated case (varying relation count, sizes,
// key-duplication domains, spanning-tree shape, extra cyclic edges,
// pushed-down filters, a second compressed variant and a B+tree index on
// the filtered payload for some relations, optional grouped aggregation,
// lambda, and the memory-power premium) the harness asserts:
//   1. both plans' rows are byte-identical after projecting columns to a
//      canonical name order and sorting rows (join output order is
//      legitimately plan-dependent; content is not), and
//   2. within each plan family the modeled charges are bit-identical
//      across dop — DESIGN.md's determinism contract extended to N-way
//      join trees.
//
// Payloads and keys are int64 (one pinned case stores an edge's keys as
// doubles, which no hash join can run); aggregate sums stay below 2^53 so
// SUM's double accumulator is exact under any accumulation order.

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/btree.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::optimizer {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;
using exec::QueryStats;
using exec::Value;

struct CaseEdge {
  int a = 0;
  int b = 0;
  int64_t domain = 1;  // key values drawn from [1, domain]
  bool double_keys = false;  // both key columns stored as kDouble
};

struct CaseSpec {
  uint64_t seed = 0;
  int num_rels = 0;
  std::vector<int> rows;        // per relation
  std::vector<CaseEdge> edges;  // first num_rels-1 form a spanning tree
  std::vector<bool> filtered;   // payload filter pushed into this relation
  std::vector<bool> compressed;  // adds a compressed second variant
  std::vector<bool> indexed;     // adds a B+tree on the filtered payload
  bool aggregate = false;
  double lambda = 0.0;
  double premium = 1.0;
};

/// Total order on Value for canonical row sorting (column types match
/// within a column, so cross-type ordering only needs to be consistent).
bool ValueLess(const Value& x, const Value& y) {
  if (x.type != y.type) {
    return static_cast<int>(x.type) < static_cast<int>(y.type);
  }
  if (x.i64 != y.i64) return x.i64 < y.i64;
  if (x.f64 != y.f64) return x.f64 < y.f64;
  return x.str < y.str;
}

bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (ValueLess(a[i], b[i])) return true;
    if (ValueLess(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

class DifferentialJoinOrderTest : public ::testing::Test {
 protected:
  DifferentialJoinOrderTest()
      : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  /// Draws one random case: 3-5 relations, a random spanning tree plus an
  /// occasional extra (cyclic / parallel) edge, mixed key-duplication
  /// domains, occasional pushed-down filters and aggregation, and a random
  /// point on the lambda / memory-premium grid.
  CaseSpec DrawCase(uint64_t seed) {
    Rng rng(seed);
    CaseSpec c;
    c.seed = seed;
    c.num_rels = static_cast<int>(rng.Uniform(3, 5));
    for (int i = 0; i < c.num_rels; ++i) {
      c.rows.push_back(static_cast<int>(rng.Uniform(40, 300)));
      c.filtered.push_back(rng.Bernoulli(0.3));
    }
    for (int i = 1; i < c.num_rels; ++i) {
      CaseEdge e;
      e.a = static_cast<int>(rng.Uniform(0, i - 1));
      e.b = i;
      // Near-FK domains keep join sizes bounded; the occasional small
      // domain forces heavy key duplication.
      e.domain = rng.Bernoulli(0.25)
                     ? 16
                     : std::max(c.rows[e.a], c.rows[e.b]);
      c.edges.push_back(e);
    }
    if (rng.Bernoulli(0.4)) {
      CaseEdge extra;
      extra.a = static_cast<int>(rng.Uniform(0, c.num_rels - 2));
      extra.b = static_cast<int>(
          rng.Uniform(extra.a + 1, c.num_rels - 1));
      extra.domain = std::max(c.rows[extra.a], c.rows[extra.b]);
      c.edges.push_back(extra);
    }
    c.aggregate = rng.Bernoulli(0.3);
    const double lambdas[] = {0.0, 0.01, 10.0};
    c.lambda = lambdas[rng.Uniform(0, 2)];
    const double premiums[] = {1.0, 1e4, 1e7};
    c.premium = premiums[rng.Uniform(0, 2)];
    // Leaf alternatives, drawn last so the fields above match the draws of
    // the variant-0, table-scan-only harness.
    for (int i = 0; i < c.num_rels; ++i) {
      c.compressed.push_back(rng.Bernoulli(0.3));
      c.indexed.push_back(c.filtered[i] && rng.Bernoulli(0.5));
    }
    return c;
  }

  /// Key column name of edge `e` on relation `rel` (unique per relation
  /// AND across relations, as the planner requires).
  static std::string KeyCol(int e, int rel) {
    return "e" + std::to_string(e) + "_" + std::to_string(rel);
  }
  static std::string PayloadCol(int rel) {
    return "p" + std::to_string(rel);
  }

  /// Tables and indexes a case's spec points at (they outlive the spec).
  struct CaseData {
    std::vector<std::unique_ptr<storage::TableStorage>> tables;
    std::vector<std::unique_ptr<storage::BTreeIndex>> indexes;
  };

  /// Relation `rel`'s rows; `compressed` stores the same rows with the
  /// payload delta-coded and every key frame-of-reference coded.
  std::unique_ptr<storage::TableStorage> MakeRelation(const CaseSpec& c,
                                                      int rel,
                                                      bool compressed) {
    std::vector<Column> schema_cols{
        Column{PayloadCol(rel), DataType::kInt64, 8}};
    std::vector<int> incident;
    for (size_t e = 0; e < c.edges.size(); ++e) {
      if (c.edges[e].a == rel || c.edges[e].b == rel) {
        incident.push_back(static_cast<int>(e));
        schema_cols.push_back(Column{
            KeyCol(static_cast<int>(e), rel),
            c.edges[e].double_keys ? DataType::kDouble : DataType::kInt64,
            8});
      }
    }
    auto table = std::make_unique<storage::TableStorage>(
        static_cast<catalog::TableId>(rel + (compressed ? 101 : 1)),
        Schema(schema_cols), storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(schema_cols.size());
    for (size_t k = 0; k < cols.size(); ++k) cols[k].type = schema_cols[k].type;
    Rng rng(c.seed ^ (0xD1FF00ULL + static_cast<uint64_t>(rel)));
    for (int i = 0; i < c.rows[rel]; ++i) {
      cols[0].i64.push_back(i);
      for (size_t k = 0; k < incident.size(); ++k) {
        const int64_t key = rng.Uniform(1, c.edges[incident[k]].domain);
        if (cols[k + 1].type == DataType::kDouble) {
          cols[k + 1].f64.push_back(static_cast<double>(key));
        } else {
          cols[k + 1].i64.push_back(key);
        }
      }
    }
    EXPECT_TRUE(table->Append(cols).ok());
    if (compressed) {
      EXPECT_TRUE(table->SetCompression(PayloadCol(rel),
                                        storage::CompressionKind::kDelta)
                      .ok());
      for (size_t k = 1; k < schema_cols.size(); ++k) {
        EXPECT_TRUE(table->SetCompression(schema_cols[k].name,
                                          storage::CompressionKind::kFor)
                        .ok());
      }
    }
    return table;
  }

  /// Builds the QuerySpec over freshly generated tables (kept in `data` so
  /// they outlive the returned spec).
  QuerySpec MakeSpec(const CaseSpec& c, CaseData* data) {
    QuerySpec spec;
    for (int rel = 0; rel < c.num_rels; ++rel) {
      TableAlternatives side;
      side.name = "rel" + std::to_string(rel);
      data->tables.push_back(MakeRelation(c, rel, /*compressed=*/false));
      side.variants = {data->tables.back().get()};
      if (!c.compressed.empty() && c.compressed[rel]) {
        data->tables.push_back(MakeRelation(c, rel, /*compressed=*/true));
        side.variants.push_back(data->tables.back().get());
      }
      if (c.filtered[rel]) {
        side.filter = Col(PayloadCol(rel)) < Lit(int64_t{c.rows[rel] / 2});
      }
      if (!c.indexed.empty() && c.indexed[rel]) {
        // The payload is the row position, so the index maps it to itself
        // in every variant.
        auto index = std::make_unique<storage::BTreeIndex>();
        for (int i = 0; i < c.rows[rel]; ++i) {
          index->Insert(i, static_cast<uint64_t>(i));
        }
        side.index = index.get();
        side.index_column = PayloadCol(rel);
        data->indexes.push_back(std::move(index));
      }
      spec.relations.push_back(std::move(side));
    }
    for (size_t e = 0; e < c.edges.size(); ++e) {
      spec.edges.push_back({c.edges[e].a, c.edges[e].b,
                            KeyCol(static_cast<int>(e), c.edges[e].a),
                            KeyCol(static_cast<int>(e), c.edges[e].b)});
    }
    if (c.aggregate) {
      // Group on edge 0's left-endpoint key; counts and int-payload sums
      // are order-independent-exact in a double accumulator.
      spec.group_by = {KeyCol(0, c.edges[0].a)};
      spec.aggregates = {
          {"cnt", exec::AggFunc::kCount, nullptr},
          {"psum", exec::AggFunc::kSum, Col(PayloadCol(0))},
      };
    }
    return spec;
  }

  struct RunOutcome {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };

  /// Executes `plan` and returns rows projected to ascending column-name
  /// order and sorted — the canonical form two row-equivalent plans must
  /// agree on byte-for-byte.
  RunOutcome Run(const Planner& planner, const QuerySpec& spec,
                 const PhysicalPlan& plan, int dop) {
    PhysicalPlan at_dop = plan;
    at_dop.dop = dop;
    auto root = planner.BuildOperator(spec, at_dop);
    EXPECT_TRUE(root.ok()) << root.status().message();
    RunOutcome out;
    if (!root.ok()) return out;
    exec::ExecOptions options;
    options.dop = dop;
    options.morsel_rows = 64;  // several morsels even for small relations
    exec::ExecContext ctx(platform_.get(), options);
    auto result = exec::CollectAll(root->get(), &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    out.stats = ctx.Finish();
    if (!result.ok()) return out;

    const int ncols = result->schema.num_columns();
    std::vector<std::pair<std::string, int>> order;
    for (int i = 0; i < ncols; ++i) {
      order.emplace_back(result->schema.column(i).name, i);
    }
    std::sort(order.begin(), order.end());
    for (const auto& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<Value> row;
        row.reserve(order.size());
        for (const auto& [name, idx] : order) {
          row.push_back(batch.GetValue(r, idx));
        }
        out.rows.push_back(std::move(row));
      }
    }
    std::sort(out.rows.begin(), out.rows.end(), RowLess);
    return out;
  }

  static void ExpectChargesIdentical(const QueryStats& got,
                                     const QueryStats& base) {
    EXPECT_EQ(got.cpu_instructions, base.cpu_instructions);
    EXPECT_EQ(got.io_bytes, base.io_bytes);
    EXPECT_EQ(got.cpu_seconds, base.cpu_seconds);
    EXPECT_EQ(got.cpu_serial_seconds, base.cpu_serial_seconds);
  }

  /// Plans `c`, then runs the DP's plan, the canonical oracle and any
  /// `extra` plans (hand edits of the oracle) at every dop. Returns the
  /// DP's plan so callers can tally which leaf alternatives it chose.
  PhysicalPlan RunCase(const CaseSpec& c,
                       const std::function<void(PhysicalPlan*)>& extra = {}) {
    CaseData data;
    const QuerySpec spec = MakeSpec(c, &data);

    CostModelParams params;
    params.memory_power_premium = c.premium;
    params.dram_watts_per_gib_override = 0.65;
    CostModel model(platform_.get(), params);
    PlannerOptions options;
    options.dops = {1};  // fix the tree; the dop ladder below re-runs it
    Planner planner(&model, options);

    auto chosen = planner.ChoosePlan(spec, Objective::Balanced(c.lambda));
    EXPECT_TRUE(chosen.ok()) << chosen.status().message();
    if (!chosen.ok()) return {};
    EXPECT_EQ(chosen->LeafOrder().size(), static_cast<size_t>(c.num_rels));
    auto oracle = CanonicalJoinPlan(spec);
    EXPECT_TRUE(oracle.ok()) << oracle.status().message();
    if (!oracle.ok()) return {};

    // The oracle first: its dop-1 rows are the expectation.
    std::vector<PhysicalPlan> plans = {*oracle, *chosen};
    if (extra) {
      plans.push_back(*oracle);
      extra(&plans.back());
      EXPECT_TRUE(planner.PricePlan(spec, plans.back()).ok());
    }
    std::optional<RunOutcome> expected;
    std::vector<std::optional<QueryStats>> base(plans.size());
    for (int dop : {1, 2, 4, 8}) {
      SCOPED_TRACE("dop=" + std::to_string(dop));
      for (size_t p = 0; p < plans.size(); ++p) {
        SCOPED_TRACE(plans[p].Describe(spec));
        const RunOutcome run = Run(planner, spec, plans[p], dop);
        if (!expected.has_value()) expected = run;
        EXPECT_EQ(run.rows, expected->rows)
            << "plan rows differ from the canonical oracle at dop 1";
        if (!base[p].has_value()) {
          base[p] = run.stats;
        } else {
          ExpectChargesIdentical(run.stats, *base[p]);
        }
      }
    }
    return *chosen;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

TEST_F(DifferentialJoinOrderTest, RandomizedGraphsMatchOracleAtEveryDop) {
  int cases = 0;
  int alternative_leaves = 0;  // DP leaves off variant 0 or a table scan
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    const CaseSpec c = DrawCase(0xC0FFEE00ULL + seed);
    std::string edges;
    for (const CaseEdge& e : c.edges) {
      edges += " " + std::to_string(e.a) + "-" + std::to_string(e.b) + "/" +
               std::to_string(e.domain);
    }
    SCOPED_TRACE("seed=" + std::to_string(c.seed) +
                 " rels=" + std::to_string(c.num_rels) + " edges:" + edges +
                 (c.aggregate ? " agg" : "") +
                 " lambda=" + std::to_string(c.lambda) +
                 " premium=" + std::to_string(c.premium));
    for (const PlanJoinNode& node : RunCase(c).join_nodes) {
      if (node.relation >= 0 &&
          (node.variant != 0 || node.path != AccessPath::kTableScan)) {
        ++alternative_leaves;
      }
    }
    ++cases;
  }
  EXPECT_GE(cases, 50);  // the acceptance floor for randomized coverage
  EXPECT_GT(alternative_leaves, 0) << "no case exercised a leaf alternative";
}

// Pinned regressions the random draw might miss.

TEST_F(DifferentialJoinOrderTest, ParallelEdgesBecomeResidualFilters) {
  // Two edges between the same pair of relations: one must become a
  // residual filter, and both plans must apply it.
  CaseSpec c;
  c.seed = 101;
  c.num_rels = 3;
  c.rows = {120, 200, 150};
  c.filtered = {false, false, false};
  c.edges = {{0, 1, 16}, {1, 2, 200}, {0, 1, 16}};
  c.lambda = 0.0;
  c.premium = 1.0;
  RunCase(c);
}

TEST_F(DifferentialJoinOrderTest, DoubleKeyEdgeMatchesOracle) {
  // Edge 1's keys are doubles, which no hash join can run
  // (exec::CheckHashJoinKeys): the oracle joins that edge by nested loop,
  // and the DP's plan, whatever algorithms it picks, returns the same rows.
  CaseSpec c;
  c.seed = 404;
  c.num_rels = 3;
  c.rows = {120, 200, 150};
  c.filtered = {false, true, false};
  c.edges = {{0, 1, 120}, {1, 2, 16, /*double_keys=*/true}};
  c.aggregate = true;
  c.lambda = 0.0;
  c.premium = 1.0;
  RunCase(c);
}

TEST_F(DifferentialJoinOrderTest, HighLambdaTreeStillMatchesOracle) {
  // The energy objective picks a different tree than lambda = 0 (that flip
  // is asserted in optimizer_test.cc); here: whatever it picks, the rows
  // must not change.
  CaseSpec c;
  c.seed = 202;
  c.num_rels = 5;
  c.rows = {250, 80, 260, 120, 90};
  c.filtered = {true, false, false, true, false};
  c.edges = {{0, 1, 250}, {0, 2, 260}, {2, 3, 16}, {1, 4, 120}};
  c.aggregate = true;
  c.lambda = 10.0;
  c.premium = 1e7;
  RunCase(c);
}

TEST_F(DifferentialJoinOrderTest, IndexScanLeafOnProbeSideMatchesOracle) {
  // The oracle joins left-deep from relation 0, so relation 0's leaf is the
  // probe side of the first hash join. Read it through its index and
  // relation 1 through its compressed variant: rows still match, and the
  // charges stay bit-identical across dop.
  CaseSpec c;
  c.seed = 303;
  c.num_rels = 3;
  c.rows = {240, 120, 90};
  c.filtered = {true, false, true};
  c.compressed = {true, true, false};
  c.indexed = {true, false, true};
  c.edges = {{0, 1, 120}, {1, 2, 90}};
  c.aggregate = true;
  c.lambda = 0.01;
  c.premium = 1e4;
  RunCase(c, [](PhysicalPlan* plan) {
    for (PlanJoinNode& node : plan->join_nodes) {
      if (node.relation == 0) node.path = AccessPath::kIndexScan;
      if (node.relation == 1) node.variant = 1;
    }
  });
}

}  // namespace
}  // namespace ecodb::optimizer
