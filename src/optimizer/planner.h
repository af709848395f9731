// Energy-aware physical planner.
//
// Given a logical query (1 to 12 relations joined by equi-join edges, each
// with an optional pushed-down filter, [+ aggregate] [+ ORDER BY / LIMIT])
// and the physical alternatives available — table variants with different
// layouts / compression / devices, table or index scans, three join
// algorithms, join orders, DVFS states, degrees of parallelism — the
// planner enumerates the combinations with one bitmask DP over connected
// subgraphs (join_order.h), prices each with the two-objective CostModel,
// and returns the plan minimizing `seconds + lambda * joules`. Nodes are
// priced through their operators' charge functions (join_order.cc).
//
// With lambda = 0 this is a classical performance optimizer. Raising lambda
// reproduces the paper's headline behaviours: compressed scans lose to
// uncompressed ones when CPU power dwarfs storage power (Figure 2), and
// memory-hungry hash joins lose to sort-merge joins when DRAM residency is
// priced (Section 4.1; bench/ablate_join_energy).

#ifndef ECODB_OPTIMIZER_PLANNER_H_
#define ECODB_OPTIMIZER_PLANNER_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/aggregate.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/sort_limit.h"
#include "optimizer/cost_model.h"
#include "storage/btree.h"
#include "storage/table_storage.h"

namespace ecodb::optimizer {

/// One logical table with its physical alternatives (same rows, different
/// physical design: layout, compression, device placement).
struct TableAlternatives {
  std::string name;
  std::vector<const storage::TableStorage*> variants;  // >= 1
  /// Columns the query needs from this table (empty = all).
  std::vector<std::string> columns;
  /// Optional pushed-down filter over this table's columns.
  exec::ExprPtr filter;
  /// Optional secondary index: enables the index-scan access path when the
  /// filter constrains `index_column` to a range. The index must map
  /// `index_column` values to row positions of every variant (variants hold
  /// the same rows in the same order).
  const storage::BTreeIndex* index = nullptr;
  std::string index_column;
  /// Optional load-time statistics (e.g. from the catalog). When set they
  /// feed cardinality estimation directly; when null the planner analyzes
  /// variant 0 on demand. Statistics feed pricing only, never correctness.
  const catalog::TableStats* stats = nullptr;
};

enum class AccessPath { kTableScan, kIndexScan };

const char* AccessPathName(AccessPath path);

/// One equi-join edge of an N-relation join graph: relations[left_rel].
/// left_key = relations[right_rel].right_key.
struct JoinEdge {
  int left_rel = 0;
  int right_rel = 0;
  std::string left_key;
  std::string right_key;
};

/// Logical query: relations joined on `edges` [WHERE per-relation filters]
/// [GROUP BY ...] [ORDER BY ...] [LIMIT ...]. The planner chooses the join
/// order, each relation's variant and access path, and the join algorithms.
struct QuerySpec {
  /// One-relation shorthand: a query over `left` alone, used when
  /// `relations` is empty. A spec that sets both is rejected.
  TableAlternatives left;
  /// 1 to 12 relations, and the equi-join edges connecting them (no cross
  /// products). A column name may appear in only one relation's scan, so
  /// every name in the join output means one table's column.
  std::vector<TableAlternatives> relations;
  std::vector<JoinEdge> edges;
  std::vector<std::string> group_by;
  std::vector<exec::AggregateItem> aggregates;
  /// Final ordering of the output. Priced with CostModel::SortDemand and
  /// realized as the morsel-driven SortOp — byte-identical results and
  /// charges at every dop.
  std::vector<exec::SortKey> order_by;
  /// Sort memory budget; when the estimated sorted bytes exceed it and a
  /// spill device is set, the plan is priced for (and the operator charges)
  /// one sequential write + read of every run on that device.
  uint64_t sort_memory_budget_bytes = UINT64_MAX;
  storage::StorageDevice* sort_spill_device = nullptr;
  /// Optional LIMIT on the final output. With order_by present the planner
  /// also enumerates fusing ORDER BY + LIMIT into a bounded-heap top-k
  /// (SortOp's limit) and picks it when priced cheaper — typically
  /// small k, where it saves O(n log n) comparisons and all spill I/O —
  /// falling back to Sort + Limit otherwise (k ≈ n). Both paths emit
  /// byte-identical rows.
  std::optional<uint64_t> limit;

  /// The relations every planner function reads: `relations`, or a
  /// one-element span over `left` when `relations` is empty.
  std::span<const TableAlternatives> Relations() const {
    if (!relations.empty()) return relations;
    return {&left, 1};
  }
};

enum class JoinAlgorithm { kHash, kMerge, kNestedLoop };

const char* JoinAlgorithmName(JoinAlgorithm algo);

/// One node of a join tree (leaf = one relation read through one variant
/// and access path, internal = one join). Stored flat in
/// PhysicalPlan::join_nodes; children by index. Hash joins build on the
/// `right` child, so the child order says which side builds.
struct PlanJoinNode {
  int relation = -1;  // leaf: index into spec.Relations(); -1 for joins
  int variant = 0;    // leaf: index into the relation's variants
  AccessPath path = AccessPath::kTableScan;  // leaf
  int left = -1;      // internal: child node indexes
  int right = -1;
  JoinAlgorithm algo = JoinAlgorithm::kHash;
  std::string left_key;   // primary equi-join edge
  std::string right_key;
  /// Further edges between the two subtrees, which the join checks on its
  /// candidate pairs before gathering them (multi-key joins, cyclic
  /// graphs).
  std::vector<JoinEdge> residual_edges;
  double est_rows = 0.0;   // estimated output cardinality of this subtree
  double est_bytes = 0.0;  // est_rows x projected row width
};

/// A fully specified physical plan plus its estimated cost.
struct PhysicalPlan {
  int dop = 1;
  int pstate = 0;
  /// True when ORDER BY + LIMIT is fused into the bounded-heap top-k path
  /// (requires spec.order_by non-empty and spec.limit set).
  bool use_topk = false;
  /// The join tree (a single leaf for one relation): nodes plus the root
  /// index, from the DP enumerator or CanonicalJoinPlan.
  std::vector<PlanJoinNode> join_nodes;
  int join_root = -1;
  /// Estimated bytes of all non-root intermediate join results (the bench's
  /// "intermediate-result bytes" axis; what high lambda shrinks).
  double est_intermediate_bytes = 0.0;
  PlanCost cost;
  /// Estimated output cardinality (clamped to spec.limit when set).
  double output_rows = 0.0;

  std::string Describe(const QuerySpec& spec) const;

  /// Leaf relations of the join tree in left-to-right order — the chosen
  /// join order. Two plans over the same spec joined in different orders
  /// differ here.
  std::vector<int> LeafOrder() const;
};

/// One table-scan leaf of a plan: the table it reads and the schema indexes
/// of the columns BuildOperator scans from it.
struct TableScanLeaf {
  const storage::TableStorage* table = nullptr;
  std::vector<int> columns;
};

/// Planner knobs: which dimensions to enumerate.
struct PlannerOptions {
  std::vector<int> dops = {1};
  bool enumerate_pstates = false;
  bool enumerate_join_algorithms = true;
};

/// Power-of-two dop candidates up to `max_dop` (always includes `max_dop`
/// itself), e.g. 6 -> {1, 2, 4, 6}. Convenient for PlannerOptions::dops.
std::vector<int> DopLadder(int max_dop);

/// Dop ladder derived from the platform's physical core count — the
/// engine-level policy: never enumerate more workers than the modeled CPU
/// has cores, since extra dop past that point adds scheduling charges but
/// cannot shrink the critical path.
std::vector<int> PlatformDopLadder(const power::HardwarePlatform& platform);

class Planner {
 public:
  /// `model` must outlive the planner.
  Planner(CostModel* model, PlannerOptions options = {});

  /// The options the planner enumerates with (after normalization — e.g. an
  /// empty dop list becomes {1}).
  const PlannerOptions& options() const { return options_; }

  /// Returns the best plan under `objective`, or an error if the spec is
  /// malformed (no variants, missing join keys, ...). ChoosePlan, PricePlan
  /// and BuildOperator live in join_order.cc, beside the DP they share.
  StatusOr<PhysicalPlan> ChoosePlan(const QuerySpec& spec,
                                    const Objective& objective) const;

  /// Prices one fully specified plan (exposed for ablation sweeps), or
  /// InvalidArgument for a dop below 1 or a P-state the CPU lacks.
  StatusOr<PlanCost> PricePlan(const QuerySpec& spec,
                               const PhysicalPlan& plan) const;

  /// Constructs the executable operator tree realizing `plan`, or
  /// InvalidArgument when two of its leaves scan one column name (the
  /// rule JoinGraph::Analyze applies to the spec).
  static StatusOr<exec::OperatorPtr> BuildOperator(const QuerySpec& spec,
                                                   const PhysicalPlan& plan);

  /// The table-scan leaves of the tree BuildOperator builds for `plan`,
  /// left to right, or the error BuildOperator would return for them.
  static StatusOr<std::vector<TableScanLeaf>> TableScanLeaves(
      const QuerySpec& spec, const PhysicalPlan& plan);

  /// Estimated selectivity of `filter` against a table's stats (exposed
  /// for tests).
  static double EstimateSelectivity(const exec::ExprPtr& filter,
                                    const catalog::Schema& schema,
                                    const catalog::TableStats& stats);

  /// Extracts the [lo, hi] key range the AND-conjuncts of `filter` impose
  /// on `column` (integer/date types). Returns false when unconstrained. A
  /// range no key satisfies (`< INT64_MIN`, `> INT64_MAX`, or disjoint
  /// conjuncts) comes back with lo > hi.
  static bool ExtractKeyRange(const exec::ExprPtr& filter,
                              const std::string& column, int64_t* lo,
                              int64_t* hi);

 private:
  CostModel* model_;
  PlannerOptions options_;
};

}  // namespace ecodb::optimizer

#endif  // ECODB_OPTIMIZER_PLANNER_H_
