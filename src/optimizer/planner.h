// Energy-aware physical planner.
//
// Given a logical query (scan [+ filter] [+ join] [+ aggregate]) and the
// physical alternatives available — table variants with different layouts /
// compression / devices, three join algorithms, DVFS states, degrees of
// parallelism — the planner enumerates the combinations, prices each with
// the two-objective CostModel, and returns the plan minimizing
// `seconds + lambda * joules`.
//
// With lambda = 0 this is a classical performance optimizer. Raising lambda
// reproduces the paper's headline behaviours: compressed scans lose to
// uncompressed ones when CPU power dwarfs storage power (Figure 2), and
// memory-hungry hash joins lose to nested-loop joins when DRAM residency is
// priced (Section 4.1).

#ifndef ECODB_OPTIMIZER_PLANNER_H_
#define ECODB_OPTIMIZER_PLANNER_H_

#include <optional>
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

/// Logical query: left [JOIN right ON lk = rk] [WHERE ...] [GROUP BY ...]
/// [ORDER BY ...] — or, when `relations` is non-empty, an N-relation join
/// graph whose join ORDER the planner chooses by bitmask DP (join_order.h).
struct QuerySpec {
  TableAlternatives left;
  std::optional<TableAlternatives> right;
  std::string left_key;   // join keys; used when right is present
  std::string right_key;
  /// N-way form: when non-empty, `relations` + `edges` supersede
  /// left/right/left_key/right_key entirely. Requirements: the edge set
  /// connects all relations (no cross products), every column name is
  /// unique across relations, and each relation is planned on variant 0
  /// with the table-scan access path (the N-way enumerator's scope; the
  /// 2-way form keeps variant/index enumeration).
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
  /// (TopKOp) and picks it when priced cheaper — typically
  /// small k, where it saves O(n log n) comparisons and all spill I/O —
  /// falling back to Sort + Limit otherwise (k ≈ n). Both paths emit
  /// byte-identical rows.
  std::optional<uint64_t> limit;
};

enum class JoinAlgorithm { kHash, kHashSwapped, kMerge, kNestedLoop };

const char* JoinAlgorithmName(JoinAlgorithm algo);

/// One node of an N-way join tree (leaf = one relation, internal = one
/// join). Stored flat in PhysicalPlan::join_nodes; children by index.
/// Hash joins build on the `right` child (the N-way enumerator prices both
/// orientations of every split, so kHashSwapped never appears in trees).
struct PlanJoinNode {
  int relation = -1;  // leaf: index into spec.relations; -1 for joins
  int left = -1;      // internal: child node indexes
  int right = -1;
  JoinAlgorithm algo = JoinAlgorithm::kHash;
  std::string left_key;   // primary equi-join edge
  std::string right_key;
  /// Further edges between the two subtrees, applied as a residual filter
  /// over the join output (multi-key joins, cyclic graphs).
  std::vector<JoinEdge> residual_edges;
  double est_rows = 0.0;   // estimated output cardinality of this subtree
  double est_bytes = 0.0;  // est_rows x projected row width
};

/// A fully specified physical plan plus its estimated cost.
struct PhysicalPlan {
  int left_variant = 0;
  int right_variant = 0;
  AccessPath left_path = AccessPath::kTableScan;
  AccessPath right_path = AccessPath::kTableScan;
  JoinAlgorithm join_algo = JoinAlgorithm::kHash;
  int dop = 1;
  int pstate = 0;
  /// True when ORDER BY + LIMIT is fused into the bounded-heap top-k path
  /// (requires spec.order_by non-empty and spec.limit set).
  bool use_topk = false;
  /// N-way join tree (set when spec.relations is non-empty): nodes plus the
  /// root index, from the DP enumerator or CanonicalJoinPlan.
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
  /// join order (empty for 2-way plans). Two plans over the same spec
  /// joined in different orders differ here.
  std::vector<int> LeafOrder() const;
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
  /// malformed (no variants, missing join keys, ...).
  StatusOr<PhysicalPlan> ChoosePlan(const QuerySpec& spec,
                                    const Objective& objective) const;

  /// Prices one fully specified plan (exposed for ablation sweeps).
  StatusOr<PlanCost> PricePlan(const QuerySpec& spec,
                               const PhysicalPlan& plan) const;

  /// Constructs the executable operator tree realizing `plan`.
  StatusOr<exec::OperatorPtr> BuildOperator(const QuerySpec& spec,
                                            const PhysicalPlan& plan) const;

  /// Estimated selectivity of `filter` against a table's stats (exposed
  /// for tests). Bind() need not have been called.
  static double EstimateSelectivity(const exec::ExprPtr& filter,
                                    const catalog::Schema& schema,
                                    const catalog::TableStats& stats);

  /// Extracts the [lo, hi] key range the AND-conjuncts of `filter` impose
  /// on `column` (integer/date types). Returns false when unconstrained.
  static bool ExtractKeyRange(const exec::ExprPtr& filter,
                              const std::string& column, int64_t* lo,
                              int64_t* hi);

 private:
  struct Cardinalities {
    double left_rows = 0.0;
    double right_rows = 0.0;
    double join_rows = 0.0;
    double output_rows = 0.0;
  };

  StatusOr<Cardinalities> EstimateCardinalities(const QuerySpec& spec) const;

  StatusOr<PlanCost> PriceInternal(const QuerySpec& spec,
                                   const PhysicalPlan& plan,
                                   const Cardinalities& cards) const;

  // N-way join-graph path (join_order.cc): bitmask-DP enumeration over
  // connected subgraphs, pricing with the same model, building trees of the
  // unchanged join operators.
  StatusOr<PhysicalPlan> ChooseJoinGraphPlan(const QuerySpec& spec,
                                             const Objective& objective) const;
  StatusOr<PlanCost> PriceJoinGraphPlan(const QuerySpec& spec,
                                        const PhysicalPlan& plan) const;
  StatusOr<exec::OperatorPtr> BuildJoinGraphOperator(
      const QuerySpec& spec, const PhysicalPlan& plan) const;

  CostModel* model_;
  PlannerOptions options_;
};

}  // namespace ecodb::optimizer

#endif  // ECODB_OPTIMIZER_PLANNER_H_
