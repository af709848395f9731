// The planner's one path: cost-based planning of a 1-12 relation join
// graph.
//
// The paper's Section 4.1 argues the time-optimal plan and the energy-
// optimal plan diverge once operators are priced in Joules. One level up
// from join-algorithm choice, that means join ORDERS must flip as lambda
// grows: an order that builds a small-but-wide intermediate wins on seconds
// (less serial hash-build work), while an order that keeps only narrow
// relations resident wins on Joules once DRAM residency is priced. The
// enumerator here makes that a planned decision: bitmask dynamic
// programming over connected subgraphs (every connected (left, right)
// partition of every connected subset, both orientations, so left-deep,
// right-deep and bushy trees are all reachable), each subplan priced with
// the two-term `seconds + lambda * joules` CostModel.
//
// A leaf (a subset of one relation) carries all of the relation's
// alternatives: every variant with a table scan, plus an index scan when
// the filter bounds the index column. They are priced where the leaf is
// consumed — by the join above it, or by the root when there is one
// relation. The root step prices each complete candidate together with its
// aggregate / sort / top-k tail, so for one or two relations the DP is a
// joint enumeration of every combination.
//
// The cardinality estimator feeds PRICING ONLY, never correctness: every
// enumerated order is row-equivalent by construction (equi-join edges are
// symmetric; extra edges inside a merged subset become residual edges the
// join checks), which tests/differential_join_order_test.cc proves
// differentially against the fixed-order oracle below.
//
// Estimates: rows(S) = prod(filtered rows of relations in S)
//                    * prod(1 / max(ndv_l, ndv_r) over edges inside S).
// With per-column distinct counts from load-time catalog statistics this is
// FK-aware automatically: a child -> parent edge has max ndv = |parent|, so
// |child >< parent| = |child| — the non-expanding key/foreign-key rule.

#ifndef ECODB_OPTIMIZER_JOIN_ORDER_H_
#define ECODB_OPTIMIZER_JOIN_ORDER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "optimizer/planner.h"

namespace ecodb::optimizer {

/// Resolved, validated view of QuerySpec::Relations()/edges with memoized
/// per-subset cardinality estimates. Exposed so tests can compare subgraph
/// estimates against true cardinalities (the q-error property suite).
class JoinGraph {
 public:
  /// Validates the graph (1 to 12 relations, `left` and `relations` not
  /// both set, every edge endpoint and key resolves, every edge's keys
  /// comparable, scanned column names unique across relations, graph
  /// connected) and resolves statistics:
  /// TableAlternatives::stats when provided, else a fresh analyze of
  /// variant 0. Estimates come from variant 0; variants hold the same rows.
  static StatusOr<JoinGraph> Analyze(const QuerySpec& spec);

  int num_relations() const { return static_cast<int>(filtered_rows_.size()); }
  uint32_t full_mask() const {
    return (uint32_t{1} << num_relations()) - 1;
  }

  /// True when the relations selected by `mask` form a connected subgraph.
  bool Connected(uint32_t mask) const;

  /// Estimated join cardinality of the relations in `mask` (filters and
  /// every internal edge applied). Deterministic and memoized.
  double EstimateRows(uint32_t mask) const;

  /// Indexes (into spec.edges) of edges with one endpoint on each side.
  std::vector<int> CrossingEdgeIndexes(uint32_t left_mask,
                                       uint32_t right_mask) const;

  const JoinEdge& edge(int i) const { return edges_[i]; }
  double edge_selectivity(int i) const { return edge_sel_[i]; }
  /// Edge `i`'s equality, as a join checks it on a residual edge.
  const exec::Expr& edge_predicate(int i) const { return *edge_predicates_[i]; }
  /// Edge `i`'s key column types: its left key's, then its right key's.
  std::pair<catalog::DataType, catalog::DataType> edge_key_types(int i) const {
    return edge_key_types_[i];
  }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  double filtered_rows(int rel) const { return filtered_rows_[rel]; }
  /// Projected row width of one relation's scan output, in bytes.
  double row_width(int rel) const { return widths_[rel]; }
  /// Columns the relation's scan must produce (sorted, deterministic).
  const std::vector<std::string>& scan_columns(int rel) const {
    return scan_columns_[rel];
  }
  const catalog::TableStats& stats(int rel) const { return stats_[rel]; }

 private:
  std::vector<JoinEdge> edges_;
  std::vector<double> edge_sel_;
  std::vector<exec::ExprPtr> edge_predicates_;
  std::vector<std::pair<catalog::DataType, catalog::DataType>> edge_key_types_;
  std::vector<double> filtered_rows_;
  std::vector<double> widths_;
  std::vector<std::vector<std::string>> scan_columns_;
  std::vector<catalog::TableStats> stats_;
  mutable std::unordered_map<uint32_t, double> rows_memo_;
};

/// The differential oracle's fixed join order: left-deep hash joins (a
/// nested-loop join where the primary edge's keys cannot be hashed, as
/// double keys cannot), relations appended in BFS order from relation 0
/// following spec edge order — deliberately estimate-free, so it cannot
/// share a cardinality bug with the DP enumerator. Fills
/// join_nodes/join_root (dop, pstate and cost are left for the caller).
StatusOr<PhysicalPlan> CanonicalJoinPlan(const QuerySpec& spec);

}  // namespace ecodb::optimizer

#endif  // ECODB_OPTIMIZER_JOIN_ORDER_H_
