// The planner's one path: JoinGraph analysis, bitmask-DP enumeration over
// connected subgraphs with per-leaf alternatives, pricing of arbitrary join
// trees and their tails, operator construction, and the fixed-order
// differential oracle.
//
// Invariants this file maintains:
//   - ChoosePlan sets plan.cost by calling the SAME pricing walk PricePlan
//     runs, so `PricePlan(spec, chosen)` reproduces the chosen cost
//     bit-for-bit (the self-consistency contract tests assert).
//   - The estimator feeds pricing only: every enumerated tree joins on real
//     equi-join edges and checks the remaining crossing edges inside the
//     join, so all orders are row-equivalent regardless of estimates.
//   - Pricing has no instruction formulas of its own: every node's CPU
//     terms, and the join and aggregate DRAM bytes, come from the charge
//     functions its operators bill with, fed estimated counts, into the
//     bucket the bill uses (only the sort's merge terms are serial). On
//     exact counts PricePlan's seconds are the billed CPU critical path at
//     every dop.

#include "optimizer/join_order.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/index_scan.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "storage/page.h"

namespace ecodb::optimizer {

namespace {

using exec::ExprPtr;

/// DP width cap: 3^12 split enumerations stay well under a millisecond
/// budget; beyond that the spec should be broken up.
constexpr int kMaxRelations = 12;

int PopCount(uint32_t x) {
  int n = 0;
  while (x != 0) {
    x &= x - 1;
    ++n;
  }
  return n;
}

/// Rejects a spec that fills both the one-relation shorthand and the
/// relation list (QuerySpec::Relations would silently drop `left`).
Status CheckOneForm(const QuerySpec& spec) {
  if (!spec.relations.empty() && !spec.left.variants.empty()) {
    return Status::InvalidArgument(
        "query spec sets both `left` and `relations`");
  }
  return Status::OK();
}

/// The equality a join checks a residual edge by.
ExprPtr EdgePredicate(const JoinEdge& e) {
  return exec::Col(e.left_key) == exec::Col(e.right_key);
}

/// `status` with the edge it concerns named ("join edge k = sk: ..."); an
/// edge's keys name their columns uniquely, as Analyze requires.
Status NameEdge(const Status& status, const JoinEdge& e) {
  if (status.ok()) return status;
  return Status(status.code(), "join edge " + e.left_key + " = " +
                                   e.right_key + ": " + status.message());
}

/// The key-type rule of the operator that runs `algo` (exec/joins.h).
Status JoinKeyRule(JoinAlgorithm algo,
                   std::pair<catalog::DataType, catalog::DataType> keys) {
  switch (algo) {
    case JoinAlgorithm::kHash:
      return exec::CheckHashJoinKeys(keys.first, keys.second);
    case JoinAlgorithm::kMerge:
      return exec::CheckMergeJoinKeys(keys.first, keys.second);
    case JoinAlgorithm::kNestedLoop:
      return exec::CheckComparableKeys(keys.first, keys.second);
  }
  return Status::Internal("unknown join algorithm");
}

/// Schema positions of `names` (missing names skipped).
std::vector<int> ToIndexes(const catalog::Schema& schema,
                           const std::vector<std::string>& names) {
  std::vector<int> idx;
  idx.reserve(names.size());
  for (const std::string& n : names) {
    const int i = schema.FindColumn(n);
    if (i >= 0) idx.push_back(i);
  }
  return idx;
}

/// Adds every column name `expr` references to `out`.
void CollectColumns(const ExprPtr& expr, std::set<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == exec::ExprKind::kColumn) {
    out->insert(expr->column_name());
    return;
  }
  CollectColumns(expr->lhs(), out);
  CollectColumns(expr->rhs(), out);
}

/// Columns relation `rel`'s scan must produce: requested columns (empty =
/// all), filter inputs, incident edge keys, and any group-by / aggregate
/// inputs living in `schema`. std::set keeps the order deterministic. The
/// one copy of the rule: Analyze prices these columns and BuildJoinNode
/// scans them.
std::vector<std::string> ScanColumns(const QuerySpec& spec, int rel,
                                     const catalog::Schema& schema) {
  const TableAlternatives& side = spec.Relations()[rel];
  std::set<std::string> needed;
  if (side.columns.empty()) {
    for (const catalog::Column& c : schema.columns()) needed.insert(c.name);
  } else {
    needed.insert(side.columns.begin(), side.columns.end());
  }
  CollectColumns(side.filter, &needed);
  for (const JoinEdge& e : spec.edges) {
    if (e.left_rel == rel) needed.insert(e.left_key);
    if (e.right_rel == rel) needed.insert(e.right_key);
  }
  needed.insert(spec.group_by.begin(), spec.group_by.end());
  for (const exec::AggregateItem& item : spec.aggregates) {
    CollectColumns(item.input, &needed);
  }
  std::vector<std::string> cols;
  for (const std::string& name : needed) {
    if (schema.FindColumn(name) >= 0) cols.push_back(name);
  }
  return cols;
}

/// Adds one relation's scan columns to `claimed`, or fails when another
/// relation already scans one of the names. Join output columns must be
/// nameable without JoinedSchema's "_r" renames: residual edges,
/// aggregates and ORDER BY address columns by name, and a renamed column
/// would mean whichever table the plan puts on the build side. Analyze
/// and both operator-tree walks apply this one rule. A query scans a few
/// dozen columns at most, so a linear search over a vector costs less per
/// served request than a node per name would.
Status ClaimScanColumns(const std::vector<std::string>& cols,
                        std::vector<std::string>* claimed) {
  for (const std::string& name : cols) {
    if (std::find(claimed->begin(), claimed->end(), name) != claimed->end()) {
      return Status::InvalidArgument(
          "column '" + name +
          "' appears in multiple relations; join graphs require unique "
          "column names");
    }
    claimed->push_back(name);
  }
  return Status::OK();
}

}  // namespace

StatusOr<JoinGraph> JoinGraph::Analyze(const QuerySpec& spec) {
  ECODB_RETURN_IF_ERROR(CheckOneForm(spec));
  const std::span<const TableAlternatives> rels = spec.Relations();
  const int n = static_cast<int>(rels.size());
  if (n > kMaxRelations) {
    return Status::InvalidArgument("join graph exceeds relation cap");
  }
  for (const TableAlternatives& rel : rels) {
    if (rel.variants.empty() ||
        std::count(rel.variants.begin(), rel.variants.end(), nullptr) > 0) {
      return Status::InvalidArgument("relation '" + rel.name +
                                     "' has no variants");
    }
  }
  for (const JoinEdge& e : spec.edges) {
    if (e.left_rel < 0 || e.left_rel >= n || e.right_rel < 0 ||
        e.right_rel >= n || e.left_rel == e.right_rel) {
      return Status::InvalidArgument("join edge endpoints out of range");
    }
    if (rels[e.left_rel].variants[0]->schema().FindColumn(e.left_key) < 0 ||
        rels[e.right_rel].variants[0]->schema().FindColumn(e.right_key) <
            0) {
      return Status::NotFound("join edge key missing from relation schema");
    }
  }

  JoinGraph graph;
  graph.edges_ = spec.edges;
  graph.filtered_rows_.resize(n);
  graph.widths_.resize(n);
  graph.scan_columns_.resize(n);
  graph.stats_.resize(n);

  std::vector<std::string> claimed;
  for (int rel = 0; rel < n; ++rel) {
    const TableAlternatives& side = rels[rel];
    const catalog::Schema& schema = side.variants[0]->schema();
    graph.scan_columns_[rel] = ScanColumns(spec, rel, schema);
    ECODB_RETURN_IF_ERROR(ClaimScanColumns(graph.scan_columns_[rel], &claimed));
    graph.widths_[rel] =
        schema.ProjectIndexes(ToIndexes(schema, graph.scan_columns_[rel]))
            .RowWidthBytes();

    if (side.stats != nullptr) {
      graph.stats_[rel] = *side.stats;
    } else {
      ECODB_RETURN_IF_ERROR(
          side.variants[0]->AnalyzeInto(&graph.stats_[rel]));
    }
    const double sel =
        Planner::EstimateSelectivity(side.filter, schema, graph.stats_[rel]);
    graph.filtered_rows_[rel] =
        static_cast<double>(side.variants[0]->row_count()) * sel;
  }

  // Edge selectivity 1 / max(ndv_l, ndv_r): the containment assumption,
  // automatically FK-aware when the parent side's key is dense.
  graph.edge_sel_.resize(spec.edges.size());
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    const JoinEdge& e = spec.edges[i];
    const catalog::Schema& ls = rels[e.left_rel].variants[0]->schema();
    const catalog::Schema& rs = rels[e.right_rel].variants[0]->schema();
    const int li = ls.FindColumn(e.left_key);
    const int ri = rs.FindColumn(e.right_key);
    const catalog::DataType lt = ls.column(li).type;
    const catalog::DataType rt = rs.column(ri).type;
    ECODB_RETURN_IF_ERROR(NameEdge(exec::CheckComparableKeys(lt, rt), e));
    graph.edge_key_types_.emplace_back(lt, rt);
    const double ndv = std::max<double>(
        {1.0,
         static_cast<double>(graph.stats_[e.left_rel].columns[li]
                                 .distinct_values),
         static_cast<double>(graph.stats_[e.right_rel].columns[ri]
                                 .distinct_values)});
    graph.edge_sel_[i] = 1.0 / ndv;
    graph.edge_predicates_.push_back(EdgePredicate(e));
  }

  if (!graph.Connected(graph.full_mask())) {
    return Status::InvalidArgument(
        "join graph is disconnected (cross products are not planned)");
  }
  return graph;
}

bool JoinGraph::Connected(uint32_t mask) const {
  if (mask == 0) return false;
  // Flood-fill from the lowest set bit along edges internal to `mask`.
  uint32_t reached = mask & static_cast<uint32_t>(-static_cast<int32_t>(mask));
  bool grew = true;
  while (grew && reached != mask) {
    grew = false;
    for (const JoinEdge& e : edges_) {
      const uint32_t lbit = uint32_t{1} << e.left_rel;
      const uint32_t rbit = uint32_t{1} << e.right_rel;
      if ((mask & lbit) == 0 || (mask & rbit) == 0) continue;
      const uint32_t joined = reached | lbit | rbit;
      if ((reached & (lbit | rbit)) != 0 && joined != reached) {
        reached = joined;
        grew = true;
      }
    }
  }
  return reached == mask;
}

double JoinGraph::EstimateRows(uint32_t mask) const {
  auto it = rows_memo_.find(mask);
  if (it != rows_memo_.end()) return it->second;
  double rows = 1.0;
  for (int rel = 0; rel < num_relations(); ++rel) {
    if (mask >> rel & 1) rows *= filtered_rows_[rel];
  }
  for (size_t i = 0; i < edges_.size(); ++i) {
    const JoinEdge& e = edges_[i];
    if ((mask >> e.left_rel & 1) && (mask >> e.right_rel & 1)) {
      rows *= edge_sel_[i];
    }
  }
  rows_memo_.emplace(mask, rows);
  return rows;
}

std::vector<int> JoinGraph::CrossingEdgeIndexes(uint32_t left_mask,
                                                uint32_t right_mask) const {
  std::vector<int> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const JoinEdge& e = edges_[i];
    const bool l_in_left = left_mask >> e.left_rel & 1;
    const bool l_in_right = right_mask >> e.left_rel & 1;
    const bool r_in_left = left_mask >> e.right_rel & 1;
    const bool r_in_right = right_mask >> e.right_rel & 1;
    if ((l_in_left && r_in_right) || (l_in_right && r_in_left)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

namespace {

double MaskWidth(const JoinGraph& graph, uint32_t mask) {
  double width = 0.0;
  for (int rel = 0; rel < graph.num_relations(); ++rel) {
    if (mask >> rel & 1) width += graph.row_width(rel);
  }
  return width;
}

/// True when `side` offers the index-scan path: an index, and a filter
/// that bounds `index_column` to [*lo, *hi].
bool IndexRange(const TableAlternatives& side, int64_t* lo, int64_t* hi) {
  return side.index != nullptr && !side.index_column.empty() &&
         Planner::ExtractKeyRange(side.filter, side.index_column, lo, hi);
}

/// What a leaf reads: its variant's table and, for an index scan, the key
/// range.
struct LeafAccess {
  const storage::TableStorage* table = nullptr;
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
};

/// Resolves a leaf against its relation, or InvalidArgument for a
/// relation, variant or index path the spec does not offer.
StatusOr<LeafAccess> ResolveLeaf(const QuerySpec& spec,
                                 const PlanJoinNode& leaf) {
  const std::span<const TableAlternatives> rels = spec.Relations();
  if (leaf.relation >= static_cast<int>(rels.size())) {
    return Status::InvalidArgument("join tree leaf relation out of range");
  }
  const TableAlternatives& side = rels[leaf.relation];
  if (leaf.variant < 0 ||
      leaf.variant >= static_cast<int>(side.variants.size()) ||
      side.variants[leaf.variant] == nullptr) {
    return Status::InvalidArgument("leaf variant out of range for '" +
                                   side.name + "'");
  }
  LeafAccess access;
  access.table = side.variants[leaf.variant];
  if (leaf.path == AccessPath::kIndexScan &&
      !IndexRange(side, &access.lo, &access.hi)) {
    return Status::InvalidArgument("index-scan leaf over '" + side.name +
                                   "' without an index range");
  }
  return access;
}

/// Scan + pushed-down filter demand of one leaf, priced through the charge
/// functions the leaf's operators bill with: a zone-pruned table scan with
/// the filter fused in (CostModel::ScanDemand), or an index range scan
/// followed by a FilterOp.
StatusOr<ResourceEstimate> LeafDemand(const QuerySpec& spec,
                                      const JoinGraph& graph,
                                      const PlanJoinNode& leaf,
                                      const CostModel& model) {
  ECODB_ASSIGN_OR_RETURN(const LeafAccess access, ResolveLeaf(spec, leaf));
  const TableAlternatives& side = spec.Relations()[leaf.relation];
  const storage::TableStorage& t = *access.table;
  const std::vector<std::string>& cols = graph.scan_columns(leaf.relation);
  ResourceEstimate d;
  if (leaf.path == AccessPath::kIndexScan) {
    // Index page walk plus a coupon-collector estimate of the distinct heap
    // pages the matching rows touch.
    const double matches = graph.filtered_rows(leaf.relation);
    const double index_pages =
        static_cast<double>(side.index->PagesForRange(access.lo, access.hi));
    const double row_width = std::max(1, t.schema().RowWidthBytes());
    const double total_pages =
        std::max(1.0, static_cast<double>(t.row_count()) * row_width /
                          static_cast<double>(storage::Page::kPageSize));
    const double heap_pages =
        total_pages * (1.0 - std::exp(-matches / total_pages));
    if (t.device() != nullptr) {
      d.random_page_reads[t.device()] +=
          static_cast<uint64_t>(index_pages + heap_pages + 0.5);
    }
    d.cpu_instructions = exec::IndexScanInstructions(
        static_cast<double>(side.index->height()), matches,
        static_cast<double>(cols.size()));
    if (side.filter != nullptr) {
      d.cpu_instructions += exec::FilterInstructions(*side.filter, matches);
    }
    return d;
  }
  return model.ScanDemand(t, ToIndexes(t.schema(), cols), side.filter);
}

/// Adds one join node's demand on top of its children's, priced through
/// the charge functions the join operator bills with, its residual edges'
/// included. Each of them bills parallel instructions, whatever the join's
/// children are. InvalidArgument when the operator cannot run the primary
/// edge's key types: the DP then skips `algo`, and PricePlan rejects a
/// hand-set plan that uses it.
Status AddJoinDemand(const JoinGraph& graph, JoinAlgorithm algo,
                     uint32_t lmask, uint32_t rmask, ResourceEstimate* demand,
                     double* resident_bytes) {
  const std::vector<int> crossing = graph.CrossingEdgeIndexes(lmask, rmask);
  if (crossing.empty()) {
    return Status::InvalidArgument(
        "join node has no crossing equi-join edge (cross product)");
  }
  // The operator joins on the primary edge's keys; the residual edges
  // need only comparable keys, which Analyze checked.
  ECODB_RETURN_IF_ERROR(
      NameEdge(JoinKeyRule(algo, graph.edge_key_types(crossing[0])),
               graph.edge(crossing[0])));
  const double lrows = graph.EstimateRows(lmask);
  const double rrows = graph.EstimateRows(rmask);
  const double rows_primary =
      lrows * rrows * graph.edge_selectivity(crossing[0]);
  switch (algo) {
    case JoinAlgorithm::kHash: {
      const double build_bytes =
          exec::HashBuildBytes(rrows * MaskWidth(graph, rmask), rrows);
      demand->cpu_instructions += exec::HashBuildInstructions(rrows);
      demand->cpu_instructions += exec::HashProbeInstructions(lrows) +
                                  exec::OutputInstructions(rows_primary);
      demand->dram_traffic_bytes += static_cast<uint64_t>(build_bytes);
      *resident_bytes += build_bytes;
      break;
    }
    case JoinAlgorithm::kMerge:
      demand->cpu_instructions += exec::MergeJoinSortInstructions(lrows, rrows);
      demand->cpu_instructions +=
          exec::MergeJoinWalkInstructions(lrows, rrows, rows_primary);
      break;
    case JoinAlgorithm::kNestedLoop:
      demand->cpu_instructions +=
          exec::NestedLoopPairInstructions(lrows, rrows);
      demand->cpu_instructions += exec::OutputInstructions(rows_primary);
      break;
  }
  // The join checks the residual crossing edges on its matched pairs, in
  // order, each billing FilterInstructions on the pairs that reach it (so
  // each one thins the pairs for the next).
  double rows = rows_primary;
  for (size_t j = 1; j < crossing.size(); ++j) {
    demand->cpu_instructions +=
        exec::FilterInstructions(graph.edge_predicate(crossing[j]), rows);
    rows *= graph.edge_selectivity(crossing[j]);
  }
  return Status::OK();
}

/// The DP's error when the enumerated algorithms joined no plan: the rule
/// verdict on the first edge none of `algos` can run as a primary edge.
Status NoAlgorithmJoins(const JoinGraph& graph,
                        const std::vector<JoinAlgorithm>& algos) {
  for (int i = 0; i < graph.num_edges(); ++i) {
    Status verdict;
    for (JoinAlgorithm algo : algos) {
      verdict = JoinKeyRule(algo, graph.edge_key_types(i));
      if (verdict.ok()) break;
    }
    if (!verdict.ok()) return NameEdge(verdict, graph.edge(i));
  }
  return Status::Internal("join DP found no plan for a connected graph");
}

/// Two-phase pricing: residency energy needs the plan duration, so price
/// once for seconds, set resident-byte-seconds, and price again. Works on
/// a copy so the caller's accumulating demand stays duration-free.
PlanCost PriceWithResidency(const CostModel& model, ResourceEstimate demand,
                            double resident_bytes, int dop, int pstate) {
  PlanCost cost = model.Price(demand, dop, pstate);
  if (resident_bytes > 0) {
    demand.resident_byte_seconds = resident_bytes * cost.seconds;
    cost = model.Price(demand, dop, pstate);
  }
  return cost;
}

/// Prices the tail of `spec` into `demand`: the aggregate's update,
/// input expressions, emission and state, as HashAggregateOp bills them,
/// then the sort with its LIMIT and spill, over the runs SortOp forms. `root`
/// is the join tree's root, `in_rows` the tail's input cardinality (the
/// join output), `output_rows` its estimated final cardinality before the
/// LIMIT clamp, and `input_width` the materialized byte width of one
/// pre-aggregation row (used for sort sizing when no aggregate reshapes
/// the rows).
void PriceTail(const QuerySpec& spec, const CostModel& model,
               const PlanJoinNode& root, double in_rows, double output_rows,
               double input_width, ResourceEstimate* demand) {
  if (!spec.aggregates.empty()) {
    for (double term :
         exec::AggregateUpdateInstructions(spec.aggregates, in_rows)) {
      demand->cpu_instructions += term;
    }
    demand->cpu_instructions += exec::OutputInstructions(output_rows);
    demand->dram_traffic_bytes +=
        static_cast<uint64_t>(exec::AggregateStateBytes(
            output_rows, spec.group_by.size(), spec.aggregates.size()));
  }

  if (!spec.order_by.empty()) {
    const double n = output_rows;
    // Materialized width of the sorted rows: aggregate outputs are (group
    // keys + aggregate values); otherwise the projected scan/join width.
    double width;
    if (!spec.aggregates.empty()) {
      width = 8.0 * static_cast<double>(spec.group_by.size() +
                                        spec.aggregates.size());
    } else {
      width = input_width;
    }
    const double budget =
        static_cast<double>(spec.sort_memory_budget_bytes);
    // Under a LIMIT k each run keeps at most k rows, so the sort holds and
    // spills only those.
    const double limit_rows = spec.limit.has_value()
                                  ? static_cast<double>(*spec.limit)
                                  : std::numeric_limits<double>::infinity();
    // SortOp forms one run per morsel when it reads a table scan directly
    // (one relation, no aggregate); over a join, an aggregate or an index
    // scan it forms one run.
    const storage::TableStorage* scanned = nullptr;
    ExprPtr filter;
    if (spec.aggregates.empty() && root.relation >= 0 &&
        root.path == AccessPath::kTableScan) {
      const TableAlternatives& side = spec.Relations()[root.relation];
      scanned = side.variants[root.variant];
      filter = side.filter;
    }
    const std::vector<double> runs = model.SortRuns(n, scanned, filter);
    demand->Merge(model.SortDemand(runs, spec.order_by.size(), limit_rows));
    // Each run keeps its rows, or under a limit its first k of them.
    double kept_rows = n;
    if (spec.limit.has_value()) {
      kept_rows = 0.0;
      for (const double run : runs) kept_rows += std::min(run, limit_rows);
    }
    const double kept_bytes = kept_rows * width;
    demand->dram_traffic_bytes +=
        static_cast<uint64_t>(std::min(kept_bytes, budget));
    if (spec.sort_spill_device != nullptr && kept_bytes > budget) {
      // External spill: every kept row is written once and read back once.
      demand->device_bytes[spec.sort_spill_device] +=
          static_cast<uint64_t>(2.0 * kept_bytes);
    }
  }
}

/// Estimated output cardinality of the tail before the LIMIT clamp:
/// the root's rows, reduced to the group count when aggregating (a crude
/// NDV product, each group column's NDV taken from the first relation
/// whose schema holds it).
double TailOutputRows(const QuerySpec& spec, const JoinGraph& graph,
                      double root_rows) {
  if (spec.aggregates.empty()) return root_rows;
  const std::span<const TableAlternatives> rels = spec.Relations();
  double groups = 1.0;
  for (const std::string& g : spec.group_by) {
    double ndv = 16.0;
    for (int rel = 0; rel < graph.num_relations(); ++rel) {
      const int i = rels[rel].variants[0]->schema().FindColumn(g);
      if (i >= 0 &&
          i < static_cast<int>(graph.stats(rel).columns.size())) {
        ndv = std::max<double>(
            1.0, static_cast<double>(
                     graph.stats(rel).columns[i].distinct_values));
        break;
      }
    }
    groups *= ndv;
  }
  return std::min(root_rows, spec.group_by.empty() ? 1.0 : groups);
}

/// Recursive pricing walk over an explicit join tree. Accumulates demand
/// and resident bytes bottom-up with the same arithmetic (and the same
/// merge order: left subtree, then right subtree, then this node's join
/// terms) the DP enumerator uses, so DP-chosen and hand-built trees price
/// through one code path.
StatusOr<uint32_t> WalkJoinTree(const QuerySpec& spec, const JoinGraph& graph,
                                const std::vector<PlanJoinNode>& nodes,
                                int index, const CostModel& model,
                                ResourceEstimate* demand,
                                double* resident_bytes) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) {
    return Status::InvalidArgument("join tree node index out of range");
  }
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    ECODB_ASSIGN_OR_RETURN(const ResourceEstimate leaf,
                           LeafDemand(spec, graph, node, model));
    demand->Merge(leaf);
    return uint32_t{1} << node.relation;
  }
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t lmask,
      WalkJoinTree(spec, graph, nodes, node.left, model, demand,
                   resident_bytes));
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t rmask,
      WalkJoinTree(spec, graph, nodes, node.right, model, demand,
                   resident_bytes));
  if ((lmask & rmask) != 0) {
    return Status::InvalidArgument("join tree repeats a relation");
  }
  ECODB_RETURN_IF_ERROR(
      AddJoinDemand(graph, node.algo, lmask, rmask, demand, resident_bytes));
  return lmask | rmask;
}

/// The one pricing routine: tree walk + tail + residency.
StatusOr<PlanCost> PriceGraphPlan(const QuerySpec& spec,
                                  const JoinGraph& graph,
                                  const PhysicalPlan& plan,
                                  const CostModel& model) {
  if (plan.join_root < 0 || plan.join_nodes.empty()) {
    return Status::InvalidArgument("plan has no join tree");
  }
  ResourceEstimate demand;
  double resident_bytes = 0.0;
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t mask,
      WalkJoinTree(spec, graph, plan.join_nodes, plan.join_root, model,
                   &demand, &resident_bytes));
  if (mask != graph.full_mask()) {
    return Status::InvalidArgument("join tree does not cover all relations");
  }
  const double root_rows = graph.EstimateRows(mask);
  PriceTail(spec, model, plan.join_nodes[plan.join_root], root_rows,
            TailOutputRows(spec, graph, root_rows), MaskWidth(graph, mask),
            &demand);
  return PriceWithResidency(model, std::move(demand), resident_bytes,
                            plan.dop, plan.pstate);
}

/// One way to produce a subset's rows: the arena index of its tree's root,
/// and the demand and resident bytes accumulated below it.
struct SubPlan {
  int node = -1;
  ResourceEstimate demand;
  double resident_bytes = 0.0;
};

/// Appends a join node for the (lmask, rmask) split to the arena: primary
/// edge = first crossing edge by spec order, oriented so left_key names a
/// left-subtree column; the rest become residual edges.
int EmitJoinNode(const JoinGraph& graph, std::vector<PlanJoinNode>* arena,
                 int left_node, int right_node, JoinAlgorithm algo,
                 uint32_t lmask, uint32_t rmask) {
  const std::vector<int> crossing = graph.CrossingEdgeIndexes(lmask, rmask);
  PlanJoinNode node;
  node.left = left_node;
  node.right = right_node;
  node.algo = algo;
  const JoinEdge& p = graph.edge(crossing[0]);
  const bool p_left_in_lmask = lmask >> p.left_rel & 1;
  node.left_key = p_left_in_lmask ? p.left_key : p.right_key;
  node.right_key = p_left_in_lmask ? p.right_key : p.left_key;
  for (size_t j = 1; j < crossing.size(); ++j) {
    node.residual_edges.push_back(graph.edge(crossing[j]));
  }
  const uint32_t mask = lmask | rmask;
  node.est_rows = graph.EstimateRows(mask);
  node.est_bytes = node.est_rows * MaskWidth(graph, mask);
  arena->push_back(std::move(node));
  return static_cast<int>(arena->size()) - 1;
}

/// Copies the subtree rooted at `index` from the DP arena (which holds one
/// node per explored mask, chosen or not) into `out`, returning the new
/// root index. Children precede parents, so indexes stay valid.
int CompactTree(const std::vector<PlanJoinNode>& arena, int index,
                std::vector<PlanJoinNode>* out) {
  const PlanJoinNode& node = arena[index];
  PlanJoinNode copy = node;
  if (node.relation < 0) {
    copy.left = CompactTree(arena, node.left, out);
    copy.right = CompactTree(arena, node.right, out);
  }
  out->push_back(std::move(copy));
  return static_cast<int>(out->size()) - 1;
}

double SumIntermediateBytes(const std::vector<PlanJoinNode>& nodes,
                            int root) {
  double bytes = 0.0;
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    if (nodes[i].relation < 0 && i != root) bytes += nodes[i].est_bytes;
  }
  return bytes;
}

}  // namespace

StatusOr<PhysicalPlan> Planner::ChoosePlan(const QuerySpec& spec,
                                           const Objective& objective) const {
  for (int dop : options_.dops) {
    if (dop < 1) {
      return Status::InvalidArgument("planner dop candidates must be >= 1");
    }
  }
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  const std::span<const TableAlternatives> rels = spec.Relations();
  const int n = graph.num_relations();
  const uint32_t full = graph.full_mask();

  std::vector<JoinAlgorithm> algos;
  if (options_.enumerate_join_algorithms) {
    algos = {JoinAlgorithm::kHash, JoinAlgorithm::kMerge,
             JoinAlgorithm::kNestedLoop};
  } else {
    algos = {JoinAlgorithm::kHash};
  }
  const int num_pstates =
      options_.enumerate_pstates ? model_->platform()->cpu().num_pstates()
                                 : 1;
  // Leaf base case: each relation's alternatives (every variant with a
  // table scan, each followed by an index scan when the filter bounds the
  // index column) stay side by side, so whatever consumes the leaf — the
  // join above it, or the root for one relation — prices every
  // alternative together with its own terms. They do not depend on
  // (dop, pstate), so they are priced once, ahead of the arena's join
  // nodes.
  std::vector<PlanJoinNode> arena;
  std::vector<std::vector<SubPlan>> leaves(n);
  for (int rel = 0; rel < n; ++rel) {
    int64_t lo, hi;
    const bool indexed = IndexRange(rels[rel], &lo, &hi);
    for (size_t v = 0; v < rels[rel].variants.size(); ++v) {
      for (AccessPath path : {AccessPath::kTableScan, AccessPath::kIndexScan}) {
        if (path == AccessPath::kIndexScan && !indexed) continue;
        PlanJoinNode node;
        node.relation = rel;
        node.variant = static_cast<int>(v);
        node.path = path;
        node.est_rows = graph.filtered_rows(rel);
        node.est_bytes = node.est_rows * graph.row_width(rel);
        ECODB_ASSIGN_OR_RETURN(ResourceEstimate demand,
                               LeafDemand(spec, graph, node, *model_));
        arena.push_back(std::move(node));
        leaves[rel].push_back(SubPlan{static_cast<int>(arena.size()) - 1,
                                      std::move(demand), 0.0});
      }
    }
  }
  const size_t num_leaf_nodes = arena.size();

  // The tail's input rows, output rows and input width are the same for
  // every tree over the full set.
  const double root_rows = graph.EstimateRows(full);
  const double tail_rows = TailOutputRows(spec, graph, root_rows);
  const double root_width = MaskWidth(graph, full);
  const double output_rows =
      spec.limit.has_value()
          ? std::min(tail_rows, static_cast<double>(*spec.limit))
          : tail_rows;

  std::optional<PhysicalPlan> best;
  for (int dop : options_.dops) {
    for (int pstate = 0; pstate < num_pstates; ++pstate) {
      // A candidate's scalar. A proper subset prices what it has; the full
      // set also prices its tail, so the root step compares complete plans.
      // The DP's candidates are joins.
      const PlanJoinNode join_root;
      auto scalar_of = [&](const SubPlan& s, uint32_t mask) {
        ResourceEstimate demand = s.demand;
        if (mask == full) {
          PriceTail(spec, *model_, join_root, root_rows, tail_rows,
                    root_width, &demand);
        }
        return PriceWithResidency(*model_, std::move(demand),
                                  s.resident_bytes, dop, pstate)
            .Scalarize(objective);
      };

      // ---- DP over connected subgraphs at this (dop, pstate) ----
      arena.resize(num_leaf_nodes);
      std::vector<std::vector<SubPlan>> subs(uint64_t{1} << n);
      for (int rel = 0; rel < n; ++rel) subs[uint32_t{1} << rel] = leaves[rel];
      // Ascending mask order is a valid DP order: every proper submask is
      // numerically smaller. The submask loop enumerates ordered (l, r)
      // pairs, so both hash-build orientations and bushy shapes are priced.
      for (uint32_t mask = 1; mask <= full; ++mask) {
        if (PopCount(mask) < 2) continue;
        struct Best {
          uint32_t lmask = 0;
          JoinAlgorithm algo = JoinAlgorithm::kHash;
          int left_node = -1;
          int right_node = -1;
          SubPlan plan;
          double scalar = std::numeric_limits<double>::infinity();
        };
        std::optional<Best> winner;
        for (uint32_t l = (mask - 1) & mask; l != 0; l = (l - 1) & mask) {
          const uint32_t r = mask ^ l;
          if (subs[l].empty() || subs[r].empty()) continue;
          if (graph.CrossingEdgeIndexes(l, r).empty()) continue;
          for (JoinAlgorithm algo : algos) {
            for (const SubPlan& ls : subs[l]) {
              for (const SubPlan& rs : subs[r]) {
                SubPlan cand{-1, ls.demand,
                             ls.resident_bytes + rs.resident_bytes};
                cand.demand.Merge(rs.demand);
                if (!AddJoinDemand(graph, algo, l, r, &cand.demand,
                                   &cand.resident_bytes)
                         .ok()) {
                  continue;
                }
                const double scalar = scalar_of(cand, mask);
                if (!winner.has_value() || scalar < winner->scalar) {
                  winner = Best{l, algo, ls.node, rs.node, std::move(cand),
                                scalar};
                }
              }
            }
          }
        }
        if (!winner.has_value()) continue;
        winner->plan.node =
            EmitJoinNode(graph, &arena, winner->left_node, winner->right_node,
                         winner->algo, winner->lmask, mask ^ winner->lmask);
        subs[mask].push_back(std::move(winner->plan));
      }
      if (subs[full].empty()) return NoAlgorithmJoins(graph, algos);

      // Root step: each candidate for the full set (the DP's tree, or a
      // lone relation's alternatives), costed by the walk PricePlan runs.
      for (const SubPlan& root : subs[full]) {
        PhysicalPlan plan;
        plan.dop = dop;
        plan.pstate = pstate;
        plan.join_root = CompactTree(arena, root.node, &plan.join_nodes);
        plan.est_intermediate_bytes =
            SumIntermediateBytes(plan.join_nodes, plan.join_root);
        plan.output_rows = output_rows;
        ECODB_ASSIGN_OR_RETURN(plan.cost,
                               PriceGraphPlan(spec, graph, plan, *model_));
        if (!best.has_value() || plan.cost.Scalarize(objective) <
                                     best->cost.Scalarize(objective)) {
          best = std::move(plan);
        }
      }
    }
  }
  if (!best.has_value()) return Status::Internal("no plan enumerated");
  return *best;
}

StatusOr<PlanCost> Planner::PricePlan(const QuerySpec& spec,
                                      const PhysicalPlan& plan) const {
  // A hand-set plan's dop and P-state index the CPU model's tables; check
  // them as ExecContext would take them.
  exec::ExecOptions options;
  options.dop = plan.dop;
  options.pstate = plan.pstate;
  ECODB_RETURN_IF_ERROR(
      exec::ValidateExecOptions(options, model_->platform()->cpu()));
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  return PriceGraphPlan(spec, graph, plan, *model_);
}

namespace {

/// Recursive operator construction for one join-tree node; `claimed`
/// holds the column names the leaves built so far scan.
StatusOr<exec::OperatorPtr> BuildJoinNode(const QuerySpec& spec,
                                          const PhysicalPlan& plan, int index,
                                          std::vector<std::string>* claimed) {
  using exec::OperatorPtr;
  if (index < 0 || index >= static_cast<int>(plan.join_nodes.size())) {
    return Status::InvalidArgument("join tree node index out of range");
  }
  const PlanJoinNode& node = plan.join_nodes[index];
  if (node.relation >= 0) {
    ECODB_ASSIGN_OR_RETURN(const LeafAccess access, ResolveLeaf(spec, node));
    const TableAlternatives& side = spec.Relations()[node.relation];
    std::vector<std::string> cols =
        ScanColumns(spec, node.relation, access.table->schema());
    ECODB_RETURN_IF_ERROR(ClaimScanColumns(cols, claimed));
    if (node.path == AccessPath::kIndexScan) {
      OperatorPtr scan = std::make_unique<exec::IndexScanOp>(
          access.table, side.index, std::move(cols), access.lo, access.hi);
      if (side.filter != nullptr) {
        scan = std::make_unique<exec::FilterOp>(std::move(scan), side.filter);
      }
      return scan;
    }
    // Table scan with the exact filter fused in; also the morsel source
    // that lets a directly-attached hash join probe in parallel.
    return OperatorPtr(std::make_unique<exec::TableScanOp>(
        access.table, std::move(cols), side.filter, side.filter));
  }

  ECODB_ASSIGN_OR_RETURN(OperatorPtr left,
                         BuildJoinNode(spec, plan, node.left, claimed));
  ECODB_ASSIGN_OR_RETURN(OperatorPtr right,
                         BuildJoinNode(spec, plan, node.right, claimed));
  // The join checks its residual edges on its candidate pairs, in order,
  // before it gathers them.
  std::vector<ExprPtr> residual;
  for (const JoinEdge& e : node.residual_edges) {
    residual.push_back(EdgePredicate(e));
  }
  OperatorPtr joined;
  switch (node.algo) {
    case JoinAlgorithm::kHash:
      joined = std::make_unique<exec::HashJoinOp>(
          std::move(left), std::move(right), node.left_key, node.right_key,
          std::move(residual));
      break;
    case JoinAlgorithm::kMerge:
      joined = std::make_unique<exec::MergeJoinOp>(
          std::move(left), std::move(right), node.left_key, node.right_key,
          std::move(residual));
      break;
    case JoinAlgorithm::kNestedLoop:
      // Column names are unique across relations (ClaimScanColumns), so
      // the joined schema never renames and Col(right_key) resolves.
      joined = std::make_unique<exec::NestedLoopJoinOp>(
          std::move(left), std::move(right),
          exec::Col(node.left_key) == exec::Col(node.right_key),
          std::move(residual));
      break;
  }
  return joined;
}

/// Appends the table-scan leaves of the subtree at `index`, left to right,
/// as BuildJoinNode builds them, with BuildJoinNode's checks.
Status CollectTableScans(const QuerySpec& spec, const PhysicalPlan& plan,
                         int index, std::vector<std::string>* claimed,
                         std::vector<TableScanLeaf>* out) {
  if (index < 0 || index >= static_cast<int>(plan.join_nodes.size())) {
    return Status::InvalidArgument("join tree node index out of range");
  }
  const PlanJoinNode& node = plan.join_nodes[index];
  if (node.relation < 0) {
    ECODB_RETURN_IF_ERROR(
        CollectTableScans(spec, plan, node.left, claimed, out));
    return CollectTableScans(spec, plan, node.right, claimed, out);
  }
  ECODB_ASSIGN_OR_RETURN(const LeafAccess access, ResolveLeaf(spec, node));
  const catalog::Schema& schema = access.table->schema();
  const std::vector<std::string> cols =
      ScanColumns(spec, node.relation, schema);
  ECODB_RETURN_IF_ERROR(ClaimScanColumns(cols, claimed));
  if (node.path == AccessPath::kTableScan) {
    out->push_back({access.table, ToIndexes(schema, cols)});
  }
  return Status::OK();
}

/// Wraps `root` with the operators realizing the tail (aggregate, then
/// the sort with the LIMIT as its own, or a LIMIT alone); the tree is the
/// same at every dop.
exec::OperatorPtr FinishOperatorTree(const QuerySpec& spec,
                                     exec::OperatorPtr root) {
  if (!spec.aggregates.empty()) {
    root = std::make_unique<exec::HashAggregateOp>(
        std::move(root), spec.group_by, spec.aggregates);
  }
  std::optional<size_t> limit;
  if (spec.limit.has_value()) limit = static_cast<size_t>(*spec.limit);
  if (!spec.order_by.empty()) {
    return std::make_unique<exec::SortOp>(
        std::move(root), spec.order_by, spec.sort_memory_budget_bytes,
        spec.sort_spill_device, limit);
  }
  if (limit.has_value()) {
    root = std::make_unique<exec::LimitOp>(std::move(root), *limit);
  }
  return root;
}

}  // namespace

StatusOr<exec::OperatorPtr> Planner::BuildOperator(const QuerySpec& spec,
                                                   const PhysicalPlan& plan) {
  ECODB_RETURN_IF_ERROR(CheckOneForm(spec));
  if (plan.join_root < 0 || plan.join_nodes.empty()) {
    return Status::InvalidArgument("plan has no join tree");
  }
  std::vector<std::string> claimed;
  ECODB_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                         BuildJoinNode(spec, plan, plan.join_root, &claimed));
  return FinishOperatorTree(spec, std::move(root));
}

StatusOr<std::vector<TableScanLeaf>> Planner::TableScanLeaves(
    const QuerySpec& spec, const PhysicalPlan& plan) {
  ECODB_RETURN_IF_ERROR(CheckOneForm(spec));
  std::vector<std::string> claimed;
  std::vector<TableScanLeaf> scans;
  ECODB_RETURN_IF_ERROR(
      CollectTableScans(spec, plan, plan.join_root, &claimed, &scans));
  return scans;
}

StatusOr<PhysicalPlan> CanonicalJoinPlan(const QuerySpec& spec) {
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  PhysicalPlan plan;
  std::vector<PlanJoinNode>& nodes = plan.join_nodes;

  PlanJoinNode first;
  first.relation = 0;
  nodes.push_back(first);
  int root = 0;
  uint32_t mask = 1;
  while (mask != graph.full_mask()) {
    // Next relation: the far endpoint of the first spec-order edge leaving
    // the current set. Purely structural — no estimates involved.
    int next_rel = -1;
    for (int i = 0; i < graph.num_edges() && next_rel < 0; ++i) {
      const JoinEdge& e = graph.edge(i);
      const bool lin = mask >> e.left_rel & 1;
      const bool rin = mask >> e.right_rel & 1;
      if (lin != rin) next_rel = lin ? e.right_rel : e.left_rel;
    }
    if (next_rel < 0) {
      return Status::Internal("canonical plan failed to grow a connected set");
    }
    PlanJoinNode leaf;
    leaf.relation = next_rel;
    nodes.push_back(leaf);
    const int leaf_index = static_cast<int>(nodes.size()) - 1;

    const std::vector<int> crossing =
        graph.CrossingEdgeIndexes(mask, uint32_t{1} << next_rel);
    PlanJoinNode join;
    join.left = root;
    join.right = leaf_index;
    // Hash where the primary edge's keys hash; nested-loop, which runs any
    // comparable keys, where they do not (double keys).
    const Status hashable =
        JoinKeyRule(JoinAlgorithm::kHash, graph.edge_key_types(crossing[0]));
    join.algo =
        hashable.ok() ? JoinAlgorithm::kHash : JoinAlgorithm::kNestedLoop;
    const JoinEdge& p = graph.edge(crossing[0]);
    const bool p_left_in_mask = mask >> p.left_rel & 1;
    join.left_key = p_left_in_mask ? p.left_key : p.right_key;
    join.right_key = p_left_in_mask ? p.right_key : p.left_key;
    for (size_t j = 1; j < crossing.size(); ++j) {
      join.residual_edges.push_back(graph.edge(crossing[j]));
    }
    nodes.push_back(std::move(join));
    root = static_cast<int>(nodes.size()) - 1;
    mask |= uint32_t{1} << next_rel;
  }
  plan.join_root = root;
  return plan;
}

}  // namespace ecodb::optimizer
