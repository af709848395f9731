// N-way join ordering: JoinGraph analysis, bitmask-DP enumeration over
// connected subgraphs, pricing of arbitrary join trees, operator
// construction, and the fixed-order differential oracle.
//
// Invariants this file maintains:
//   - ChooseJoinGraphPlan sets plan.cost by calling the SAME pricing walk
//     PricePlan dispatches to, so `PricePlan(spec, chosen)` reproduces the
//     chosen cost bit-for-bit (the self-consistency contract tests assert).
//   - The estimator feeds pricing only: every enumerated tree joins on real
//     equi-join edges and applies the remaining crossing edges as residual
//     filters, so all orders are row-equivalent regardless of estimates.
//   - Physical join operators are reused unchanged; every leaf is a morsel
//     scan, and only a join whose LEFT child is such a leaf probes in
//     parallel (upper joins consume materialized children serially) — which
//     rule the serial/parallel instruction split below mirrors.

#include "optimizer/join_order.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "exec/filter_project.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "optimizer/planner_internal.h"

namespace ecodb::optimizer {

namespace {

using exec::ExprPtr;

/// Instructions charged per row by one residual-edge equality filter.
constexpr double kResidualFilterInstrPerRow = 4.0;

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

}  // namespace

StatusOr<JoinGraph> JoinGraph::Analyze(const QuerySpec& spec) {
  const int n = static_cast<int>(spec.relations.size());
  if (n < 2) {
    return Status::InvalidArgument(
        "join graph needs at least two relations");
  }
  if (n > kMaxRelations) {
    return Status::InvalidArgument("join graph exceeds relation cap");
  }
  for (const TableAlternatives& rel : spec.relations) {
    if (rel.variants.empty() || rel.variants[0] == nullptr) {
      return Status::InvalidArgument("relation '" + rel.name +
                                     "' has no variants");
    }
  }
  for (const JoinEdge& e : spec.edges) {
    if (e.left_rel < 0 || e.left_rel >= n || e.right_rel < 0 ||
        e.right_rel >= n || e.left_rel == e.right_rel) {
      return Status::InvalidArgument("join edge endpoints out of range");
    }
    if (spec.relations[e.left_rel].variants[0]->schema().FindColumn(
            e.left_key) < 0 ||
        spec.relations[e.right_rel].variants[0]->schema().FindColumn(
            e.right_key) < 0) {
      return Status::NotFound("join edge key missing from relation schema");
    }
  }

  JoinGraph graph;
  graph.edges_ = spec.edges;
  graph.filtered_rows_.resize(n);
  graph.widths_.resize(n);
  graph.scan_columns_.resize(n);
  graph.stats_.resize(n);

  // Columns each relation's scan must produce: requested columns (empty =
  // all), filter inputs, incident edge keys, and any group-by / aggregate
  // inputs living in this schema. std::set keeps the order deterministic.
  std::set<std::string> agg_cols;
  for (const std::string& g : spec.group_by) agg_cols.insert(g);
  for (const exec::AggregateItem& item : spec.aggregates) {
    exec::CollectColumns(item.input, &agg_cols);
  }
  std::set<std::string> seen_everywhere;
  for (int rel = 0; rel < n; ++rel) {
    const TableAlternatives& side = spec.relations[rel];
    const catalog::Schema& schema = side.variants[0]->schema();
    std::set<std::string> needed;
    if (side.columns.empty()) {
      for (const catalog::Column& c : schema.columns()) needed.insert(c.name);
    } else {
      needed.insert(side.columns.begin(), side.columns.end());
    }
    exec::CollectColumns(side.filter, &needed);
    for (const JoinEdge& e : spec.edges) {
      if (e.left_rel == rel) needed.insert(e.left_key);
      if (e.right_rel == rel) needed.insert(e.right_key);
    }
    for (const std::string& name : agg_cols) {
      if (schema.FindColumn(name) >= 0) needed.insert(name);
    }
    std::vector<std::string>& cols = graph.scan_columns_[rel];
    for (const std::string& name : needed) {
      if (schema.FindColumn(name) < 0) continue;
      cols.push_back(name);
      // Join output columns must be nameable without JoinedSchema's "_r"
      // renames (residual filters and the differential oracle's canonical
      // projection address columns by name).
      if (!seen_everywhere.insert(name).second) {
        return Status::InvalidArgument(
            "column '" + name +
            "' appears in multiple relations; N-way join graphs require "
            "unique column names");
      }
    }
    graph.widths_[rel] = internal::RowWidthOf(*side.variants[0], cols);

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
    const int li = spec.relations[e.left_rel].variants[0]->schema().FindColumn(
        e.left_key);
    const int ri =
        spec.relations[e.right_rel].variants[0]->schema().FindColumn(
            e.right_key);
    const double ndv = std::max<double>(
        {1.0,
         static_cast<double>(graph.stats_[e.left_rel].columns[li]
                                 .distinct_values),
         static_cast<double>(graph.stats_[e.right_rel].columns[ri]
                                 .distinct_values)});
    graph.edge_sel_[i] = 1.0 / ndv;
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

/// Scan + pushed-down filter demand of one relation's leaf. Identical
/// arithmetic to the 2-way path's side_demand (table-scan branch).
ResourceEstimate LeafDemand(const QuerySpec& spec, const JoinGraph& graph,
                            int rel, const exec::CostConstants& k) {
  const TableAlternatives& side = spec.relations[rel];
  const storage::TableStorage& t = *side.variants[0];
  ResourceEstimate d = internal::PrunedScanDemand(
      t, internal::ToIndexes(t.schema(), graph.scan_columns(rel)),
      side.filter, k.decode_scale);
  if (side.filter != nullptr) {
    d.cpu_instructions += side.filter->InstructionsPerRow() *
                          static_cast<double>(t.row_count());
  }
  return d;
}

/// Adds one join node's demand on top of its children's. `left_is_leaf`
/// decides probe attribution: a leaf left child is a morsel source, so its
/// probe parallelizes; joins above joins probe serially.
/// Returns the primary crossing edge index via `primary` (first by spec
/// order — the same rule tree construction uses).
Status AddJoinDemand(const JoinGraph& graph, JoinAlgorithm algo,
                     uint32_t lmask, uint32_t rmask, bool left_is_leaf,
                     const exec::CostConstants& k, const CostModel& model,
                     ResourceEstimate* demand, double* resident_bytes,
                     int* primary) {
  const std::vector<int> crossing = graph.CrossingEdgeIndexes(lmask, rmask);
  if (crossing.empty()) {
    return Status::InvalidArgument(
        "join node has no crossing equi-join edge (cross product)");
  }
  *primary = crossing[0];
  const double lrows = graph.EstimateRows(lmask);
  const double rrows = graph.EstimateRows(rmask);
  const double rows_primary =
      lrows * rrows * graph.edge_selectivity(crossing[0]);
  switch (algo) {
    case JoinAlgorithm::kHash: {
      const double build_bytes = rrows * (MaskWidth(graph, rmask) + 32.0);
      demand->serial_cpu_instructions += k.hash_build_per_row * rrows;
      const double probe = k.hash_probe_per_row * lrows +
                           k.output_per_row * rows_primary;
      if (left_is_leaf) {
        demand->cpu_instructions += probe;
      } else {
        demand->serial_cpu_instructions += probe;
      }
      demand->dram_traffic_bytes += static_cast<uint64_t>(build_bytes);
      *resident_bytes += build_bytes;
      break;
    }
    case JoinAlgorithm::kMerge: {
      demand->Merge(model.SortDemand(lrows, 1));
      demand->Merge(model.SortDemand(rrows, 1));
      demand->serial_cpu_instructions +=
          2.0 * (lrows + rrows) + k.output_per_row * rows_primary;
      break;
    }
    case JoinAlgorithm::kNestedLoop: {
      demand->serial_cpu_instructions +=
          k.nl_join_inner_per_pair * lrows * rrows +
          k.output_per_row * rows_primary;
      break;
    }
    case JoinAlgorithm::kHashSwapped:
      // The enumerator prices both orientations of every split instead.
      return Status::InvalidArgument(
          "kHashSwapped is not valid in N-way join trees");
  }
  // Residual crossing edges run as stacked equality filters over the
  // primary join's output (each one thins the stream for the next).
  double rows = rows_primary;
  for (size_t j = 1; j < crossing.size(); ++j) {
    demand->serial_cpu_instructions += kResidualFilterInstrPerRow * rows;
    rows *= graph.edge_selectivity(crossing[j]);
  }
  return Status::OK();
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

/// Recursive pricing walk over an explicit join tree. Accumulates demand
/// and resident bytes bottom-up with the same arithmetic (and the same
/// merge order: left subtree, then right subtree, then this node's join
/// terms) the DP enumerator uses, so DP-chosen and hand-built trees price
/// through one code path.
StatusOr<uint32_t> WalkJoinTree(const QuerySpec& spec, const JoinGraph& graph,
                                const std::vector<PlanJoinNode>& nodes,
                                int index, const exec::CostConstants& k,
                                const CostModel& model,
                                ResourceEstimate* demand,
                                double* resident_bytes) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) {
    return Status::InvalidArgument("join tree node index out of range");
  }
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    if (node.relation >= graph.num_relations()) {
      return Status::InvalidArgument("join tree leaf relation out of range");
    }
    demand->Merge(LeafDemand(spec, graph, node.relation, k));
    return uint32_t{1} << node.relation;
  }
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t lmask,
      WalkJoinTree(spec, graph, nodes, node.left, k, model, demand,
                   resident_bytes));
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t rmask,
      WalkJoinTree(spec, graph, nodes, node.right, k, model, demand,
                   resident_bytes));
  if ((lmask & rmask) != 0) {
    return Status::InvalidArgument("join tree repeats a relation");
  }
  const bool left_is_leaf = nodes[node.left].relation >= 0;
  int primary = -1;
  ECODB_RETURN_IF_ERROR(AddJoinDemand(graph, node.algo, lmask, rmask,
                                      left_is_leaf, k, model, demand,
                                      resident_bytes, &primary));
  return lmask | rmask;
}

/// Estimated output cardinality of the tail before the LIMIT clamp:
/// the root join's rows, reduced to the group count when aggregating.
/// Mirrors the 2-way EstimateCardinalities group clamp, searching every
/// relation's schema for each group column.
double TailOutputRows(const QuerySpec& spec, const JoinGraph& graph,
                      double root_rows) {
  if (spec.aggregates.empty()) return root_rows;
  double groups = 1.0;
  for (const std::string& g : spec.group_by) {
    double ndv = 16.0;
    for (int rel = 0; rel < graph.num_relations(); ++rel) {
      const catalog::Schema& schema =
          spec.relations[rel].variants[0]->schema();
      const int i = schema.FindColumn(g);
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

/// The one pricing routine for N-way plans: tree walk + tail + residency.
StatusOr<PlanCost> PriceGraphPlan(const QuerySpec& spec,
                                  const JoinGraph& graph,
                                  const PhysicalPlan& plan,
                                  const CostModel& model) {
  if (plan.join_root < 0 || plan.join_nodes.empty()) {
    return Status::InvalidArgument("N-way plan has no join tree");
  }
  const exec::CostConstants& k = model.params().costs;
  ResourceEstimate demand;
  double resident_bytes = 0.0;
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t mask,
      WalkJoinTree(spec, graph, plan.join_nodes, plan.join_root, k, model,
                   &demand, &resident_bytes));
  if (mask != graph.full_mask()) {
    return Status::InvalidArgument("join tree does not cover all relations");
  }
  const double root_rows = graph.EstimateRows(mask);
  internal::PriceTail(spec, plan, model, root_rows,
                      TailOutputRows(spec, graph, root_rows),
                      MaskWidth(graph, mask), &demand);
  return PriceWithResidency(model, std::move(demand), resident_bytes,
                            plan.dop, plan.pstate);
}

/// One DP table entry: the best-priced join tree covering `mask`.
struct SubPlan {
  bool valid = false;
  int node = -1;  // arena index of this subtree's root
  ResourceEstimate demand;
  double resident_bytes = 0.0;
  double scalar = std::numeric_limits<double>::infinity();
};

/// Appends a join node for the (lmask, rmask) split to the arena: primary
/// edge = first crossing edge by spec order, oriented so left_key names a
/// left-subtree column; the rest become residual filter edges.
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

StatusOr<PhysicalPlan> Planner::ChooseJoinGraphPlan(
    const QuerySpec& spec, const Objective& objective) const {
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  const exec::CostConstants& k = model_->params().costs;
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
  std::vector<bool> topk_choices = {false};
  if (!spec.order_by.empty() && spec.limit.has_value()) {
    topk_choices.push_back(true);
  }

  std::optional<PhysicalPlan> best;
  for (int dop : options_.dops) {
    for (int pstate = 0; pstate < num_pstates; ++pstate) {
      // ---- DP over connected subgraphs at this (dop, pstate) ----
      std::vector<PlanJoinNode> arena;
      std::vector<SubPlan> subs(uint64_t{1} << n);
      for (int rel = 0; rel < n; ++rel) {
        SubPlan& leaf = subs[uint32_t{1} << rel];
        PlanJoinNode node;
        node.relation = rel;
        node.est_rows = graph.filtered_rows(rel);
        node.est_bytes = node.est_rows * graph.row_width(rel);
        arena.push_back(std::move(node));
        leaf.node = static_cast<int>(arena.size()) - 1;
        leaf.demand = LeafDemand(spec, graph, rel, k);
        leaf.scalar =
            PriceWithResidency(*model_, leaf.demand, 0.0, dop, pstate)
                .Scalarize(objective);
        leaf.valid = true;
      }
      // Ascending mask order is a valid DP order: every proper submask is
      // numerically smaller. The submask loop enumerates ordered (l, r)
      // pairs, so both hash-build orientations and bushy shapes are priced.
      for (uint32_t mask = 1; mask <= full; ++mask) {
        if (PopCount(mask) < 2) continue;
        SubPlan& entry = subs[mask];
        struct Best {
          uint32_t lmask = 0;
          JoinAlgorithm algo = JoinAlgorithm::kHash;
          ResourceEstimate demand;
          double resident_bytes = 0.0;
          double scalar = std::numeric_limits<double>::infinity();
        };
        std::optional<Best> winner;
        for (uint32_t l = (mask - 1) & mask; l != 0; l = (l - 1) & mask) {
          const uint32_t r = mask ^ l;
          const SubPlan& ls = subs[l];
          const SubPlan& rs = subs[r];
          if (!ls.valid || !rs.valid) continue;
          if (graph.CrossingEdgeIndexes(l, r).empty()) continue;
          const bool left_is_leaf = PopCount(l) == 1;
          for (JoinAlgorithm algo : algos) {
            ResourceEstimate demand = ls.demand;
            demand.Merge(rs.demand);
            double resident = ls.resident_bytes + rs.resident_bytes;
            int primary = -1;
            const Status st =
                AddJoinDemand(graph, algo, l, r, left_is_leaf, k, *model_,
                              &demand, &resident, &primary);
            if (!st.ok()) continue;
            const double scalar =
                PriceWithResidency(*model_, demand, resident, dop, pstate)
                    .Scalarize(objective);
            if (!winner.has_value() || scalar < winner->scalar) {
              winner = Best{l, algo, std::move(demand), resident, scalar};
            }
          }
        }
        if (!winner.has_value()) continue;
        entry.node =
            EmitJoinNode(graph, &arena, subs[winner->lmask].node,
                         subs[mask ^ winner->lmask].node, winner->algo,
                         winner->lmask, mask ^ winner->lmask);
        entry.demand = std::move(winner->demand);
        entry.resident_bytes = winner->resident_bytes;
        entry.scalar = winner->scalar;
        entry.valid = true;
      }
      if (!subs[full].valid) {
        return Status::Internal("join DP found no plan for a connected graph");
      }

      for (bool use_topk : topk_choices) {
        PhysicalPlan plan;
        plan.dop = dop;
        plan.pstate = pstate;
        plan.use_topk = use_topk;
        plan.join_root =
            CompactTree(arena, subs[full].node, &plan.join_nodes);
        plan.est_intermediate_bytes =
            SumIntermediateBytes(plan.join_nodes, plan.join_root);
        double output_rows =
            TailOutputRows(spec, graph, graph.EstimateRows(full));
        if (spec.limit.has_value()) {
          output_rows =
              std::min(output_rows, static_cast<double>(*spec.limit));
        }
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
  if (!best.has_value()) return Status::Internal("no N-way plan enumerated");
  return *best;
}

StatusOr<PlanCost> Planner::PriceJoinGraphPlan(const QuerySpec& spec,
                                               const PhysicalPlan& plan) const {
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  return PriceGraphPlan(spec, graph, plan, *model_);
}

namespace {

/// Recursive operator construction for one join-tree node.
StatusOr<exec::OperatorPtr> BuildJoinNode(const QuerySpec& spec,
                                          const PhysicalPlan& plan,
                                          int index) {
  using exec::OperatorPtr;
  if (index < 0 || index >= static_cast<int>(plan.join_nodes.size())) {
    return Status::InvalidArgument("join tree node index out of range");
  }
  const PlanJoinNode& node = plan.join_nodes[index];
  if (node.relation >= 0) {
    if (node.relation >= static_cast<int>(spec.relations.size())) {
      return Status::InvalidArgument("join tree leaf relation out of range");
    }
    const TableAlternatives& side = spec.relations[node.relation];
    const storage::TableStorage& t = *side.variants[0];
    // Same columns the estimator assumed (JoinGraph::Analyze enforces they
    // are computable from the spec alone, so recompute here).
    std::set<std::string> agg_cols;
    for (const std::string& g : spec.group_by) agg_cols.insert(g);
    for (const exec::AggregateItem& item : spec.aggregates) {
      exec::CollectColumns(item.input, &agg_cols);
    }
    std::set<std::string> needed;
    if (side.columns.empty()) {
      for (const catalog::Column& c : t.schema().columns()) {
        needed.insert(c.name);
      }
    } else {
      needed.insert(side.columns.begin(), side.columns.end());
    }
    exec::CollectColumns(side.filter, &needed);
    for (const JoinEdge& e : spec.edges) {
      if (e.left_rel == node.relation) needed.insert(e.left_key);
      if (e.right_rel == node.relation) needed.insert(e.right_key);
    }
    for (const std::string& name : agg_cols) {
      if (t.schema().FindColumn(name) >= 0) needed.insert(name);
    }
    std::vector<std::string> cols;
    for (const std::string& name : needed) {
      if (t.schema().FindColumn(name) >= 0) cols.push_back(name);
    }
    // Table scan with the exact filter fused in; also the morsel source
    // that lets a directly-attached hash join probe in parallel.
    return OperatorPtr(std::make_unique<exec::TableScanOp>(
        &t, cols, side.filter, side.filter));
  }

  ECODB_ASSIGN_OR_RETURN(OperatorPtr left,
                         BuildJoinNode(spec, plan, node.left));
  ECODB_ASSIGN_OR_RETURN(OperatorPtr right,
                         BuildJoinNode(spec, plan, node.right));
  OperatorPtr joined;
  switch (node.algo) {
    case JoinAlgorithm::kHash:
      joined = std::make_unique<exec::HashJoinOp>(
          std::move(left), std::move(right), node.left_key, node.right_key);
      break;
    case JoinAlgorithm::kMerge:
      joined = std::make_unique<exec::MergeJoinOp>(
          std::move(left), std::move(right), node.left_key, node.right_key);
      break;
    case JoinAlgorithm::kNestedLoop:
      // Column names are unique across relations (Analyze enforces it), so
      // the joined schema never renames and Col(right_key) resolves.
      joined = std::make_unique<exec::NestedLoopJoinOp>(
          std::move(left), std::move(right),
          exec::Col(node.left_key) == exec::Col(node.right_key));
      break;
    case JoinAlgorithm::kHashSwapped:
      return Status::InvalidArgument(
          "kHashSwapped is not valid in N-way join trees");
  }
  for (const JoinEdge& e : node.residual_edges) {
    joined = std::make_unique<exec::FilterOp>(
        std::move(joined), exec::Col(e.left_key) == exec::Col(e.right_key));
  }
  return joined;
}

}  // namespace

StatusOr<exec::OperatorPtr> Planner::BuildJoinGraphOperator(
    const QuerySpec& spec, const PhysicalPlan& plan) const {
  if (plan.join_root < 0 || plan.join_nodes.empty()) {
    return Status::InvalidArgument("N-way plan has no join tree");
  }
  ECODB_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                         BuildJoinNode(spec, plan, plan.join_root));
  return internal::FinishOperatorTree(spec, plan, std::move(root));
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
    join.algo = JoinAlgorithm::kHash;
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
