#include "optimizer/planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "optimizer/planner_internal.h"

#include "exec/filter_project.h"
#include "exec/index_scan.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "exec/topk.h"

namespace ecodb::optimizer {

using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;

const char* AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kTableScan:
      return "seq-scan";
    case AccessPath::kIndexScan:
      return "index-scan";
  }
  return "unknown";
}

const char* JoinAlgorithmName(JoinAlgorithm algo) {
  switch (algo) {
    case JoinAlgorithm::kHash:
      return "hash(build=right)";
    case JoinAlgorithm::kHashSwapped:
      return "hash(build=left)";
    case JoinAlgorithm::kMerge:
      return "sort-merge";
    case JoinAlgorithm::kNestedLoop:
      return "nested-loop";
  }
  return "unknown";
}

namespace internal {

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

double RowWidthOf(const storage::TableStorage& table,
                  const std::vector<std::string>& columns) {
  double width = 0.0;
  for (const std::string& name : columns) {
    const int i = table.schema().FindColumn(name);
    if (i >= 0) {
      const catalog::Column& c = table.schema().column(i);
      width += catalog::TypeWidthBytes(c.type, c.avg_width);
    }
  }
  return width;
}

ResourceEstimate PrunedScanDemand(const storage::TableStorage& table,
                                  const std::vector<int>& col_indexes,
                                  const exec::ExprPtr& filter,
                                  double decode_scale) {
  ResourceEstimate demand;
  const exec::ScanPruning pruning = exec::PruneScan(filter, table);
  const uint64_t bytes =
      exec::ScanTransferBytes(table, col_indexes, pruning.selected_fraction);
  if (bytes > 0 && table.device() != nullptr) {
    demand.device_bytes[table.device()] += bytes;
  }
  demand.cpu_instructions =
      exec::ScanDecodeInstructions(table, col_indexes,
                                   pruning.selected_fraction) *
      decode_scale;
  return demand;
}

void PriceTail(const QuerySpec& spec, const PhysicalPlan& plan,
               const CostModel& model, double in_rows, double output_rows,
               double input_width, ResourceEstimate* demand) {
  const exec::CostConstants& k = model.params().costs;
  if (!spec.aggregates.empty()) {
    // Group updates run in thread-local partials; the merged-table emission
    // is the coordinator's.
    demand->cpu_instructions += k.agg_update_per_row * in_rows;
    demand->serial_cpu_instructions += k.output_per_row * output_rows;
    demand->dram_traffic_bytes += static_cast<uint64_t>(output_rows * 64.0);
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
    if (plan.use_topk && spec.limit.has_value()) {
      // Fused top-k: O(n log k) comparisons, and only the k-row candidate
      // set is held (and, if even that overflows the budget, spilled) —
      // zero spill bytes whenever k rows fit the budget.
      const double limit_rows = static_cast<double>(*spec.limit);
      demand->Merge(model.SortDemand(n, spec.order_by.size(), limit_rows));
      const double kept_bytes = std::min(n, limit_rows) * width;
      demand->dram_traffic_bytes +=
          static_cast<uint64_t>(std::min(kept_bytes, budget));
      if (spec.sort_spill_device != nullptr && kept_bytes > budget) {
        demand->device_bytes[spec.sort_spill_device] +=
            static_cast<uint64_t>(2.0 * kept_bytes);
      }
    } else {
      demand->Merge(model.SortDemand(n, spec.order_by.size()));
      const double sort_bytes = n * width;
      demand->dram_traffic_bytes +=
          static_cast<uint64_t>(std::min(sort_bytes, budget));
      if (spec.sort_spill_device != nullptr && sort_bytes > budget) {
        // External spill: every run is written once and read back once.
        demand->device_bytes[spec.sort_spill_device] +=
            static_cast<uint64_t>(2.0 * sort_bytes);
      }
    }
  }
}

exec::OperatorPtr FinishOperatorTree(const QuerySpec& spec,
                                     const PhysicalPlan& plan,
                                     exec::OperatorPtr root) {
  if (!spec.aggregates.empty()) {
    root = std::make_unique<exec::HashAggregateOp>(
        std::move(root), spec.group_by, spec.aggregates);
  }

  bool limit_applied = false;
  if (!spec.order_by.empty()) {
    if (plan.use_topk && spec.limit.has_value()) {
      root = std::make_unique<exec::TopKOp>(
          std::move(root), spec.order_by, static_cast<size_t>(*spec.limit),
          spec.sort_memory_budget_bytes, spec.sort_spill_device);
      limit_applied = true;
    } else {
      root = std::make_unique<exec::SortOp>(std::move(root), spec.order_by,
                                            spec.sort_memory_budget_bytes,
                                            spec.sort_spill_device);
    }
  }
  if (spec.limit.has_value() && !limit_applied) {
    root = std::make_unique<exec::LimitOp>(
        std::move(root), static_cast<size_t>(*spec.limit));
  }
  return root;
}

}  // namespace internal

namespace {

using exec::CollectColumns;
using internal::PrunedScanDemand;
using internal::RowWidthOf;
using internal::ToIndexes;

/// Columns a scan of `table` must produce for this query.
std::vector<std::string> ScanColumnsFor(const TableAlternatives& table,
                                        const QuerySpec& spec,
                                        bool is_left) {
  const catalog::Schema& schema = table.variants[0]->schema();
  std::set<std::string> needed;
  if (table.columns.empty()) {
    for (const catalog::Column& c : schema.columns()) needed.insert(c.name);
  } else {
    needed.insert(table.columns.begin(), table.columns.end());
  }
  CollectColumns(table.filter, &needed);
  if (spec.right.has_value()) {
    needed.insert(is_left ? spec.left_key : spec.right_key);
  }
  // Group-by / aggregate inputs that live in this table's schema.
  std::set<std::string> agg_cols;
  for (const std::string& g : spec.group_by) agg_cols.insert(g);
  for (const exec::AggregateItem& item : spec.aggregates) {
    CollectColumns(item.input, &agg_cols);
  }
  for (const std::string& name : agg_cols) {
    if (schema.FindColumn(name) >= 0) needed.insert(name);
  }
  // Keep only columns that actually exist here.
  std::vector<std::string> out;
  for (const std::string& name : needed) {
    if (schema.FindColumn(name) >= 0) out.push_back(name);
  }
  return out;
}

/// Index-path demand: real index page walk + heap-page fetch estimate.
ResourceEstimate IndexScanDemand(const storage::TableStorage& table,
                                 const storage::BTreeIndex& index,
                                 int64_t lo, int64_t hi,
                                 double estimated_matches,
                                 size_t projected_columns) {
  ResourceEstimate demand;
  const double index_pages =
      static_cast<double>(index.PagesForRange(lo, hi));
  const double row_width =
      std::max(1, table.schema().RowWidthBytes());
  const double total_pages = std::max(
      1.0, static_cast<double>(table.row_count()) * row_width / 8192.0);
  // Coupon-collector estimate of distinct heap pages touched by m rows.
  const double heap_pages =
      total_pages * (1.0 - std::exp(-estimated_matches / total_pages));
  if (table.device() != nullptr) {
    demand.random_page_reads[table.device()] +=
        static_cast<uint64_t>(index_pages + heap_pages + 0.5);
  }
  demand.cpu_instructions =
      20.0 * static_cast<double>(index.height()) +
      estimated_matches * static_cast<double>(projected_columns);
  return demand;
}

}  // namespace

bool Planner::ExtractKeyRange(const ExprPtr& filter,
                              const std::string& column, int64_t* lo,
                              int64_t* hi) {
  if (filter == nullptr) return false;
  if (filter->kind() == ExprKind::kLogical &&
      filter->logical_op() == exec::LogicalOp::kAnd) {
    int64_t l1 = INT64_MIN, h1 = INT64_MAX, l2 = INT64_MIN, h2 = INT64_MAX;
    const bool a = ExtractKeyRange(filter->lhs(), column, &l1, &h1);
    const bool b = ExtractKeyRange(filter->rhs(), column, &l2, &h2);
    if (!a && !b) return false;
    *lo = std::max(l1, l2);
    *hi = std::min(h1, h2);
    return true;
  }
  if (filter->kind() != ExprKind::kCompare) return false;
  const ExprPtr& l = filter->lhs();
  const ExprPtr& r = filter->rhs();
  const bool col_lit =
      l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kLiteral;
  const bool lit_col =
      l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn;
  if (!col_lit && !lit_col) return false;
  const std::string& name = col_lit ? l->column_name() : r->column_name();
  if (name != column) return false;
  const exec::Value& lit = col_lit ? r->literal() : l->literal();
  if (!catalog::IsIntegerLike(lit.type)) return false;
  exec::CompareOp op = filter->compare_op();
  if (lit_col) {
    switch (op) {
      case exec::CompareOp::kLt:
        op = exec::CompareOp::kGt;
        break;
      case exec::CompareOp::kLe:
        op = exec::CompareOp::kGe;
        break;
      case exec::CompareOp::kGt:
        op = exec::CompareOp::kLt;
        break;
      case exec::CompareOp::kGe:
        op = exec::CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  *lo = INT64_MIN;
  *hi = INT64_MAX;
  switch (op) {
    case exec::CompareOp::kEq:
      *lo = *hi = lit.i64;
      return true;
    case exec::CompareOp::kLt:
      *hi = lit.i64 - 1;
      return true;
    case exec::CompareOp::kLe:
      *hi = lit.i64;
      return true;
    case exec::CompareOp::kGt:
      *lo = lit.i64 + 1;
      return true;
    case exec::CompareOp::kGe:
      *lo = lit.i64;
      return true;
    default:
      return false;
  }
}

namespace {

/// Renders the N-way join tree: leaves as `seq-scan(name)`, joins as
/// parenthesized `(left <algo> right)` with a `*` marking residual-edge
/// filters — the full tree, so bench output shows the chosen order.
std::string DescribeJoinNode(const QuerySpec& spec,
                             const std::vector<PlanJoinNode>& nodes,
                             int index) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) return "?";
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    const std::string name =
        node.relation < static_cast<int>(spec.relations.size())
            ? spec.relations[node.relation].name
            : "rel" + std::to_string(node.relation);
    return "seq-scan(" + name + ")";
  }
  std::string out = "(" + DescribeJoinNode(spec, nodes, node.left) + " " +
                    JoinAlgorithmName(node.algo);
  if (!node.residual_edges.empty()) out += "*";
  return out + " " + DescribeJoinNode(spec, nodes, node.right) + ")";
}

void CollectLeaves(const std::vector<PlanJoinNode>& nodes, int index,
                   std::vector<int>* out) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) return;
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    out->push_back(node.relation);
    return;
  }
  CollectLeaves(nodes, node.left, out);
  CollectLeaves(nodes, node.right, out);
}

}  // namespace

std::vector<int> PhysicalPlan::LeafOrder() const {
  std::vector<int> order;
  CollectLeaves(join_nodes, join_root, &order);
  return order;
}

std::string PhysicalPlan::Describe(const QuerySpec& spec) const {
  std::string out;
  if (!join_nodes.empty()) {
    out = DescribeJoinNode(spec, join_nodes, join_root);
  } else {
    out = std::string(AccessPathName(left_path)) + "(" + spec.left.name +
          " v" + std::to_string(left_variant) + ")";
    if (spec.right.has_value()) {
      out += " " + std::string(JoinAlgorithmName(join_algo)) + " " +
             AccessPathName(right_path) + "(" + spec.right->name + " v" +
             std::to_string(right_variant) + ")";
    }
  }
  if (!spec.aggregates.empty()) out += " -> aggregate";
  if (!spec.order_by.empty()) {
    if (use_topk && spec.limit.has_value()) {
      out += " -> topk(" + std::to_string(*spec.limit) + ")";
    } else {
      out += " -> sort";
      if (spec.limit.has_value()) {
        out += " -> limit(" + std::to_string(*spec.limit) + ")";
      }
    }
  } else if (spec.limit.has_value()) {
    out += " -> limit(" + std::to_string(*spec.limit) + ")";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " [dop=%d pstate=%d est %.3fs %.1fJ rows=%.0f]", dop, pstate,
                cost.seconds, cost.joules, output_rows);
  return out + buf;
}

Planner::Planner(CostModel* model, PlannerOptions options)
    : model_(model), options_(std::move(options)) {
  if (options_.dops.empty()) options_.dops = {1};
}

namespace {

/// A column-vs-literal inequality, normalized so the column is on the left
/// ("lit < col" becomes "col > lit"). `ok` is false for anything else.
struct RangeBound {
  std::string column;
  exec::CompareOp op = exec::CompareOp::kEq;
  double value = 0.0;
  bool ok = false;
};

RangeBound ExtractRangeBound(const ExprPtr& e) {
  RangeBound b;
  if (e == nullptr || e->kind() != ExprKind::kCompare) return b;
  const ExprPtr& l = e->lhs();
  const ExprPtr& r = e->rhs();
  const bool col_lit =
      l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kLiteral;
  const bool lit_col =
      l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn;
  if (!col_lit && !lit_col) return b;
  b.column = col_lit ? l->column_name() : r->column_name();
  b.op = e->compare_op();
  if (lit_col) {
    switch (b.op) {
      case exec::CompareOp::kLt:
        b.op = exec::CompareOp::kGt;
        break;
      case exec::CompareOp::kLe:
        b.op = exec::CompareOp::kGe;
        break;
      case exec::CompareOp::kGt:
        b.op = exec::CompareOp::kLt;
        break;
      case exec::CompareOp::kGe:
        b.op = exec::CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  switch (b.op) {
    case exec::CompareOp::kLt:
    case exec::CompareOp::kLe:
    case exec::CompareOp::kGt:
    case exec::CompareOp::kGe:
      break;
    default:
      return b;
  }
  b.value = (col_lit ? r->literal() : l->literal()).AsDouble();
  b.ok = true;
  return b;
}

/// Selectivity of `a AND b` when both are range bounds on the same numeric
/// column: the interval INTERSECTION under the uniform assumption, not the
/// product of two "independent" predicates. For a date band like
/// `d >= 900 AND d < 960` over a ~2555-day domain the difference is 2.3%
/// vs 24% — an order of magnitude, and exactly the shape every TPC-H date
/// window takes. Returns a negative sentinel when the pattern doesn't apply.
double BandSelectivity(const RangeBound& a, const RangeBound& b,
                       const catalog::Schema& schema,
                       const catalog::TableStats& stats) {
  if (!a.ok || !b.ok || a.column != b.column) return -1.0;
  const int idx = schema.FindColumn(a.column);
  if (idx < 0 || idx >= static_cast<int>(stats.columns.size())) return -1.0;
  const catalog::ColumnStats& cs = stats.columns[idx];
  const catalog::DataType t = schema.column(idx).type;
  double lo, hi;
  if (t == catalog::DataType::kDouble) {
    lo = cs.min_f64;
    hi = cs.max_f64;
  } else if (catalog::IsIntegerLike(t)) {
    lo = static_cast<double>(cs.min_i64);
    hi = static_cast<double>(cs.max_i64);
  } else {
    return -1.0;
  }
  if (hi <= lo) return -1.0;
  double lo_cut = 0.0, hi_cut = 1.0;
  for (const RangeBound* p : {&a, &b}) {
    const double frac = std::clamp((p->value - lo) / (hi - lo), 0.0, 1.0);
    if (p->op == exec::CompareOp::kLt || p->op == exec::CompareOp::kLe) {
      hi_cut = std::min(hi_cut, frac);
    } else {
      lo_cut = std::max(lo_cut, frac);
    }
  }
  return std::max(hi_cut - lo_cut, 0.0);
}

}  // namespace

double Planner::EstimateSelectivity(const ExprPtr& filter,
                                    const catalog::Schema& schema,
                                    const catalog::TableStats& stats) {
  if (filter == nullptr) return 1.0;
  switch (filter->kind()) {
    case ExprKind::kLogical: {
      if (filter->logical_op() == exec::LogicalOp::kAnd) {
        const double band =
            BandSelectivity(ExtractRangeBound(filter->lhs()),
                            ExtractRangeBound(filter->rhs()), schema, stats);
        if (band >= 0.0) return band;
      }
      const double a = EstimateSelectivity(filter->lhs(), schema, stats);
      const double b = EstimateSelectivity(filter->rhs(), schema, stats);
      return filter->logical_op() == exec::LogicalOp::kAnd
                 ? a * b
                 : a + b - a * b;
    }
    case ExprKind::kNot:
      return 1.0 - EstimateSelectivity(filter->lhs(), schema, stats);
    case ExprKind::kCompare: {
      // Column-vs-literal gets a range estimate; everything else defaults.
      const ExprPtr& l = filter->lhs();
      const ExprPtr& r = filter->rhs();
      const bool col_lit = l->kind() == ExprKind::kColumn &&
                           r->kind() == ExprKind::kLiteral;
      const bool lit_col = l->kind() == ExprKind::kLiteral &&
                           r->kind() == ExprKind::kColumn;
      if (!col_lit && !lit_col) return 0.33;
      const std::string& col_name =
          col_lit ? l->column_name() : r->column_name();
      const exec::Value& lit = col_lit ? r->literal() : l->literal();
      const int idx = schema.FindColumn(col_name);
      if (idx < 0 || idx >= static_cast<int>(stats.columns.size())) {
        return 0.33;
      }
      const catalog::ColumnStats& cs = stats.columns[idx];
      exec::CompareOp op = filter->compare_op();
      if (lit_col) {
        // Normalize "lit < col" to "col > lit" etc.
        switch (op) {
          case exec::CompareOp::kLt:
            op = exec::CompareOp::kGt;
            break;
          case exec::CompareOp::kLe:
            op = exec::CompareOp::kGe;
            break;
          case exec::CompareOp::kGt:
            op = exec::CompareOp::kLt;
            break;
          case exec::CompareOp::kGe:
            op = exec::CompareOp::kLe;
            break;
          default:
            break;
        }
      }
      if (op == exec::CompareOp::kEq) {
        return cs.distinct_values > 0
                   ? 1.0 / static_cast<double>(cs.distinct_values)
                   : 0.1;
      }
      if (op == exec::CompareOp::kNe) {
        return cs.distinct_values > 0
                   ? 1.0 - 1.0 / static_cast<double>(cs.distinct_values)
                   : 0.9;
      }
      // Range: interpolate within [min, max].
      double lo, hi, v;
      const catalog::DataType t = schema.column(idx).type;
      if (t == catalog::DataType::kDouble) {
        lo = cs.min_f64;
        hi = cs.max_f64;
        v = lit.AsDouble();
      } else if (catalog::IsIntegerLike(t)) {
        lo = static_cast<double>(cs.min_i64);
        hi = static_cast<double>(cs.max_i64);
        v = lit.AsDouble();
      } else {
        return 0.33;  // string range: no histogram
      }
      if (hi <= lo) return 0.5;
      const double frac = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
      switch (op) {
        case exec::CompareOp::kLt:
        case exec::CompareOp::kLe:
          return frac;
        case exec::CompareOp::kGt:
        case exec::CompareOp::kGe:
          return 1.0 - frac;
        default:
          return 0.33;
      }
    }
    default:
      return 0.33;
  }
}

StatusOr<Planner::Cardinalities> Planner::EstimateCardinalities(
    const QuerySpec& spec) const {
  if (spec.left.variants.empty()) {
    return Status::InvalidArgument("left table has no variants");
  }
  Cardinalities cards;

  catalog::TableStats lstats;
  if (spec.left.stats != nullptr) {
    lstats = *spec.left.stats;
  } else {
    ECODB_RETURN_IF_ERROR(spec.left.variants[0]->AnalyzeInto(&lstats));
  }
  const double lsel = EstimateSelectivity(
      spec.left.filter, spec.left.variants[0]->schema(), lstats);
  cards.left_rows =
      static_cast<double>(spec.left.variants[0]->row_count()) * lsel;

  if (!spec.right.has_value()) {
    cards.output_rows = cards.left_rows;
  } else {
    if (spec.right->variants.empty()) {
      return Status::InvalidArgument("right table has no variants");
    }
    catalog::TableStats rstats;
    if (spec.right->stats != nullptr) {
      rstats = *spec.right->stats;
    } else {
      ECODB_RETURN_IF_ERROR(spec.right->variants[0]->AnalyzeInto(&rstats));
    }
    const double rsel = EstimateSelectivity(
        spec.right->filter, spec.right->variants[0]->schema(), rstats);
    cards.right_rows =
        static_cast<double>(spec.right->variants[0]->row_count()) * rsel;

    // |L >< R| ~= |L| x |R| / max(ndv_l, ndv_r).
    const int lk = spec.left.variants[0]->schema().FindColumn(spec.left_key);
    const int rk =
        spec.right->variants[0]->schema().FindColumn(spec.right_key);
    if (lk < 0 || rk < 0) {
      return Status::NotFound("join key column missing from table schema");
    }
    const double ndv = std::max<double>(
        {1.0, static_cast<double>(lstats.columns[lk].distinct_values),
         static_cast<double>(rstats.columns[rk].distinct_values)});
    cards.join_rows = cards.left_rows * cards.right_rows / ndv;
    cards.output_rows = cards.join_rows;
  }

  if (!spec.aggregates.empty()) {
    // Output = number of groups; crude NDV product bound.
    double groups = 1.0;
    for (const std::string& g : spec.group_by) {
      double ndv = 16.0;
      const int li = spec.left.variants[0]->schema().FindColumn(g);
      if (li >= 0 &&
          li < static_cast<int>(lstats.columns.size())) {
        ndv = std::max<double>(
            1.0, static_cast<double>(lstats.columns[li].distinct_values));
      }
      groups *= ndv;
    }
    cards.output_rows = std::min(cards.output_rows,
                                 spec.group_by.empty() ? 1.0 : groups);
  }
  return cards;
}

StatusOr<PlanCost> Planner::PriceInternal(const QuerySpec& spec,
                                          const PhysicalPlan& plan,
                                          const Cardinalities& cards) const {
  const exec::CostConstants& k = model_->params().costs;
  ResourceEstimate demand;

  // Per-side access-path demand (seq scan with zone pruning, or index).
  auto side_demand = [&](const TableAlternatives& side, bool is_left,
                         int variant, AccessPath path, double out_rows) {
    const storage::TableStorage& t = *side.variants[variant];
    const std::vector<std::string> cols = ScanColumnsFor(side, spec, is_left);
    ResourceEstimate d;
    if (path == AccessPath::kIndexScan && side.index != nullptr) {
      int64_t lo = INT64_MIN, hi = INT64_MAX;
      if (ExtractKeyRange(side.filter, side.index_column, &lo, &hi)) {
        d = IndexScanDemand(t, *side.index, lo, hi, out_rows, cols.size());
        // Index descents are pointer chases on one core; the executor does
        // not parallelize this path.
        d.serial_cpu_instructions = d.cpu_instructions;
        d.cpu_instructions = 0.0;
        // Exact residual filtering over the fetched rows.
        if (side.filter != nullptr) {
          d.serial_cpu_instructions +=
              side.filter->InstructionsPerRow() * out_rows;
        }
        return d;
      }
    }
    d = PrunedScanDemand(t, ToIndexes(t.schema(), cols), side.filter,
                         k.decode_scale);
    if (side.filter != nullptr) {
      d.cpu_instructions += side.filter->InstructionsPerRow() *
                            static_cast<double>(t.row_count());
    }
    return d;
  };

  demand.Merge(side_demand(spec.left, true, plan.left_variant,
                           plan.left_path, cards.left_rows));

  double resident_bytes = 0.0;

  if (spec.right.has_value()) {
    const storage::TableStorage& lt = *spec.left.variants[plan.left_variant];
    const storage::TableStorage& rt =
        *spec.right->variants[plan.right_variant];
    const std::vector<std::string> lcols =
        ScanColumnsFor(spec.left, spec, true);
    const std::vector<std::string> rcols =
        ScanColumnsFor(*spec.right, spec, false);
    demand.Merge(side_demand(*spec.right, false, plan.right_variant,
                             plan.right_path, cards.right_rows));

    const double lrows = cards.left_rows;
    const double rrows = cards.right_rows;
    const double lwidth = RowWidthOf(lt, lcols);
    const double rwidth = RowWidthOf(rt, rcols);
    // Serial vs parallel attribution mirrors the executor: hash builds,
    // sorts, and nested-loop emission run on one core; the hash probe runs
    // morsel-parallel over the left scan.
    switch (plan.join_algo) {
      case JoinAlgorithm::kHash: {
        const double build_bytes = rrows * (rwidth + 32.0);
        demand.serial_cpu_instructions += k.hash_build_per_row * rrows;
        demand.cpu_instructions += k.hash_probe_per_row * lrows +
                                   k.output_per_row * cards.join_rows;
        demand.dram_traffic_bytes += static_cast<uint64_t>(build_bytes);
        resident_bytes += build_bytes;
        break;
      }
      case JoinAlgorithm::kHashSwapped: {
        const double build_bytes = lrows * (lwidth + 32.0);
        demand.serial_cpu_instructions += k.hash_build_per_row * lrows;
        demand.cpu_instructions += k.hash_probe_per_row * rrows +
                                   k.output_per_row * cards.join_rows;
        demand.dram_traffic_bytes += static_cast<uint64_t>(build_bytes);
        resident_bytes += build_bytes;
        break;
      }
      case JoinAlgorithm::kMerge: {
        // Both inputs sort under the external-sort model (run formation and
        // merge fan-in parallelize; see CostModel::SortDemand) — total
        // comparison work still n·log2(n) per side, only its Amdahl split
        // changed. The merge walk and output emission stay serial.
        demand.Merge(model_->SortDemand(lrows, 1));
        demand.Merge(model_->SortDemand(rrows, 1));
        demand.serial_cpu_instructions +=
            2.0 * (lrows + rrows) + k.output_per_row * cards.join_rows;
        break;
      }
      case JoinAlgorithm::kNestedLoop: {
        demand.serial_cpu_instructions +=
            k.nl_join_inner_per_pair * lrows * rrows +
            k.output_per_row * cards.join_rows;
        break;
      }
    }
  }

  // Post-join tail (aggregate / sort / top-k), shared with the N-way path.
  double input_width = RowWidthOf(*spec.left.variants[plan.left_variant],
                                  ScanColumnsFor(spec.left, spec, true));
  if (spec.right.has_value()) {
    input_width += RowWidthOf(*spec.right->variants[plan.right_variant],
                              ScanColumnsFor(*spec.right, spec, false));
  }
  internal::PriceTail(spec, plan, *model_,
                      spec.right.has_value() ? cards.join_rows
                                             : cards.left_rows,
                      cards.output_rows, input_width, &demand);

  // Two-phase pricing: residency energy needs the plan duration.
  PlanCost cost = model_->Price(demand, plan.dop, plan.pstate);
  if (resident_bytes > 0) {
    demand.resident_byte_seconds = resident_bytes * cost.seconds;
    cost = model_->Price(demand, plan.dop, plan.pstate);
  }
  return cost;
}

StatusOr<PlanCost> Planner::PricePlan(const QuerySpec& spec,
                                      const PhysicalPlan& plan) const {
  if (!spec.relations.empty()) return PriceJoinGraphPlan(spec, plan);
  ECODB_ASSIGN_OR_RETURN(Cardinalities cards, EstimateCardinalities(spec));
  return PriceInternal(spec, plan, cards);
}

StatusOr<PhysicalPlan> Planner::ChoosePlan(const QuerySpec& spec,
                                           const Objective& objective) const {
  if (!spec.relations.empty()) return ChooseJoinGraphPlan(spec, objective);
  ECODB_ASSIGN_OR_RETURN(Cardinalities cards, EstimateCardinalities(spec));

  std::vector<JoinAlgorithm> algos;
  if (!spec.right.has_value()) {
    algos = {JoinAlgorithm::kHash};  // placeholder; unused without a join
  } else if (options_.enumerate_join_algorithms) {
    algos = {JoinAlgorithm::kHash, JoinAlgorithm::kHashSwapped,
             JoinAlgorithm::kMerge, JoinAlgorithm::kNestedLoop};
  } else {
    algos = {JoinAlgorithm::kHash};
  }
  const int num_pstates =
      options_.enumerate_pstates ? model_->platform()->cpu().num_pstates()
                                 : 1;

  auto paths_for = [](const TableAlternatives& side) {
    std::vector<AccessPath> paths = {AccessPath::kTableScan};
    int64_t lo, hi;
    if (side.index != nullptr && !side.index_column.empty() &&
        Planner::ExtractKeyRange(side.filter, side.index_column, &lo, &hi)) {
      paths.push_back(AccessPath::kIndexScan);
    }
    return paths;
  };
  const std::vector<AccessPath> left_paths = paths_for(spec.left);
  const std::vector<AccessPath> right_paths =
      spec.right.has_value() ? paths_for(*spec.right)
                             : std::vector<AccessPath>{AccessPath::kTableScan};

  // ORDER BY + LIMIT adds the fused top-k as a priced alternative: it wins
  // at small k (bounded heap, no spill) and loses at k ~ n (the candidate
  // merge covers all rows serially), so the fallback rule is purely
  // cost-based.
  std::vector<bool> topk_choices = {false};
  if (!spec.order_by.empty() && spec.limit.has_value()) {
    topk_choices.push_back(true);
  }

  double output_rows = cards.output_rows;
  if (spec.limit.has_value()) {
    output_rows =
        std::min(output_rows, static_cast<double>(*spec.limit));
  }

  std::optional<PhysicalPlan> best;
  for (size_t lv = 0; lv < spec.left.variants.size(); ++lv) {
    const size_t rv_count =
        spec.right.has_value() ? spec.right->variants.size() : 1;
    for (size_t rv = 0; rv < rv_count; ++rv) {
      for (AccessPath lp : left_paths) {
        for (AccessPath rp : right_paths) {
          for (JoinAlgorithm algo : algos) {
            for (int dop : options_.dops) {
              for (int p = 0; p < num_pstates; ++p) {
                for (bool use_topk : topk_choices) {
                  PhysicalPlan plan;
                  plan.left_variant = static_cast<int>(lv);
                  plan.right_variant = static_cast<int>(rv);
                  plan.left_path = lp;
                  plan.right_path = rp;
                  plan.join_algo = algo;
                  plan.dop = dop;
                  plan.pstate = p;
                  plan.use_topk = use_topk;
                  plan.output_rows = output_rows;
                  ECODB_ASSIGN_OR_RETURN(plan.cost,
                                         PriceInternal(spec, plan, cards));
                  if (!best.has_value() ||
                      plan.cost.Scalarize(objective) <
                          best->cost.Scalarize(objective)) {
                    best = plan;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  if (!best.has_value()) return Status::Internal("no plan enumerated");
  return *best;
}

StatusOr<exec::OperatorPtr> Planner::BuildOperator(
    const QuerySpec& spec, const PhysicalPlan& plan) const {
  using exec::OperatorPtr;

  if (!spec.relations.empty()) return BuildJoinGraphOperator(spec, plan);

  auto build_side = [&](const TableAlternatives& side, bool is_left,
                        int variant, AccessPath path) -> OperatorPtr {
    const storage::TableStorage& t = *side.variants[variant];
    const std::vector<std::string> cols = ScanColumnsFor(side, spec, is_left);
    int64_t lo = INT64_MIN, hi = INT64_MAX;
    if (path == AccessPath::kIndexScan && side.index != nullptr &&
        ExtractKeyRange(side.filter, side.index_column, &lo, &hi)) {
      OperatorPtr scan =
          std::make_unique<exec::IndexScanOp>(&t, side.index, cols, lo, hi);
      if (side.filter != nullptr) {
        scan = std::make_unique<exec::FilterOp>(std::move(scan), side.filter);
      }
      return scan;
    }
    // Table scan with zone-map pruning and the exact filter fused in.
    return std::make_unique<exec::TableScanOp>(&t, cols, side.filter,
                                               side.filter);
  };

  const storage::TableStorage& lt = *spec.left.variants[plan.left_variant];
  OperatorPtr root =
      build_side(spec.left, true, plan.left_variant, plan.left_path);
  if (spec.right.has_value()) {
    OperatorPtr right = build_side(*spec.right, false, plan.right_variant,
                                   plan.right_path);
    switch (plan.join_algo) {
      case JoinAlgorithm::kHash:
        root = std::make_unique<exec::HashJoinOp>(
            std::move(root), std::move(right), spec.left_key,
            spec.right_key);
        break;
      case JoinAlgorithm::kHashSwapped:
        // Build on the left: swap children and key roles.
        root = std::make_unique<exec::HashJoinOp>(
            std::move(right), std::move(root), spec.right_key,
            spec.left_key);
        break;
      case JoinAlgorithm::kMerge:
        root = std::make_unique<exec::MergeJoinOp>(
            std::move(root), std::move(right), spec.left_key,
            spec.right_key);
        break;
      case JoinAlgorithm::kNestedLoop: {
        // Predicate over the joined schema; the right key is renamed when
        // it collides with a left column.
        std::string rk = spec.right_key;
        if (lt.schema().FindColumn(rk) >= 0 ||
            spec.left.variants[plan.left_variant]
                    ->schema()
                    .FindColumn(rk) >= 0) {
          rk += "_r";
        }
        root = std::make_unique<exec::NestedLoopJoinOp>(
            std::move(root), std::move(right),
            exec::Col(spec.left_key) == exec::Col(rk));
        break;
      }
    }
  }

  return internal::FinishOperatorTree(spec, plan, std::move(root));
}

std::vector<int> DopLadder(int max_dop) {
  std::vector<int> dops;
  for (int d = 1; d <= std::max(1, max_dop); d *= 2) dops.push_back(d);
  if (dops.back() != max_dop && max_dop > 1) dops.push_back(max_dop);
  return dops;
}

std::vector<int> PlatformDopLadder(const power::HardwarePlatform& platform) {
  return DopLadder(platform.cpu().total_cores());
}

}  // namespace ecodb::optimizer
