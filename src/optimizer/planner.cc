#include "optimizer/planner.h"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace ecodb::optimizer {

using exec::ColumnCompare;
using exec::ExprKind;
using exec::ExprPtr;
using exec::NormalizeColumnCompare;

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
    case JoinAlgorithm::kMerge:
      return "sort-merge";
    case JoinAlgorithm::kNestedLoop:
      return "nested-loop";
  }
  return "unknown";
}

namespace {

bool IsRangeOp(exec::CompareOp op) {
  return op == exec::CompareOp::kLt || op == exec::CompareOp::kLe ||
         op == exec::CompareOp::kGt || op == exec::CompareOp::kGe;
}

/// Selectivity of `a AND b` when both are range bounds on the same numeric
/// column: the interval INTERSECTION under the uniform assumption, not the
/// product of two "independent" predicates. For a date band like
/// `d >= 900 AND d < 960` over a ~2555-day domain the difference is 2.3%
/// vs 24% — an order of magnitude, and exactly the shape every TPC-H date
/// window takes. Returns a negative sentinel when the pattern doesn't apply.
double BandSelectivity(const std::optional<ColumnCompare>& a,
                       const std::optional<ColumnCompare>& b,
                       const catalog::Schema& schema,
                       const catalog::TableStats& stats) {
  if (!a.has_value() || !b.has_value() || !IsRangeOp(a->op) ||
      !IsRangeOp(b->op) || a->column != b->column) {
    return -1.0;
  }
  const int idx = schema.FindColumn(a->column);
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
  for (const ColumnCompare* p : {&*a, &*b}) {
    const double frac =
        std::clamp((p->literal.AsDouble() - lo) / (hi - lo), 0.0, 1.0);
    if (p->op == exec::CompareOp::kLt || p->op == exec::CompareOp::kLe) {
      hi_cut = std::min(hi_cut, frac);
    } else {
      lo_cut = std::max(lo_cut, frac);
    }
  }
  return std::max(hi_cut - lo_cut, 0.0);
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
  const std::optional<ColumnCompare> c = NormalizeColumnCompare(filter);
  if (!c.has_value() || c->column != column ||
      !catalog::IsIntegerLike(c->literal.type)) {
    return false;
  }
  const int64_t lit = c->literal.i64;
  *lo = INT64_MIN;
  *hi = INT64_MAX;
  switch (c->op) {
    case exec::CompareOp::kEq:
      *lo = *hi = lit;
      return true;
    case exec::CompareOp::kLt:
      if (lit == INT64_MIN) {  // no key lies below it: the empty range
        *lo = INT64_MAX;
        *hi = INT64_MIN;
      } else {
        *hi = lit - 1;
      }
      return true;
    case exec::CompareOp::kLe:
      *hi = lit;
      return true;
    case exec::CompareOp::kGt:
      if (lit == INT64_MAX) {  // no key lies above it: the empty range
        *lo = INT64_MAX;
        *hi = INT64_MIN;
      } else {
        *lo = lit + 1;
      }
      return true;
    case exec::CompareOp::kGe:
      *lo = lit;
      return true;
    default:
      return false;
  }
}

namespace {

/// Renders the join tree: every leaf as `<access path>(<relation> v<variant>)`,
/// joins as parenthesized `(left <algo> right)` with a `*` marking
/// residual edges — the full tree, so bench output shows the chosen order.
std::string DescribeJoinNode(const QuerySpec& spec,
                             const std::vector<PlanJoinNode>& nodes,
                             int index) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) return "?";
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    const std::span<const TableAlternatives> rels = spec.Relations();
    const std::string name =
        node.relation < static_cast<int>(rels.size())
            ? rels[node.relation].name
            : "rel" + std::to_string(node.relation);
    return std::string(AccessPathName(node.path)) + "(" + name + " v" +
           std::to_string(node.variant) + ")";
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
  std::string out = DescribeJoinNode(spec, join_nodes, join_root);
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

double Planner::EstimateSelectivity(const ExprPtr& filter,
                                    const catalog::Schema& schema,
                                    const catalog::TableStats& stats) {
  if (filter == nullptr) return 1.0;
  switch (filter->kind()) {
    case ExprKind::kLogical: {
      if (filter->logical_op() == exec::LogicalOp::kAnd) {
        const double band =
            BandSelectivity(NormalizeColumnCompare(filter->lhs()),
                            NormalizeColumnCompare(filter->rhs()), schema,
                            stats);
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
      const std::optional<ColumnCompare> c = NormalizeColumnCompare(filter);
      if (!c.has_value()) return 0.33;
      const int idx = schema.FindColumn(c->column);
      if (idx < 0 || idx >= static_cast<int>(stats.columns.size())) {
        return 0.33;
      }
      const catalog::ColumnStats& cs = stats.columns[idx];
      const exec::CompareOp op = c->op;
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
      double lo, hi;
      const catalog::DataType t = schema.column(idx).type;
      if (t == catalog::DataType::kDouble) {
        lo = cs.min_f64;
        hi = cs.max_f64;
      } else if (catalog::IsIntegerLike(t)) {
        lo = static_cast<double>(cs.min_i64);
        hi = static_cast<double>(cs.max_i64);
      } else {
        return 0.33;  // string range: no histogram
      }
      if (hi <= lo) return 0.5;
      const double frac =
          std::clamp((c->literal.AsDouble() - lo) / (hi - lo), 0.0, 1.0);
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
