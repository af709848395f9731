#include "tpch/workload.h"

#include <string>
#include <utility>

#include "exec/aggregate.h"
#include "tpch/generator.h"

namespace ecodb::tpch {

namespace {

using exec::AggFunc;
using exec::And;
using exec::Col;
using exec::Lit;
using exec::LitDate;
using optimizer::PlanJoinNode;
using optimizer::TableAlternatives;
using ScanRequest = sched::SessionManager::ScanRequest;

TableAlternatives Rel(const char* name, const storage::TableStorage* table,
                      std::vector<std::string> columns,
                      exec::ExprPtr filter = nullptr) {
  TableAlternatives rel;
  rel.name = name;
  rel.variants = {table};
  rel.columns = std::move(columns);
  rel.filter = std::move(filter);
  return rel;
}

/// The requests for the shared-scan manager: one per table-scan leaf of
/// `q`'s plan, with the columns the leaf scans.
StatusOr<std::vector<ScanRequest>> ScanRequestsOf(const ServingQuery& q) {
  ECODB_ASSIGN_OR_RETURN(std::vector<optimizer::TableScanLeaf> leaves,
                         optimizer::Planner::TableScanLeaves(q.spec, q.plan));
  std::vector<ScanRequest> scans;
  for (optimizer::TableScanLeaf& leaf : leaves) {
    scans.push_back({leaf.table, std::move(leaf.columns)});
  }
  return scans;
}

/// A table scan of relation `rel`'s only variant.
PlanJoinNode ScanLeaf(int rel) {
  PlanJoinNode leaf;
  leaf.relation = rel;
  return leaf;
}

/// The substitution rule: `query_class` picks one of three shapes, `param`
/// one of kStreams streams; the pair's index is shape · kStreams + stream.
constexpr int kStreams = 8;
int QueryIndex(int query_class, int64_t param) {
  return (((query_class % 3) + 3) % 3) * kStreams +
         static_cast<int>(((param % kStreams) + kStreams) % kStreams);
}

}  // namespace

ServingQuery MakeServingQuery(const storage::TableStorage* orders,
                              const storage::TableStorage* lineitem,
                              int query_class, int64_t param) {
  const int index = QueryIndex(query_class, param);
  const int stream = index % kStreams;
  constexpr int64_t kYear = 365;

  ServingQuery q;
  q.shape = index / kStreams;
  optimizer::QuerySpec& spec = q.spec;
  switch (q.shape) {
    case 0:
      spec.relations = {Rel("lineitem", lineitem,
                            {"l_returnflag", "l_quantity", "l_extendedprice",
                             "l_discount"},
                            Col("l_shipdate") <=
                                LitDate(kDateEpochStart + kDateRangeDays -
                                        90 - 30 * stream))};
      spec.group_by = {"l_returnflag"};
      spec.aggregates = {
          {"sum_qty", AggFunc::kSum, Col("l_quantity")},
          {"sum_base_price", AggFunc::kSum, Col("l_extendedprice")},
          {"sum_disc_price", AggFunc::kSum,
           Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))},
          {"avg_qty", AggFunc::kAvg, Col("l_quantity")},
          {"count_order", AggFunc::kCount, nullptr},
      };
      break;
    case 1: {
      const int64_t lo = kDateEpochStart + (stream % 5) * kYear;
      spec.relations = {Rel(
          "lineitem", lineitem, {"l_extendedprice", "l_discount"},
          And(And(Col("l_shipdate") >= LitDate(lo),
                  Col("l_shipdate") < LitDate(lo + kYear)),
              And(And(Col("l_discount") >= Lit(0.02),
                      Col("l_discount") <= Lit(0.09)),
                  Col("l_quantity") < Lit(25.0 + stream))))};
      spec.aggregates = {{"revenue", AggFunc::kSum,
                          Col("l_extendedprice") * Col("l_discount")}};
      break;
    }
    default:
      spec.relations = {
          Rel("lineitem", lineitem,
              {"l_orderkey", "l_extendedprice", "l_discount"}),
          Rel("orders", orders, {"o_orderkey", "o_shippriority"},
              Col("o_orderdate") < LitDate(kDateEpochStart +
                                           kDateRangeDays / 2 + 60 * stream)),
      };
      spec.edges = {{0, 1, "l_orderkey", "o_orderkey"}};
      spec.group_by = {"o_shippriority"};
      spec.aggregates = {
          {"revenue", AggFunc::kSum,
           Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))},
          {"count_items", AggFunc::kCount, nullptr},
      };
      break;
  }

  q.plan.join_nodes = {ScanLeaf(0)};
  if (!spec.edges.empty()) {
    // A hash join that probes with lineitem (the large side) and builds on
    // the filtered orders.
    PlanJoinNode join;
    join.left = 0;
    join.right = 1;
    join.left_key = spec.edges[0].left_key;
    join.right_key = spec.edges[0].right_key;
    q.plan.join_nodes.push_back(ScanLeaf(1));
    q.plan.join_nodes.push_back(std::move(join));
  }
  q.plan.join_root = static_cast<int>(q.plan.join_nodes.size()) - 1;
  return q;
}

sched::SessionManager::QueryFactory MakeServingFactory(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem) {
  // Each query, and the scan requests read off its plan, is built once;
  // a request builds only its tree, which shares the query's spec.
  std::vector<ServingQuery> queries;  // by QueryIndex
  std::vector<StatusOr<std::vector<ScanRequest>>> scans;
  for (int i = 0; i < 3 * kStreams; ++i) {
    queries.push_back(
        MakeServingQuery(orders, lineitem, i / kStreams, i % kStreams));
    scans.push_back(ScanRequestsOf(queries.back()));
  }
  return [queries = std::move(queries), scans = std::move(scans)](
             const sim::TraceRequest& req)
             -> StatusOr<sched::SessionManager::PlannedQuery> {
    const int i = QueryIndex(req.query_class, req.param);
    sched::SessionManager::PlannedQuery pq;
    ECODB_ASSIGN_OR_RETURN(pq.root, optimizer::Planner::BuildOperator(
                                        queries[i].spec, queries[i].plan));
    ECODB_ASSIGN_OR_RETURN(pq.scans, scans[i]);
    return pq;
  };
}

StatusOr<std::vector<exec::OperatorPtr>> MakeThroughputStream(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int stream_index) {
  std::vector<exec::OperatorPtr> queries;
  for (int query_class = 0; query_class < 3; ++query_class) {
    const ServingQuery q =
        MakeServingQuery(orders, lineitem, query_class, stream_index);
    ECODB_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                           optimizer::Planner::BuildOperator(q.spec, q.plan));
    queries.push_back(std::move(root));
  }
  return queries;
}

StatusOr<ThroughputResult> RunThroughputTest(
    power::HardwarePlatform* platform, const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int streams,
    const exec::ExecOptions& exec_options) {
  ECODB_RETURN_IF_ERROR(
      exec::ValidateExecOptions(exec_options, platform->cpu()));
  ThroughputResult result;
  const power::MeterSnapshot start = platform->meter()->Snapshot();
  const double t0 = platform->clock()->now();

  for (int s = 0; s < streams; ++s) {
    ECODB_ASSIGN_OR_RETURN(std::vector<exec::OperatorPtr> queries,
                           MakeThroughputStream(orders, lineitem, s));
    for (exec::OperatorPtr& q : queries) {
      exec::ExecContext ctx(platform, exec_options);
      ECODB_ASSIGN_OR_RETURN(exec::QueryResultSet rs,
                             exec::CollectAll(q.get(), &ctx));
      const exec::QueryStats stats = ctx.Finish();
      result.rows_emitted += stats.rows_emitted;
      result.io_bytes += stats.io_bytes;
      result.cpu_core_seconds += stats.cpu_seconds;
      ++result.queries_completed;
    }
  }

  const power::MeterSnapshot end = platform->meter()->Snapshot();
  result.elapsed_seconds = platform->clock()->now() - t0;
  result.joules = platform->BreakdownBetween(start, end).it_joules;
  return result;
}

}  // namespace ecodb::tpch
