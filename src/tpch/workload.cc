#include "tpch/workload.h"

#include "exec/aggregate.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "tpch/generator.h"

namespace ecodb::tpch {

using exec::AggFunc;
using exec::AggregateItem;
using exec::And;
using exec::Col;
using exec::Lit;
using exec::LitDate;
using exec::OperatorPtr;

OperatorPtr MakePricingSummaryQuery(const storage::TableStorage* lineitem,
                                    int64_t ship_date_cutoff) {
  OperatorPtr scan = std::make_unique<exec::TableScanOp>(
      lineitem,
      std::vector<std::string>{"l_returnflag", "l_quantity",
                               "l_extendedprice", "l_discount",
                               "l_shipdate"},
      /*prune_filter=*/nullptr,
      Col("l_shipdate") <= LitDate(ship_date_cutoff));
  std::vector<AggregateItem> aggs;
  aggs.push_back({"sum_qty", AggFunc::kSum, Col("l_quantity")});
  aggs.push_back({"sum_base_price", AggFunc::kSum, Col("l_extendedprice")});
  aggs.push_back({"sum_disc_price", AggFunc::kSum,
                  Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))});
  aggs.push_back({"avg_qty", AggFunc::kAvg, Col("l_quantity")});
  aggs.push_back({"count_order", AggFunc::kCount, nullptr});
  return std::make_unique<exec::HashAggregateOp>(
      std::move(scan), std::vector<std::string>{"l_returnflag"},
      std::move(aggs));
}

OperatorPtr MakeRevenueQuery(const storage::TableStorage* lineitem,
                             int64_t date_lo, int64_t date_hi,
                             double discount_lo, double discount_hi,
                             double quantity_cap) {
  exec::ExprPtr pred =
      And(And(Col("l_shipdate") >= LitDate(date_lo),
              Col("l_shipdate") < LitDate(date_hi)),
          And(And(Col("l_discount") >= Lit(discount_lo),
                  Col("l_discount") <= Lit(discount_hi)),
              Col("l_quantity") < Lit(quantity_cap)));
  OperatorPtr scan = std::make_unique<exec::TableScanOp>(
      lineitem,
      std::vector<std::string>{"l_quantity", "l_extendedprice", "l_discount",
                               "l_shipdate"},
      /*prune_filter=*/nullptr, std::move(pred));
  std::vector<AggregateItem> aggs;
  aggs.push_back({"revenue", AggFunc::kSum,
                  Col("l_extendedprice") * Col("l_discount")});
  return std::make_unique<exec::HashAggregateOp>(
      std::move(scan), std::vector<std::string>{}, std::move(aggs));
}

OperatorPtr MakeOrderRevenueQuery(const storage::TableStorage* orders,
                                  const storage::TableStorage* lineitem,
                                  int64_t order_date_cutoff) {
  OperatorPtr oscan = std::make_unique<exec::TableScanOp>(
      orders,
      std::vector<std::string>{"o_orderkey", "o_orderdate",
                               "o_shippriority"},
      /*prune_filter=*/nullptr,
      Col("o_orderdate") < LitDate(order_date_cutoff));
  OperatorPtr lscan = std::make_unique<exec::TableScanOp>(
      lineitem,
      std::vector<std::string>{"l_orderkey", "l_extendedprice",
                               "l_discount"});
  // Probe with lineitem (large side), build on filtered orders.
  OperatorPtr join = std::make_unique<exec::HashJoinOp>(
      std::move(lscan), std::move(oscan), "l_orderkey", "o_orderkey");
  std::vector<AggregateItem> aggs;
  aggs.push_back({"revenue", AggFunc::kSum,
                  Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))});
  aggs.push_back({"count_items", AggFunc::kCount, nullptr});
  return std::make_unique<exec::HashAggregateOp>(
      std::move(join), std::vector<std::string>{"o_shippriority"},
      std::move(aggs));
}

sched::SessionManager::QueryFactory MakeServingFactory(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem) {
  return [orders, lineitem](const sim::TraceRequest& req)
             -> StatusOr<sched::SessionManager::PlannedQuery> {
    const int shape = static_cast<int>(((req.query_class % 3) + 3) % 3);
    const int stream = static_cast<int>(((req.param % 8) + 8) % 8);
    const int64_t base = kDateEpochStart;
    const int64_t year = 365;

    auto columns = [](const storage::TableStorage* table,
                      std::initializer_list<const char*> names) {
      std::vector<int> idx;
      for (const char* name : names) {
        idx.push_back(table->schema().FindColumn(name));
      }
      return idx;
    };

    sched::SessionManager::PlannedQuery pq;
    switch (shape) {
      case 0:
        pq.root = MakePricingSummaryQuery(
            lineitem, kDateEpochStart + kDateRangeDays - 90 - 30 * stream);
        pq.scans.push_back(
            {lineitem,
             columns(lineitem, {"l_returnflag", "l_quantity", "l_extendedprice",
                                "l_discount", "l_shipdate"})});
        break;
      case 1: {
        const int64_t lo = base + (stream % 5) * year;
        pq.root = MakeRevenueQuery(lineitem, lo, lo + year, 0.02, 0.09,
                                   25.0 + stream);
        pq.scans.push_back(
            {lineitem, columns(lineitem, {"l_quantity", "l_extendedprice",
                                          "l_discount", "l_shipdate"})});
        break;
      }
      default:
        pq.root = MakeOrderRevenueQuery(
            orders, lineitem, base + kDateRangeDays / 2 + 60 * stream);
        pq.scans.push_back(
            {orders,
             columns(orders, {"o_orderkey", "o_orderdate", "o_shippriority"})});
        pq.scans.push_back(
            {lineitem, columns(lineitem, {"l_orderkey", "l_extendedprice",
                                          "l_discount"})});
        break;
    }
    return pq;
  };
}

std::vector<OperatorPtr> MakeThroughputStream(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int stream_index) {
  std::vector<OperatorPtr> queries;
  const int64_t base = kDateEpochStart;
  const int64_t year = 365;
  const int64_t cutoff = base + kDateRangeDays - 90 - 30 * stream_index;
  queries.push_back(MakePricingSummaryQuery(lineitem, cutoff));
  const int64_t lo = base + (stream_index % 5) * year;
  queries.push_back(MakeRevenueQuery(lineitem, lo, lo + year, 0.02, 0.09,
                                     25.0 + stream_index));
  queries.push_back(MakeOrderRevenueQuery(
      orders, lineitem, base + kDateRangeDays / 2 + 60 * stream_index));
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
    std::vector<OperatorPtr> queries =
        MakeThroughputStream(orders, lineitem, s);
    for (OperatorPtr& q : queries) {
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
