// The TPC-H-like "throughput test" workload of Figure 1.
//
// "The throughput test issues a mixture of TPC-H queries simultaneously
// from multiple clients to the system." We reproduce the mixture's
// character with three query shapes over LINEITEM/ORDERS:
//   * a pricing-summary aggregate (Q1-flavored): scan + filter + group-by
//   * a revenue-forecast filter-sum (Q6-flavored): scan + range filters
//   * a customer-order join (Q3-flavored): ORDERS >< LINEITEM + aggregate
// All three are scan-dominated, so at low disk counts the array is the
// bottleneck; at high counts the CPU is — the crossover drives Figure 1.

#ifndef ECODB_TPCH_WORKLOAD_H_
#define ECODB_TPCH_WORKLOAD_H_

#include <functional>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "sched/session.h"
#include "storage/table_storage.h"
#include "util/status.h"

namespace ecodb::tpch {

/// Builds the Q1-flavored pricing-summary plan over `lineitem`.
exec::OperatorPtr MakePricingSummaryQuery(
    const storage::TableStorage* lineitem, int64_t ship_date_cutoff);

/// Builds the Q6-flavored revenue plan over `lineitem`.
exec::OperatorPtr MakeRevenueQuery(const storage::TableStorage* lineitem,
                                   int64_t date_lo, int64_t date_hi,
                                   double discount_lo, double discount_hi,
                                   double quantity_cap);

/// Builds the Q3-flavored join plan over `orders` >< `lineitem`.
exec::OperatorPtr MakeOrderRevenueQuery(const storage::TableStorage* orders,
                                        const storage::TableStorage* lineitem,
                                        int64_t order_date_cutoff);

/// A serving-core query factory over the throughput-test mixture: maps a
/// trace request's query_class onto the three shapes and its param onto the
/// stream-style substitution parameters, and declares the tables each plan
/// scans so the SessionManager can route them through the shared-scan
/// manager. Deterministic in the request, as the replay contract requires.
sched::SessionManager::QueryFactory MakeServingFactory(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem);

/// One complete throughput-test stream: the three shapes with rotating
/// parameters. `stream_index` varies the parameters like TPC-H's
/// substitution rules.
std::vector<exec::OperatorPtr> MakeThroughputStream(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int stream_index);

/// Outcome of running one or more streams back-to-back.
struct ThroughputResult {
  int queries_completed = 0;
  uint64_t rows_emitted = 0;
  double elapsed_seconds = 0.0;
  double joules = 0.0;
  /// Total device bytes transferred and CPU core-seconds consumed; used by
  /// the Figure 1 harness to calibrate device bandwidth volumetrically.
  uint64_t io_bytes = 0;
  double cpu_core_seconds = 0.0;
  /// Queries per hour per the TPC-H throughput metric shape.
  double QueriesPerHour() const {
    return elapsed_seconds > 0 ? 3600.0 * queries_completed / elapsed_seconds
                               : 0.0;
  }
  /// The paper's EE axis: work done per Joule.
  double EnergyEfficiency() const {
    return joules > 0 ? queries_completed / joules : 0.0;
  }
};

/// Runs `streams` full streams sequentially on `platform` (the simulated
/// clock advances through each query; concurrency across clients shows up
/// as sustained device utilization). InvalidArgument for `exec_options`
/// that ValidateExecOptions rejects.
StatusOr<ThroughputResult> RunThroughputTest(
    power::HardwarePlatform* platform, const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int streams,
    const exec::ExecOptions& exec_options);

}  // namespace ecodb::tpch

#endif  // ECODB_TPCH_WORKLOAD_H_
