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
//
// The shapes are planner specs, each with the one plan it runs; the
// planner builds their operator trees and lists the tables they scan.

#ifndef ECODB_TPCH_WORKLOAD_H_
#define ECODB_TPCH_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "exec/operator.h"
#include "optimizer/planner.h"
#include "sched/session.h"
#include "storage/table_storage.h"
#include "util/status.h"

namespace ecodb::tpch {

/// One query of the mixture: its shape (0 Q1, 1 Q6, 2 Q3), its spec and
/// the plan it runs.
struct ServingQuery {
  int shape = 0;
  optimizer::QuerySpec spec;
  optimizer::PhysicalPlan plan;
};

/// The mixture's query for `query_class` (taken mod 3: Q1, Q6, Q3) with
/// the substitution parameters of `param` (taken mod 8, like TPC-H's
/// stream-dependent substitution rules). The plan is a table scan of
/// LINEITEM, or a hash join that probes LINEITEM and builds on the
/// filtered ORDERS.
ServingQuery MakeServingQuery(const storage::TableStorage* orders,
                              const storage::TableStorage* lineitem,
                              int query_class, int64_t param);

/// A serving-core query factory over the mixture: plans each trace request
/// as MakeServingQuery(query_class, param) and declares the tables its plan
/// scans so the SessionManager can route them through the shared-scan
/// manager. Deterministic in the request, as the replay contract requires.
sched::SessionManager::QueryFactory MakeServingFactory(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem);

/// One complete throughput-test stream: the three shapes with the
/// substitution parameters of `stream_index`.
StatusOr<std::vector<exec::OperatorPtr>> MakeThroughputStream(
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
