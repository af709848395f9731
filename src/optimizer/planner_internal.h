// Planner internals shared between the classic 2-way path (planner.cc) and
// the N-way join-graph path (join_order.cc). Both paths must price and build
// the post-join tail (aggregate / sort / top-k / limit) with bit-identical
// arithmetic, so the tail lives here exactly once.

#ifndef ECODB_OPTIMIZER_PLANNER_INTERNAL_H_
#define ECODB_OPTIMIZER_PLANNER_INTERNAL_H_

#include <string>
#include <vector>

#include "optimizer/planner.h"

namespace ecodb::optimizer::internal {

/// Schema positions of `names` (missing names skipped).
std::vector<int> ToIndexes(const catalog::Schema& schema,
                           const std::vector<std::string>& names);

/// Materialized byte width of one row projected to `columns`.
double RowWidthOf(const storage::TableStorage& table,
                  const std::vector<std::string>& columns);

/// Zone-pruned scan demand, built from the exact helpers TableScanOp
/// charges with — estimator and executor cannot drift.
ResourceEstimate PrunedScanDemand(const storage::TableStorage& table,
                                  const std::vector<int>& col_indexes,
                                  const exec::ExprPtr& filter,
                                  double decode_scale);

/// Prices the post-join tail of `spec` into `demand`: aggregate update +
/// emission, then sort / fused top-k with spill. `in_rows` is the tail's
/// input cardinality (the join output), `output_rows` its estimated final
/// cardinality before the LIMIT clamp, and `input_width` the materialized
/// byte width of one pre-aggregation row (used for sort sizing when no
/// aggregate reshapes the rows).
void PriceTail(const QuerySpec& spec, const PhysicalPlan& plan,
               const CostModel& model, double in_rows, double output_rows,
               double input_width, ResourceEstimate* demand);

/// Wraps `root` with the operators realizing the post-join tail (aggregate,
/// sort or fused top-k, limit); the tree is the same at every dop.
exec::OperatorPtr FinishOperatorTree(const QuerySpec& spec,
                                     const PhysicalPlan& plan,
                                     exec::OperatorPtr root);

}  // namespace ecodb::optimizer::internal

#endif  // ECODB_OPTIMIZER_PLANNER_INTERNAL_H_
