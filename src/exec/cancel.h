// CancelToken: cooperative cancellation for operator pull loops.
//
// Overload protection (DESIGN.md §14) needs a way to stop a session that
// has blown its deadline — without forgetting the Joules it already burned.
// The token is that deadline, on the simulated timeline, checked by
// ExecContext::PollCancel() against the query's *projected* critical path
// (charged work so far), so the kill lands at the same batch boundary at
// every dop and propagates as an ordinary kDeadlineExceeded Status through
// the operator tree.
//
// Operators never read the token directly: they call ctx->PollCancel() at
// batch/morsel boundaries (lint rule EC11 enforces this for every Next
// body and morsel dispatch loop in src/exec). A non-OK poll unwinds the
// pull loop; everything already charged stays charged — partial work is
// real work and lands on the session's bill.

#ifndef ECODB_EXEC_CANCEL_H_
#define ECODB_EXEC_CANCEL_H_

#include <limits>

namespace ecodb::exec {

/// Cooperative cancellation state carried by ExecContext. Plain value type:
/// the serving core sets it at admission.
struct CancelToken {
  /// Deadline on the simulated timeline (absolute seconds). A query whose
  /// projected critical-path completion reaches this instant is killed at
  /// its next poll. Infinity = no deadline.
  double deadline_s = std::numeric_limits<double>::infinity();
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_CANCEL_H_
