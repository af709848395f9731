// Pass 2 of the cross-TU analyzer: the interprocedural rules EC8, EC9 and
// EC11 evaluated over the ProjectIndex call graph (see index.h for pass 1
// and lint.h for the full rule list).
//
//   EC8  transitive-determinism  No function reachable from a src/exec or
//                                src/sched entry point may reach an entropy
//                                or wall-clock source, or range-for over an
//                                unordered container — wherever in src/ the
//                                offending function lives. (EC5 owns the
//                                textual src/exec cases; EC8 closes the
//                                cross-TU hole.)
//   EC9  lock-discipline         Over src/sched + src/catalog: the observed
//                                mutex acquisition order must be consistent
//                                (no inverted pairs, no re-acquisition of a
//                                held lock), and no settlement call
//                                (Charge*/Settle*/Finish) may run
//                                — directly or transitively — while a lock
//                                is held, or coordinator settlement order
//                                would depend on thread scheduling.
//   EC11 cancellation-polling    Every operator pull loop (a member
//                                Next(out, eos) definition in src/exec) and
//                                every morsel dispatch (a body handing work
//                                to WorkerPool::Run) must reach
//                                ExecContext::PollCancel() — directly or
//                                through a callee — so deadlines and sheds
//                                land at the next batch/morsel boundary
//                                instead of running the plan to completion.
//                                WorkerPool's own machinery is exempt.

#ifndef ECODB_TOOLS_LINT_INTERPROC_H_
#define ECODB_TOOLS_LINT_INTERPROC_H_

#include <vector>

#include "index.h"
#include "lint.h"

namespace ecodb::lint {

/// Wall time per analysis stage, for `ecodb-lint --timings`.
struct ProjectTimings {
  double index_seconds = 0;
  double ec8_seconds = 0;
  double ec9_seconds = 0;
  double ec11_seconds = 0;
};

/// Runs the interprocedural rules over the whole file set. Findings are
/// sorted by (file, line, rule); NOLINT-ECODB suppressions apply at the
/// reported line.
std::vector<Finding> LintProject(const std::vector<SourceFile>& files,
                                 ProjectTimings* timings = nullptr);

}  // namespace ecodb::lint

#endif  // ECODB_TOOLS_LINT_INTERPROC_H_
