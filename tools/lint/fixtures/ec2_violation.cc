// Fixture for lint_test: seeded EC2 violations. Never compiled — the test
// lints this file under the label src/exec/ec2_violation.cc.
#include "exec/exec_context.h"

namespace ecodb::exec {

Status ComputeBadly(ExecContext* ctx) {
  ECODB_RETURN_IF_ERROR(ctx->PollCancel());
  WorkerPool* pool = ctx->worker_pool();
  ECODB_RETURN_IF_ERROR(pool->Run(8, [&](size_t m, int slot) -> Status {
    // ecodb-lint: worker-context
    ctx->ChargeInstructions(100.0);  // EC2: charging from a worker
    (void)m;
    (void)slot;
    return Status::OK();
  }));
  ctx->ChargeDram(1024);  // EC2: settlement outside a coordinator-only region
  return Status::OK();
}

}  // namespace ecodb::exec
