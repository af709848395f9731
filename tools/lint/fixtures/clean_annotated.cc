// Fixture for lint_test: a fully contract-conforming (annotated) operator.
// Never compiled — the test lints this file under the label
// src/exec/clean_annotated.cc and expects zero findings.

#include <cstdint>

#include "exec/exec_context.h"

namespace ecodb::exec {

struct CleanPartial {
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

Status ComputeCleanly(ExecContext* ctx, storage::StorageDevice* spill_device,
                      uint64_t spill_bytes, uint64_t spill_write_charged) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx->PollCancel());
  WorkerPool* pool = ctx->worker_pool();
  std::vector<CleanPartial> partials(4);
  ECODB_RETURN_IF_ERROR(pool->Run(4, [&](size_t m, int slot) -> Status {
    // ecodb-lint: worker-context
    partials[static_cast<size_t>(slot)].rows += m;
    return Status::OK();
  }));
  ctx->ChargeInstructions(10.0);
  if (spill_bytes > spill_write_charged) {
    ctx->ChargeWrite(spill_device, spill_bytes - spill_write_charged, true);
  }
  return Status::OK();
}

}  // namespace ecodb::exec
