#include "exec/filter_project.h"

namespace ecodb::exec {

FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(child_->Open(ctx));
  ECODB_ASSIGN_OR_RETURN(program_,
                         predicate_->BindPredicate(child_->output_schema()));
  return Status::OK();
}

Status FilterOp::Next(RecordBatch* out, bool* eos) {
  while (true) {
    ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
    RecordBatch batch;
    ECODB_RETURN_IF_ERROR(child_->Next(&batch, eos));
    if (*eos) return Status::OK();
    // Charged from the static per-row cost *before* evaluation, so the
    // fused/short-circuit strategy below cannot perturb the accounting.
    ctx_->ChargeInstructions(FilterInstructions(
        *predicate_, static_cast<double>(batch.num_rows())));
    ECODB_RETURN_IF_ERROR(program_.EvaluateMaskInto(batch, &scratch_, &mask_));
    batch.FilterInPlace(mask_);
    if (batch.num_rows() > 0 || batch.empty()) {
      *out = std::move(batch);
      return Status::OK();
    }
  }
}

void FilterOp::Close() { child_->Close(); }

}  // namespace ecodb::exec
