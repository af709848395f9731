#include "exec/filter_project.h"

namespace ecodb::exec {

FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(child_->Open(ctx));
  return predicate_->Bind(child_->output_schema());
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
    ECODB_RETURN_IF_ERROR(
        predicate_->EvaluateMaskInto(batch, &scratch_, &mask_));
    batch.FilterInPlace(mask_);
    if (batch.num_rows() > 0 || batch.empty()) {
      *out = std::move(batch);
      return Status::OK();
    }
  }
}

void FilterOp::Close() { child_->Close(); }

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ProjectionItem> items)
    : child_(std::move(child)), items_(std::move(items)) {}

Status ProjectOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(child_->Open(ctx));
  std::vector<catalog::Column> cols;
  cols.reserve(items_.size());
  for (ProjectionItem& item : items_) {
    ECODB_RETURN_IF_ERROR(item.expr->Bind(child_->output_schema()));
    catalog::Column c;
    c.name = item.name;
    c.type = item.expr->result_type();
    cols.push_back(std::move(c));
  }
  schema_ = catalog::Schema(std::move(cols));
  return Status::OK();
}

Status ProjectOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  RecordBatch batch;
  ECODB_RETURN_IF_ERROR(child_->Next(&batch, eos));
  if (*eos) return Status::OK();
  RecordBatch projected(schema_);
  for (size_t i = 0; i < items_.size(); ++i) {
    ctx_->ChargeInstructions(items_[i].expr->InstructionsPerRow() *
                             static_cast<double>(batch.num_rows()));
    ECODB_RETURN_IF_ERROR(
        items_[i].expr->EvaluateInto(batch, &scratch_, &projected.column(i)));
  }
  ECODB_RETURN_IF_ERROR(projected.SealRows(batch.num_rows()));
  *out = std::move(projected);
  return Status::OK();
}

void ProjectOp::Close() { child_->Close(); }

}  // namespace ecodb::exec
