// Seeded EC11 violations. Never compiled — the test lints this file
// labelled src/exec/ec11_exec_ops.cc. BadScanOp::Next,
// BadShuffleOp::Partition and HelperPolledOp::Next never call PollCancel in
// their own body; GoodFilterOp::Next does, and WorkerPool::Run dispatches
// nothing.
namespace ecodb::exec {

Status PollAtBatchBoundary(ExecContext* ctx) {
  return ctx->PollCancel();
}

Status BadScanOp::Next(RecordBatch* out, bool* eos) {
  while (cursor_ < rows_.size()) {
    out->Append(rows_[cursor_++]);
  }
  *eos = true;
  return Status::OK();
}

Status BadShuffleOp::Partition(ExecContext* ctx) {
  WorkerPool* pool = ctx->worker_pool();
  return pool->Run(morsels_.size(), task_);
}

Status GoodFilterOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  return child_->Next(out, eos);
}

Status HelperPolledOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(PollAtBatchBoundary(ctx_));
  return child_->Next(out, eos);
}

Status WorkerPool::Run(size_t num_tasks, const Task& fn) {
  for (size_t m = 0; m < num_tasks; ++m) {
    fn(m, 0);
  }
  return Status::OK();
}

}  // namespace ecodb::exec
