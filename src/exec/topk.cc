#include "exec/topk.h"

#include <queue>

#include "exec/exec_context.h"
#include "exec/scan.h"

namespace ecodb::exec {

// Streams rows through a bounded max-heap whose top is the worst kept row
// in (key, input position) order. Evicted rows stay in the pool until as
// many have piled up as are kept, then the pool is compacted, so each
// builder's working set stays O(k).
class TopKOp::RunBuilder {
 public:
  RunBuilder(const TopKOp& op, const catalog::Schema& schema)
      : op_(op), pool_(schema) {}

  /// Offers every row of `batch`, in order, after the rows offered before.
  Status Offer(const RecordBatch& batch) {
    const auto worse = [this](const Entry& a, const Entry& b) {
      return Before(a, b);
    };
    for (size_t r = 0; r < batch.num_rows(); ++r, ++pos_) {
      if (heap_.size() < op_.k_) {
        pool_.AppendRowFrom(batch, r);
        heap_.push_back({static_cast<uint32_t>(pool_.num_rows() - 1), pos_});
        std::push_heap(heap_.begin(), heap_.end(), worse);
        continue;
      }
      // A new row displaces the worst kept row only when it sorts strictly
      // before it on the keys: on a tie the kept row's input position is
      // smaller, so stability keeps it — exactly what a stable sort
      // followed by LimitOp(k) would retain.
      if (op_.k_ == 0 || CompareRowsOnKeys(batch, r, pool_, heap_.front().row,
                                           op_.keys_, op_.key_idx_) >= 0) {
        continue;
      }
      std::pop_heap(heap_.begin(), heap_.end(), worse);
      pool_.AppendRowFrom(batch, r);
      heap_.back() = {static_cast<uint32_t>(pool_.num_rows() - 1), pos_};
      std::push_heap(heap_.begin(), heap_.end(), worse);
      if (pool_.num_rows() - heap_.size() >= op_.k_) {
        ECODB_RETURN_IF_ERROR(Compact());
      }
    }
    return Status::OK();
  }

  /// Moves the kept rows, in output order, into `run`.
  Status TakeRun(CandidateRun* run) {
    std::sort(heap_.begin(), heap_.end(),
              [this](const Entry& a, const Entry& b) { return Before(a, b); });
    ECODB_RETURN_IF_ERROR(Compact());
    run->rows = std::move(pool_);
    run->rows_in = pos_;
    return Status::OK();
  }

 private:
  /// A kept candidate: a row in pool_ plus its input position.
  struct Entry {
    uint32_t row;
    uint64_t pos;
  };

  /// True when `a` precedes `b` in the output order (keys, then input
  /// position). A strict total order: no two entries share pos.
  bool Before(const Entry& a, const Entry& b) const {
    const int cmp = CompareRowsOnKeys(pool_, a.row, pool_, b.row, op_.keys_,
                                      op_.key_idx_);
    if (cmp != 0) return cmp < 0;
    return a.pos < b.pos;
  }

  /// Rebuilds pool_ from the kept rows alone, in heap_ order.
  Status Compact() {
    std::vector<uint32_t> rows(heap_.size());
    for (size_t i = 0; i < heap_.size(); ++i) {
      rows[i] = heap_[i].row;
      heap_[i].row = static_cast<uint32_t>(i);
    }
    RecordBatch fresh(pool_.schema());
    fresh.Gather(pool_, rows);
    pool_ = std::move(fresh);
    return pool_.SealRows(rows.size());
  }

  const TopKOp& op_;
  RecordBatch pool_;
  std::vector<Entry> heap_;  // max-heap on Before: front = worst kept
  uint64_t pos_ = 0;
};

TopKOp::TopKOp(OperatorPtr child, std::vector<SortKey> keys, size_t k,
               uint64_t memory_budget_bytes,
               storage::StorageDevice* spill_device)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      k_(k),
      memory_budget_bytes_(memory_budget_bytes),
      spill_device_(spill_device) {}

Status TopKOp::FormRuns() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  const catalog::Schema& schema = child_->output_schema();
  auto* source = dynamic_cast<MorselSource*>(child_.get());
  if (source != nullptr) {
    const size_t n_morsels = source->morsel_count();
    runs_.assign(n_morsels, CandidateRun{});
    WorkerPool* pool = ctx_->worker_pool();
    std::vector<WorkAccumulator> accs(
        static_cast<size_t>(pool->parallelism()));
    ECODB_RETURN_IF_ERROR(
        pool->Run(n_morsels, [&](size_t m, int slot) -> Status {
          // ecodb-lint: worker-context
          RecordBatch batch;
          ECODB_RETURN_IF_ERROR(source->ProduceMorsel(
              m, &batch, &accs[static_cast<size_t>(slot)]));
          RunBuilder builder(*this, schema);
          ECODB_RETURN_IF_ERROR(builder.Offer(batch));
          return builder.TakeRun(&runs_[m]);
        }));
    for (const WorkAccumulator& acc : accs) ctx_->MergeWork(acc);
  } else {
    // Any other child streams through one heap into a single candidate
    // run, batch by batch: at most 2k rows are ever held.
    RunBuilder builder(*this, schema);
    bool eos = false;
    while (true) {
      ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
      RecordBatch batch;
      ECODB_RETURN_IF_ERROR(child_->Next(&batch, &eos));
      if (eos) break;
      ECODB_RETURN_IF_ERROR(builder.Offer(batch));
    }
    runs_.assign(1, CandidateRun{});
    ECODB_RETURN_IF_ERROR(builder.TakeRun(&runs_[0]));
  }
  // Morsels with no surviving rows form empty candidate runs; dropping
  // them (in morsel order) keeps run indexes — the merge tie-break — dense
  // and deterministic.
  std::erase_if(runs_,
                [](const CandidateRun& r) { return r.rows.num_rows() == 0; });
  num_runs_ = runs_.size();
  return Status::OK();
}

Status TopKOp::SettleRunCharges() {
  // ecodb-lint: coordinator-only
  const CostConstants& c = ctx_->options().costs;
  const double n_keys = static_cast<double>(keys_.size());
  const uint64_t row_width =
      static_cast<uint64_t>(child_->output_schema().RowWidthBytes());

  // Formation: each run streams through its own bounded heap. Summed in
  // run order on the coordinator so the floating-point total is
  // dop-invariant (run boundaries derive from morsels, not from dop).
  double formation = 0.0;
  uint64_t kept_bytes = 0;
  for (const CandidateRun& run : runs_) {
    formation += TopKCompareInstructions(
        c, static_cast<double>(run.rows_in), static_cast<double>(k_), n_keys);
    kept_bytes += run.rows.num_rows() * row_width;
  }
  ctx_->ChargeInstructions(formation);
  ctx_->ChargeDram(std::min<uint64_t>(kept_bytes, memory_budget_bytes_));

  // Spill only when even the kept candidate set exceeds the budget — the
  // headline saving over a full external sort, whose every input byte
  // spills. Per-run sequential writes, billed in run order.
  if (kept_bytes > memory_budget_bytes_ && spill_device_ != nullptr) {
    spilled_ = true;
    // Runs whose byte offset lies below the spill_write_charged_ watermark
    // were already billed by a previous Open of this query; a retried Open
    // forms the same candidate runs at the same offsets, so skipping them
    // keeps the device billed exactly once per spilled byte.
    uint64_t offset = 0;
    for (const CandidateRun& run : runs_) {
      const uint64_t run_bytes = run.rows.num_rows() * row_width;
      if (offset >= spill_write_charged_) {
        ECODB_RETURN_IF_ERROR(
            ctx_->ChargeWrite(spill_device_, run_bytes, /*sequential=*/true));
      }
      offset += run_bytes;
    }
    spill_write_charged_ = std::max(spill_write_charged_, offset);
  }
  return Status::OK();
}

Status TopKOp::MergeRuns() {
  // ecodb-lint: coordinator-only
  result_ = RecordBatch(child_->output_schema());
  const CostConstants& c = ctx_->options().costs;
  const uint64_t row_width =
      static_cast<uint64_t>(child_->output_schema().RowWidthBytes());
  uint64_t candidates = 0;
  for (const CandidateRun& run : runs_) candidates += run.rows.num_rows();

  // The merge reads every spilled candidate byte back exactly once
  // (per-run charge, run order); spill_read_charged_ keeps a retried Open
  // from re-billing reads the merge already consumed.
  if (spilled_ && !spill_read_charged_) {
    for (const CandidateRun& run : runs_) {
      ECODB_RETURN_IF_ERROR(
          ctx_->ChargeRead(spill_device_, run.rows.num_rows() * row_width,
                           /*sequential=*/true));
    }
    spill_read_charged_ = true;
  }
  if (runs_.empty() || k_ == 0) {
    runs_.clear();
    return Status::OK();
  }

  // Coordinator k-way merge of the sorted candidate runs; key ties break
  // by (run index, position in run) — the input's global order, so the
  // kept prefix is byte-identical to SortOp + LimitOp.
  struct Ref {
    size_t run;
    size_t idx;
  };
  const auto after = [&](const Ref& x, const Ref& y) {
    const int cmp = CompareRowsOnKeys(runs_[x.run].rows, x.idx,
                                      runs_[y.run].rows, y.idx, keys_,
                                      key_idx_);
    if (cmp != 0) return cmp > 0;
    return x.run > y.run;  // one ref per run: run index decides all ties
  };
  std::priority_queue<Ref, std::vector<Ref>, decltype(after)> heap(after);
  for (size_t r = 0; r < runs_.size(); ++r) heap.push({r, 0});
  const size_t take = std::min<uint64_t>(k_, candidates);
  while (result_.num_rows() < take && !heap.empty()) {
    Ref top = heap.top();
    heap.pop();
    result_.AppendRowFrom(runs_[top.run].rows, top.idx);
    if (++top.idx < runs_[top.run].rows.num_rows()) heap.push(top);
  }

  // The candidate merge runs on the coordinator: its log2(R) comparison
  // ladder over the candidates and the k-row emission are serial Amdahl
  // terms (the cost model's top-k SortDemand prices the same split).
  if (runs_.size() > 1) {
    ctx_->ChargeSerialInstructions(
        c.sort_per_row_log_row * static_cast<double>(candidates) *
            std::log2(static_cast<double>(runs_.size())) *
            static_cast<double>(keys_.size()) +
        c.output_per_row * static_cast<double>(take));
  }
  runs_.clear();
  return Status::OK();
}

Status TopKOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(child_->Open(ctx));
  ECODB_RETURN_IF_ERROR(
      ResolveSortKeys(child_->output_schema(), keys_, &key_idx_));
  runs_.clear();
  result_ = RecordBatch();
  num_runs_ = 0;
  spilled_ = false;
  cursor_ = 0;
  ECODB_RETURN_IF_ERROR(FormRuns());
  ECODB_RETURN_IF_ERROR(SettleRunCharges());
  ECODB_RETURN_IF_ERROR(MergeRuns());
  return Status::OK();
}

Status TopKOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (cursor_ >= result_.num_rows()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  const size_t take =
      std::min(ctx_->options().batch_rows, result_.num_rows() - cursor_);
  RecordBatch batch(child_->output_schema());
  for (size_t i = 0; i < take; ++i) {
    batch.AppendRowFrom(result_, cursor_ + i);
  }
  cursor_ += take;
  *out = std::move(batch);
  return Status::OK();
}

void TopKOp::Close() {
  runs_.clear();
  result_ = RecordBatch();
  child_->Close();
}

}  // namespace ecodb::exec
