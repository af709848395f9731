#include "exec/sort_limit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>

#include "exec/exec_context.h"
#include "exec/scan.h"

namespace ecodb::exec {

using catalog::DataType;

namespace {

/// Sorted runs merge into at most this many range partitions; the count is
/// derived from the (dop-invariant) run count, never from dop, so partition
/// boundaries — and the output — are identical at every dop.
constexpr size_t kMaxMergePartitions = 8;

/// Splitter sample keys taken per run (evenly spaced within the sorted run).
constexpr size_t kSamplesPerRun = 16;

/// Three-way comparison of one value in lane `a` against one in lane `b`
/// (same type; ascending column order). Doubles take a total order: NaN
/// compares greater than every number and ties with every other NaN, and
/// -0.0 ties with +0.0 (DESIGN §7).
int CompareLane(const storage::ColumnData& a, size_t ra,
                const storage::ColumnData& b, size_t rb) {
  switch (a.type) {
    case DataType::kInt64:
    case DataType::kDate:
      return a.i64[ra] < b.i64[rb] ? -1 : a.i64[ra] > b.i64[rb] ? 1 : 0;
    case DataType::kDouble: {
      const double x = a.f64[ra];
      const double y = b.f64[rb];
      if (x < y) return -1;
      if (x > y) return 1;
      return static_cast<int>(std::isnan(x)) - static_cast<int>(std::isnan(y));
    }
    case DataType::kString: {
      const int cmp = a.str[ra].compare(b.str[rb]);
      return cmp < 0 ? -1 : cmp > 0 ? 1 : 0;
    }
  }
  return 0;
}

}  // namespace

int CompareRowsOnKeys(const RecordBatch& a, size_t ra, const RecordBatch& b,
                      size_t rb, const std::vector<SortKey>& keys,
                      const std::vector<int>& key_idx) {
  for (size_t k = 0; k < keys.size(); ++k) {
    const int idx = key_idx[k];
    const int cmp = CompareLane(a.column(idx), ra, b.column(idx), rb);
    if (cmp != 0) return keys[k].ascending ? cmp : -cmp;
  }
  return 0;
}

Status ResolveSortKeys(const catalog::Schema& schema,
                       const std::vector<SortKey>& keys,
                       std::vector<int>* key_idx) {
  key_idx->clear();
  for (const SortKey& k : keys) {
    const int idx = schema.FindColumn(k.column);
    if (idx < 0) return Status::NotFound("sort column '" + k.column + "'");
    key_idx->push_back(idx);
  }
  return Status::OK();
}

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys,
               uint64_t memory_budget_bytes,
               storage::StorageDevice* spill_device)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      memory_budget_bytes_(memory_budget_bytes),
      spill_device_(spill_device) {}

int SortOp::CompareRows(const RecordBatch& a, size_t ra, const RecordBatch& b,
                        size_t rb) const {
  return CompareRowsOnKeys(a, ra, b, rb, keys_, key_idx_);
}

Status SortOp::SortRun(const RecordBatch& batch, RecordBatch* run) const {
  std::vector<uint32_t> order(batch.num_rows());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareRows(batch, a, batch, b) < 0;
  });
  *run = RecordBatch(batch.schema());
  run->Gather(batch, order);
  return run->SealRows(order.size());
}

Status SortOp::FormRuns() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  auto* source = dynamic_cast<MorselSource*>(child_.get());
  if (source != nullptr) {
    const size_t n_morsels = source->morsel_count();
    runs_.assign(n_morsels, RecordBatch{});
    WorkerPool* pool = ctx_->worker_pool();
    std::vector<WorkAccumulator> accs(
        static_cast<size_t>(pool->parallelism()));
    ECODB_RETURN_IF_ERROR(
        pool->Run(n_morsels, [&](size_t m, int slot) -> Status {
          // ecodb-lint: worker-context
          RecordBatch batch;
          ECODB_RETURN_IF_ERROR(source->ProduceMorsel(
              m, &batch, &accs[static_cast<size_t>(slot)]));
          return SortRun(batch, &runs_[m]);
        }));
    for (const WorkAccumulator& acc : accs) ctx_->MergeWork(acc);
  } else {
    // Any other child: the whole drained input is one run.
    RecordBatch all;
    ECODB_RETURN_IF_ERROR(Drain(child_.get(), ctx_, &all));
    runs_.assign(1, RecordBatch{});
    ECODB_RETURN_IF_ERROR(SortRun(all, &runs_[0]));
  }
  // Fully filtered morsels form empty runs; dropping them (in morsel
  // order) keeps run indexes — the merge tie-break — dense and
  // deterministic.
  std::erase_if(runs_, [](const RecordBatch& r) { return r.num_rows() == 0; });
  num_runs_ = runs_.size();
  return Status::OK();
}

Status SortOp::SettleRunCharges() {
  // ecodb-lint: coordinator-only
  const CostConstants& c = ctx_->options().costs;
  const double n_keys = static_cast<double>(keys_.size());
  const uint64_t row_width =
      static_cast<uint64_t>(child_->output_schema().RowWidthBytes());

  // Run formation: each run pays its own n·log2(n) comparison ladder.
  // Summed in run order on the coordinator so the floating-point total is
  // dop-invariant (run sizes derive from morsel boundaries, not from dop).
  double formation = 0.0;
  total_bytes_ = 0;
  for (const RecordBatch& run : runs_) {
    const double n = static_cast<double>(run.num_rows());
    if (n > 1) formation += c.sort_per_row_log_row * n * std::log2(n) * n_keys;
    total_bytes_ += run.num_rows() * row_width;
  }
  ctx_->ChargeInstructions(formation);
  ctx_->ChargeDram(std::min<uint64_t>(total_bytes_, memory_budget_bytes_));

  // External spill: every run is written once as it forms — a per-run
  // sequential stream billed on the device's timeline, in run order.
  if (total_bytes_ > memory_budget_bytes_ && spill_device_ != nullptr) {
    spilled_ = true;
    // Runs whose byte offset lies below the spill_write_charged_ watermark
    // were already billed by a previous Open of this query; a retried Open
    // forms the same runs at the same offsets, so skipping them keeps the
    // device billed exactly once per spilled byte.
    uint64_t offset = 0;
    for (const RecordBatch& run : runs_) {
      const uint64_t run_bytes = run.num_rows() * row_width;
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

Status SortOp::MergeRuns() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  partitions_.clear();
  num_partitions_ = 0;
  uint64_t total_rows = 0;
  for (const RecordBatch& run : runs_) total_rows += run.num_rows();
  if (total_rows == 0) {
    runs_.clear();
    return Status::OK();
  }

  const CostConstants& c = ctx_->options().costs;
  const double n_keys = static_cast<double>(keys_.size());
  const uint64_t row_width =
      static_cast<uint64_t>(child_->output_schema().RowWidthBytes());
  const size_t n_runs = runs_.size();

  // The merge reads every spilled run back exactly once (per-run charge,
  // run order); spill_read_charged_ keeps a retried Open from re-billing
  // reads the merge already consumed.
  if (spilled_ && !spill_read_charged_) {
    for (const RecordBatch& run : runs_) {
      ECODB_RETURN_IF_ERROR(
          ctx_->ChargeRead(spill_device_, run.num_rows() * row_width,
                           /*sequential=*/true));
    }
    spill_read_charged_ = true;
  }

  if (n_runs == 1) {
    partitions_.push_back(std::move(runs_[0]));
    num_partitions_ = 1;
    runs_.clear();
    return Status::OK();
  }

  // Merge fan-in: every row climbs a log2(R) comparison ladder inside its
  // partition (parallel), while splitter selection and partition stitching
  // stay on the coordinator (serial Amdahl term; the cost model prices the
  // same split).
  ctx_->ChargeInstructions(c.sort_per_row_log_row *
                           static_cast<double>(total_rows) *
                           std::log2(static_cast<double>(n_runs)) * n_keys);
  ctx_->ChargeSerialInstructions(c.output_per_row *
                                 static_cast<double>(total_rows));

  // Splitter selection: a fixed, evenly spaced sample from each sorted run,
  // ordered by (key, run, position) — deterministic for a given input.
  struct Ref {
    size_t run;
    size_t pos;
  };
  std::vector<Ref> samples;
  for (size_t r = 0; r < n_runs; ++r) {
    const size_t n = runs_[r].num_rows();
    const size_t take = std::min(n, kSamplesPerRun);
    for (size_t k = 0; k < take; ++k) samples.push_back({r, k * n / take});
  }
  std::sort(samples.begin(), samples.end(), [&](const Ref& x, const Ref& y) {
    const int cmp = CompareRows(runs_[x.run], x.pos, runs_[y.run], y.pos);
    if (cmp != 0) return cmp < 0;
    if (x.run != y.run) return x.run < y.run;
    return x.pos < y.pos;
  });

  const size_t n_parts = std::min(kMaxMergePartitions, n_runs);

  // bounds[r][p] .. bounds[r][p+1] is run r's segment of partition p. The
  // boundary for splitter key K is the first row with key >= K, so rows
  // with equal keys never straddle a partition.
  std::vector<std::vector<size_t>> bounds(
      n_runs, std::vector<size_t>(n_parts + 1, 0));
  for (size_t r = 0; r < n_runs; ++r) bounds[r][n_parts] = runs_[r].num_rows();
  for (size_t p = 1; p < n_parts; ++p) {
    const Ref split = samples[p * samples.size() / n_parts];
    for (size_t r = 0; r < n_runs; ++r) {
      size_t lo = bounds[r][p - 1], hi = runs_[r].num_rows();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (CompareRows(runs_[r], mid, runs_[split.run], split.pos) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      bounds[r][p] = lo;
    }
  }

  // Cooperative merge: one worker task per partition, k-way heap merge of
  // the runs' segments with ties broken by (run, position) — equal to the
  // input's global order, so output matches a stable sort exactly.
  partitions_.assign(n_parts, RecordBatch{});
  WorkerPool* pool = ctx_->worker_pool();
  ECODB_RETURN_IF_ERROR(pool->Run(n_parts, [&](size_t p, int) -> Status {
    // ecodb-lint: worker-context
    const auto after = [&](const Ref& x, const Ref& y) {
      const int cmp = CompareRows(runs_[x.run], x.pos, runs_[y.run], y.pos);
      if (cmp != 0) return cmp > 0;
      if (x.run != y.run) return x.run > y.run;
      return x.pos > y.pos;
    };
    std::priority_queue<Ref, std::vector<Ref>, decltype(after)> heap(after);
    for (size_t r = 0; r < n_runs; ++r) {
      if (bounds[r][p] < bounds[r][p + 1]) heap.push({r, bounds[r][p]});
    }
    RecordBatch out(child_->output_schema());
    while (!heap.empty()) {
      Ref top = heap.top();
      heap.pop();
      out.AppendRowFrom(runs_[top.run], top.pos);
      if (++top.pos < bounds[top.run][p + 1]) heap.push(top);
    }
    partitions_[p] = std::move(out);
    return Status::OK();
  }));
  num_partitions_ = partitions_.size();
  runs_.clear();
  return Status::OK();
}

Status SortOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(child_->Open(ctx));
  ECODB_RETURN_IF_ERROR(
      ResolveSortKeys(child_->output_schema(), keys_, &key_idx_));
  runs_.clear();
  partitions_.clear();
  num_runs_ = 0;
  num_partitions_ = 0;
  total_bytes_ = 0;
  spilled_ = false;
  cursor_ = 0;
  ECODB_RETURN_IF_ERROR(FormRuns());
  ECODB_RETURN_IF_ERROR(SettleRunCharges());
  ECODB_RETURN_IF_ERROR(MergeRuns());
  return Status::OK();
}

Status SortOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  while (cursor_ < partitions_.size() &&
         partitions_[cursor_].num_rows() == 0) {
    ++cursor_;
  }
  if (cursor_ >= partitions_.size()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  *out = std::move(partitions_[cursor_]);
  ++cursor_;
  return Status::OK();
}

void SortOp::Close() {
  runs_.clear();
  partitions_.clear();
  child_->Close();
}

LimitOp::LimitOp(OperatorPtr child, size_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  emitted_ = 0;
  return child_->Open(ctx);
}

Status LimitOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (emitted_ >= limit_) {
    *eos = true;
    return Status::OK();
  }
  RecordBatch batch;
  ECODB_RETURN_IF_ERROR(child_->Next(&batch, eos));
  if (*eos) return Status::OK();
  if (emitted_ + batch.num_rows() > limit_) {
    std::vector<uint8_t> mask(batch.num_rows(), 0);
    for (size_t r = 0; r < limit_ - emitted_; ++r) mask[r] = 1;
    batch.FilterInPlace(mask);
  }
  emitted_ += batch.num_rows();
  *out = std::move(batch);
  return Status::OK();
}

void LimitOp::Close() { child_->Close(); }

}  // namespace ecodb::exec
