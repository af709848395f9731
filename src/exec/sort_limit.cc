#include "exec/sort_limit.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <span>

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

// Without a limit every offered row is kept: a morsel is moved in whole (a
// streamed child's later batches are appended to it), and TakeRun stably
// sorts a row index and gathers the rows once. Under a limit k the rows
// stream through a bounded max-heap whose top is the worst kept row in
// (key, input position) order; evicted rows stay in the pool until as many
// have piled up as are kept, then the pool is compacted, so the working set
// stays O(k).
class SortOp::RunBuilder {
 public:
  explicit RunBuilder(const SortOp& op) : op_(op) {}

  /// Offers every row of `batch`, in order, after the rows offered before.
  Status Offer(RecordBatch batch) {
    if (!op_.limit_.has_value()) return Keep(std::move(batch));
    const size_t k = *op_.limit_;
    if (pos_ == 0) pool_ = RecordBatch(batch.schema());
    const auto worse = [this](const Entry& a, const Entry& b) {
      return Before(a, b);
    };
    for (size_t r = 0; r < batch.num_rows(); ++r, ++pos_) {
      if (heap_.size() < k) {
        pool_.AppendRowFrom(batch, r);
        heap_.push_back({static_cast<uint32_t>(pool_.num_rows() - 1), pos_});
        std::push_heap(heap_.begin(), heap_.end(), worse);
        continue;
      }
      // A new row displaces the worst kept row only when it sorts strictly
      // before it on the keys: on a tie the kept row's input position is
      // smaller, so stability keeps it — exactly what the unlimited sort
      // followed by LimitOp(k) would retain.
      if (k == 0 || op_.CompareRows(batch, r, pool_, heap_.front().row) >= 0) {
        continue;
      }
      std::pop_heap(heap_.begin(), heap_.end(), worse);
      pool_.AppendRowFrom(batch, r);
      heap_.back() = {static_cast<uint32_t>(pool_.num_rows() - 1), pos_};
      std::push_heap(heap_.begin(), heap_.end(), worse);
      if (pool_.num_rows() - heap_.size() >= k) {
        ECODB_RETURN_IF_ERROR(GatherPool(KeptRows(), &pool_));
      }
    }
    return Status::OK();
  }

  /// Moves the kept rows, in output order, into `run`.
  Status TakeRun(Run* run) {
    std::vector<uint32_t> order;
    if (op_.limit_.has_value()) {
      std::sort(heap_.begin(), heap_.end(),
                [this](const Entry& a, const Entry& b) {
                  return Before(a, b);
                });
      order = KeptRows();
    } else {
      order.resize(pool_.num_rows());
      std::iota(order.begin(), order.end(), uint32_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [this](uint32_t a, uint32_t b) {
                         return op_.CompareRows(pool_, a, pool_, b) < 0;
                       });
    }
    run->rows_in = pos_;
    return GatherPool(order, &run->rows);
  }

 private:
  /// A kept candidate: a row in pool_ plus its input position.
  struct Entry {
    uint32_t row;
    uint64_t pos;
  };

  /// Appends every row of `batch` to the pool, moving the first batch in.
  Status Keep(RecordBatch batch) {
    const size_t n = batch.num_rows();
    if (pos_ == 0) {
      pool_ = std::move(batch);
    } else {
      while (all_rows_.size() < n) {
        all_rows_.push_back(static_cast<uint32_t>(all_rows_.size()));
      }
      pool_.Gather(batch, std::span(all_rows_).first(n));
      ECODB_RETURN_IF_ERROR(pool_.SealRows(pos_ + n));
    }
    pos_ += n;
    return Status::OK();
  }

  /// True when `a` precedes `b` in the output order (keys, then input
  /// position). A strict total order: no two entries share pos.
  bool Before(const Entry& a, const Entry& b) const {
    const int cmp = op_.CompareRows(pool_, a.row, pool_, b.row);
    if (cmp != 0) return cmp < 0;
    return a.pos < b.pos;
  }

  /// The kept rows' pool indexes in heap_ order; renumbers heap_ to the
  /// rows they become once gathered in that order.
  std::vector<uint32_t> KeptRows() {
    std::vector<uint32_t> rows(heap_.size());
    for (size_t i = 0; i < heap_.size(); ++i) {
      rows[i] = heap_[i].row;
      heap_[i].row = static_cast<uint32_t>(i);
    }
    return rows;
  }

  /// Copies the pool's rows `order`, in that order, into `out` (which may
  /// be the pool itself).
  Status GatherPool(std::span<const uint32_t> order, RecordBatch* out) {
    RecordBatch gathered(pool_.schema());
    gathered.Gather(pool_, order);
    ECODB_RETURN_IF_ERROR(gathered.SealRows(order.size()));
    *out = std::move(gathered);
    return Status::OK();
  }

  const SortOp& op_;
  RecordBatch pool_;
  std::vector<Entry> heap_;  // max-heap on Before: front = worst kept
  std::vector<uint32_t> all_rows_;  // 0, 1, 2, ...: selects a whole batch
  uint64_t pos_ = 0;
};

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys,
               uint64_t memory_budget_bytes,
               storage::StorageDevice* spill_device,
               std::optional<size_t> limit)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      memory_budget_bytes_(memory_budget_bytes),
      spill_device_(spill_device),
      limit_(limit) {}

int SortOp::CompareRows(const RecordBatch& a, size_t ra, const RecordBatch& b,
                        size_t rb) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    const int idx = key_idx_[k];
    const int cmp = CompareLane(a.column(idx), ra, b.column(idx), rb);
    if (cmp != 0) return keys_[k].ascending ? cmp : -cmp;
  }
  return 0;
}

Status SortOp::FormRuns() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  auto* source = dynamic_cast<MorselSource*>(child_.get());
  if (source != nullptr) {
    const size_t n_morsels = source->morsel_count();
    runs_.assign(n_morsels, Run{});
    WorkerPool* pool = ctx_->worker_pool();
    std::vector<WorkAccumulator> accs(
        static_cast<size_t>(pool->parallelism()));
    ECODB_RETURN_IF_ERROR(
        pool->Run(n_morsels, [&](size_t m, int slot) -> Status {
          // ecodb-lint: worker-context
          RecordBatch batch;
          ECODB_RETURN_IF_ERROR(source->ProduceMorsel(
              m, &batch, &accs[static_cast<size_t>(slot)]));
          RunBuilder builder(*this);
          ECODB_RETURN_IF_ERROR(builder.Offer(std::move(batch)));
          return builder.TakeRun(&runs_[m]);
        }));
    for (const WorkAccumulator& acc : accs) ctx_->MergeWork(acc);
  } else {
    // Any other child streams batch by batch into one run; under a limit
    // at most 2k of its rows are ever held.
    RunBuilder builder(*this);
    bool eos = false;
    while (true) {
      ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
      RecordBatch batch;
      ECODB_RETURN_IF_ERROR(child_->Next(&batch, &eos));
      if (eos) break;
      ECODB_RETURN_IF_ERROR(builder.Offer(std::move(batch)));
    }
    runs_.assign(1, Run{});
    ECODB_RETURN_IF_ERROR(builder.TakeRun(&runs_[0]));
  }
  // Runs that keep no rows (fully filtered morsels, or any run at limit 0)
  // are dropped in morsel order, which keeps run indexes — the merge
  // tie-break — dense and deterministic.
  std::erase_if(runs_, [](const Run& r) { return r.rows.num_rows() == 0; });
  num_runs_ = runs_.size();
  return Status::OK();
}

Status SortOp::SettleRunCharges() {
  // ecodb-lint: coordinator-only
  const CostConstants& c = ctx_->options().costs;
  const double n_keys = static_cast<double>(keys_.size());
  const uint64_t row_width =
      static_cast<uint64_t>(child_->output_schema().RowWidthBytes());

  // Run formation: each run pays its own comparison ladder, n·log2(n) or,
  // under a limit, the bounded heap's. Summed in run order on the
  // coordinator so the floating-point total is dop-invariant (run sizes
  // derive from morsel boundaries, not from dop).
  double formation = 0.0;
  uint64_t kept_bytes = 0;
  for (const Run& run : runs_) {
    const double n = static_cast<double>(run.rows_in);
    if (limit_.has_value()) {
      formation += TopKCompareInstructions(
          c, n, static_cast<double>(*limit_), n_keys);
    } else if (n > 1) {
      formation += SortLadderInstructions(c, n, n, n_keys);
    }
    kept_bytes += run.rows.num_rows() * row_width;
  }
  ctx_->ChargeInstructions(formation);
  ctx_->ChargeDram(std::min<uint64_t>(kept_bytes, memory_budget_bytes_));

  // External spill: every run is written once as it forms — a per-run
  // sequential stream billed on the device's timeline, in run order. Under
  // a limit only the kept candidates count, so a k-row working set that
  // fits the budget never touches the device.
  if (kept_bytes > memory_budget_bytes_ && spill_device_ != nullptr) {
    spilled_ = true;
    // Runs whose byte offset lies below the spill_write_charged_ watermark
    // were already billed by a previous Open of this query; a retried Open
    // forms the same runs at the same offsets, so skipping them keeps the
    // device billed exactly once per spilled byte.
    uint64_t offset = 0;
    for (const Run& run : runs_) {
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

Status SortOp::MergeRuns() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  partitions_.clear();
  num_partitions_ = 0;
  const CostConstants& c = ctx_->options().costs;
  const double n_keys = static_cast<double>(keys_.size());
  const uint64_t row_width =
      static_cast<uint64_t>(child_->output_schema().RowWidthBytes());
  const size_t n_runs = runs_.size();
  uint64_t total_rows = 0;
  for (const Run& run : runs_) total_rows += run.rows.num_rows();

  // The merge reads every spilled run back exactly once (per-run charge,
  // run order); spill_read_charged_ keeps a retried Open from re-billing
  // reads the merge already consumed.
  if (spilled_ && !spill_read_charged_) {
    for (const Run& run : runs_) {
      ECODB_RETURN_IF_ERROR(
          ctx_->ChargeRead(spill_device_, run.rows.num_rows() * row_width,
                           /*sequential=*/true));
    }
    spill_read_charged_ = true;
  }

  if (n_runs <= 1) {
    // One run is already the output: under a limit it kept at most k rows.
    if (n_runs == 1) partitions_.push_back(std::move(runs_[0].rows));
    num_partitions_ = n_runs;
    runs_.clear();
    return Status::OK();
  }

  // Rows the output keeps: all of them, or the first k under a limit.
  const uint64_t take =
      limit_.has_value() ? std::min<uint64_t>(*limit_, total_rows)
                         : total_rows;

  if (limit_.has_value()) {
    // A limited merge is billed as the coordinator's: its log2(R) ladder
    // over every candidate row and the k-row emission are serial Amdahl
    // terms (the cost model's top-k SortDemand prices the same split).
    ctx_->ChargeSerialInstructions(
        SortLadderInstructions(c, static_cast<double>(total_rows),
                               static_cast<double>(n_runs), n_keys) +
        c.output_per_row * static_cast<double>(take));
  } else {
    // Merge fan-in: every row climbs a log2(R) comparison ladder inside its
    // partition (parallel), while splitter selection and partition
    // stitching stay on the coordinator (serial Amdahl term; the cost model
    // prices the same split).
    ctx_->ChargeInstructions(
        SortLadderInstructions(c, static_cast<double>(total_rows),
                               static_cast<double>(n_runs), n_keys));
    ctx_->ChargeSerialInstructions(c.output_per_row *
                                   static_cast<double>(total_rows));
  }

  // Splitter selection: a fixed, evenly spaced sample from each sorted run,
  // ordered by (key, run, position) — deterministic for a given input.
  struct Ref {
    size_t run;
    size_t pos;
  };
  std::vector<Ref> samples;
  for (size_t r = 0; r < n_runs; ++r) {
    const size_t n = runs_[r].rows.num_rows();
    const size_t take_samples = std::min(n, kSamplesPerRun);
    for (size_t k = 0; k < take_samples; ++k) {
      samples.push_back({r, k * n / take_samples});
    }
  }
  std::sort(samples.begin(), samples.end(), [&](const Ref& x, const Ref& y) {
    const int cmp =
        CompareRows(runs_[x.run].rows, x.pos, runs_[y.run].rows, y.pos);
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
  for (size_t r = 0; r < n_runs; ++r) {
    bounds[r][n_parts] = runs_[r].rows.num_rows();
  }
  for (size_t p = 1; p < n_parts; ++p) {
    const Ref split = samples[p * samples.size() / n_parts];
    for (size_t r = 0; r < n_runs; ++r) {
      size_t lo = bounds[r][p - 1], hi = runs_[r].rows.num_rows();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (CompareRows(runs_[r].rows, mid, runs_[split.run].rows,
                        split.pos) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      bounds[r][p] = lo;
    }
  }

  // Partition p emits its rows that fall among the first `take`: all of
  // them without a limit; under one, what the partitions before it left.
  std::vector<uint64_t> quota(n_parts);
  uint64_t before = 0;
  for (size_t p = 0; p < n_parts; ++p) {
    uint64_t size = 0;
    for (size_t r = 0; r < n_runs; ++r) {
      size += bounds[r][p + 1] - bounds[r][p];
    }
    quota[p] = std::min(size, take - std::min(take, before));
    before += size;
  }

  // Cooperative merge: one worker task per partition, k-way heap merge of
  // the runs' segments with ties broken by (run, position) — equal to the
  // input's global order, so output matches a stable sort exactly.
  partitions_.assign(n_parts, RecordBatch{});
  WorkerPool* pool = ctx_->worker_pool();
  ECODB_RETURN_IF_ERROR(pool->Run(n_parts, [&](size_t p, int) -> Status {
    // ecodb-lint: worker-context
    const auto after = [&](const Ref& x, const Ref& y) {
      const int cmp =
          CompareRows(runs_[x.run].rows, x.pos, runs_[y.run].rows, y.pos);
      if (cmp != 0) return cmp > 0;
      if (x.run != y.run) return x.run > y.run;
      return x.pos > y.pos;
    };
    std::priority_queue<Ref, std::vector<Ref>, decltype(after)> heap(after);
    for (size_t r = 0; r < n_runs; ++r) {
      if (bounds[r][p] < bounds[r][p + 1]) heap.push({r, bounds[r][p]});
    }
    RecordBatch out(child_->output_schema());
    while (out.num_rows() < quota[p]) {
      Ref top = heap.top();
      heap.pop();
      out.AppendRowFrom(runs_[top.run].rows, top.pos);
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
  key_idx_.clear();
  for (const SortKey& k : keys_) {
    const int idx = child_->output_schema().FindColumn(k.column);
    if (idx < 0) return Status::NotFound("sort column '" + k.column + "'");
    key_idx_.push_back(idx);
  }
  runs_.clear();
  partitions_.clear();
  num_runs_ = 0;
  num_partitions_ = 0;
  spilled_ = false;
  cursor_ = 0;
  ECODB_RETURN_IF_ERROR(FormRuns());
  ECODB_RETURN_IF_ERROR(SettleRunCharges());
  return MergeRuns();
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
