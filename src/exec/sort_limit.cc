#include "exec/sort_limit.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <numeric>
#include <queue>
#include <span>
#include <utility>

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

/// Writes one word per value of `lane` whose unsigned order is the lane's
/// ascending order wherever two words differ (DESIGN §7): int64 and date
/// with the sign bit flipped; a double as its total-order bits, with -0.0
/// as +0.0 and every NaN as ~0; a string as its first 7 bytes, unsigned
/// and big-endian, above min(length, 8) in the low byte. Equal values get
/// equal words, and so do strings of 8 or more bytes that share their
/// first 7. DESC inverts every word.
void SortWords(const storage::ColumnData& lane, bool ascending,
               uint64_t* out) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  const uint64_t flip = ascending ? 0 : ~uint64_t{0};
  switch (lane.type) {
    case DataType::kInt64:
    case DataType::kDate:
      for (size_t r = 0; r < lane.i64.size(); ++r) {
        out[r] = (static_cast<uint64_t>(lane.i64[r]) ^ kSign) ^ flip;
      }
      break;
    case DataType::kDouble:
      for (size_t r = 0; r < lane.f64.size(); ++r) {
        const double v = lane.f64[r] == 0.0 ? 0.0 : lane.f64[r];
        uint64_t bits = ~uint64_t{0};
        if (!std::isnan(v)) {
          std::memcpy(&bits, &v, sizeof(bits));
          bits = (bits & kSign) != 0 ? ~bits : bits | kSign;
        }
        out[r] = bits ^ flip;
      }
      break;
    case DataType::kString:
      for (size_t r = 0; r < lane.str.size(); ++r) {
        const std::string& s = lane.str[r];
        uint64_t word = std::min<size_t>(s.size(), 8);
        for (size_t i = 0; i < std::min<size_t>(s.size(), 7); ++i) {
          word |= uint64_t{static_cast<unsigned char>(s[i])} << (56 - 8 * i);
        }
        out[r] = word ^ flip;
      }
      break;
  }
}

/// Stably sorts `words` ascending and permutes `rows` alongside: an LSD
/// radix sort on 8-bit digits that skips every digit all the words share.
void RadixSort(std::vector<uint64_t>* words, std::vector<uint32_t>* rows) {
  const size_t n = words->size();
  std::array<std::array<uint32_t, 256>, 8> counts{};
  for (uint64_t w : *words) {
    for (size_t d = 0; d < 8; ++d) ++counts[d][(w >> (8 * d)) & 0xff];
  }
  std::vector<uint64_t> words_out(n);
  std::vector<uint32_t> rows_out(n);
  for (size_t d = 0; d < 8 && n > 1; ++d) {
    const size_t shift = 8 * d;
    std::array<uint32_t, 256>& next = counts[d];
    if (next[((*words)[0] >> shift) & 0xff] == n) continue;
    uint32_t start = 0;
    for (uint32_t& c : next) start += std::exchange(c, start);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t to = next[((*words)[i] >> shift) & 0xff]++;
      words_out[to] = (*words)[i];
      rows_out[to] = (*rows)[i];
    }
    words->swap(words_out);
    rows->swap(rows_out);
  }
}

/// A row of a sorted run: its first-key word, the run and its position.
struct RunRow {
  uint64_t word;
  uint32_t run;
  uint32_t pos;
};

/// Appends row `p.pos` of `runs[p.run]` for each pick, in order, to `out`
/// in batches of at most `batch_rows` rows, one column at a time.
Status EmitPicks(std::span<const RunRow> picks,
                 std::span<const RecordBatch* const> runs,
                 const catalog::Schema& schema, size_t batch_rows,
                 std::vector<RecordBatch>* out) {
  std::vector<const ColumnData*> lanes(runs.size());
  for (size_t s = 0; s < picks.size(); s += batch_rows) {
    const std::span<const RunRow> slice =
        picks.subspan(s, std::min(batch_rows, picks.size() - s));
    RecordBatch& batch = out->emplace_back(schema);
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      for (size_t r = 0; r < runs.size(); ++r) lanes[r] = &runs[r]->column(c);
      const auto gather = [&](auto lane, auto& dst) {
        dst.reserve(slice.size());
        for (const RunRow& p : slice) {
          dst.push_back((lanes[p.run]->*lane)[p.pos]);
        }
      };
      ColumnData& dst = batch.column(c);
      switch (dst.type) {
        case DataType::kInt64:
        case DataType::kDate:
          gather(&ColumnData::i64, dst.i64);
          break;
        case DataType::kDouble:
          gather(&ColumnData::f64, dst.f64);
          break;
        case DataType::kString:
          gather(&ColumnData::str, dst.str);
          break;
      }
    }
    ECODB_RETURN_IF_ERROR(batch.SealRows(slice.size()));
  }
  return Status::OK();
}

}  // namespace

// Without a limit every offered row is kept: a morsel is moved in whole (a
// streamed child's later batches are appended to it). Under a limit k the
// rows stream through a bounded max-heap whose top is the worst kept row in
// (key, input position) order. The rows of a batch that enter the heap are
// gathered into the pool once, column by column, when the batch is done;
// evicted rows stay in the pool until as many have piled up as are kept,
// then the pool is compacted, so the working set stays O(k + batch).
// Either way TakeRun radix-sorts the kept rows' (word, row) pairs, orders
// each range of equal words on the keys when the word is not the whole
// key, and copies the rows once in that order, column by column.
class SortOp::RunBuilder {
 public:
  explicit RunBuilder(const SortOp& op) : op_(op) {}

  /// Offers every row of `batch`, in order, after the rows offered before.
  Status Offer(RecordBatch batch) {
    if (!op_.limit_.has_value()) return Keep(std::move(batch));
    const size_t k = *op_.limit_;
    if (pos_ == 0) pool_ = RecordBatch(batch.schema());
    op_.EncodeWords(batch, &words_);
    entering_.clear();
    const auto worse = [&](const Entry& a, const Entry& b) {
      return Before(a, b, batch);
    };
    for (size_t r = 0; r < batch.num_rows(); ++r, ++pos_) {
      entering_.push_back(static_cast<uint32_t>(r));
      const Entry entry{
          words_[r],
          static_cast<uint32_t>(pool_.num_rows() + entering_.size() - 1),
          pos_};
      if (heap_.size() < k) {
        heap_.push_back(entry);
        std::push_heap(heap_.begin(), heap_.end(), worse);
        continue;
      }
      // A new row displaces the worst kept row only when it sorts strictly
      // before it on the keys: on a tie the kept row's input position is
      // smaller, so stability keeps it — exactly what the unlimited sort
      // followed by LimitOp(k) would retain.
      if (k == 0 || !worse(entry, heap_.front())) {
        entering_.pop_back();
        continue;
      }
      std::pop_heap(heap_.begin(), heap_.end(), worse);
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end(), worse);
    }
    pool_.Gather(batch, entering_);
    ECODB_RETURN_IF_ERROR(pool_.SealRows(pool_.num_rows() + entering_.size()));
    if (pool_.num_rows() - heap_.size() >= k) CompactPool();
    return Status::OK();
  }

  /// Moves the kept rows, in output order, and their words into `run`.
  Status TakeRun(Run* run) {
    if (op_.limit_.has_value()) CompactPool();
    run->rows_in = pos_;
    op_.EncodeWords(pool_, &run->words);
    std::vector<uint32_t> order(run->words.size());
    std::iota(order.begin(), order.end(), uint32_t{0});
    RadixSort(&run->words, &order);
    // Rows with equal words are in input order; where the word is not the
    // whole key, each such range is stably sorted on the keys.
    const std::vector<uint64_t>& w = run->words;
    for (size_t i = 0, j = 0; op_.tie_key_ < op_.keys_.size() && i < w.size();
         i = j) {
      while (++j < w.size() && w[j] == w[i]) {
      }
      if (j - i < 2) continue;
      std::stable_sort(order.begin() + i, order.begin() + j,
                       [&](uint32_t a, uint32_t b) {
                         return op_.CompareRows(w[i], pool_, a, w[i], pool_,
                                                b) < 0;
                       });
    }
    run->rows = RecordBatch(pool_.schema());
    run->rows.Gather(pool_, order);
    return run->rows.SealRows(order.size());
  }

 private:
  /// A kept candidate: its first-key word, its row in pool_ (for a row of
  /// the batch being offered, the row it becomes once gathered) and its
  /// input position.
  struct Entry {
    uint64_t word;
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
  bool Before(const Entry& a, const Entry& b, const RecordBatch& batch) const {
    const auto [rows_a, row_a] = Locate(a.row, batch);
    const auto [rows_b, row_b] = Locate(b.row, batch);
    const int cmp =
        op_.CompareRows(a.word, *rows_a, row_a, b.word, *rows_b, row_b);
    if (cmp != 0) return cmp < 0;
    return a.pos < b.pos;
  }

  /// Where the row an entry names lives: in the pool, or in `batch` while
  /// it is one of the entering rows not yet gathered.
  std::pair<const RecordBatch*, size_t> Locate(
      uint32_t row, const RecordBatch& batch) const {
    const size_t pooled = pool_.num_rows();
    if (row < pooled) return {&pool_, row};
    return {&batch, entering_[row - pooled]};
  }

  /// Drops the evicted rows from the pool, keeping the rest in input
  /// order, and renumbers heap_ to the rows they become.
  void CompactPool() {
    std::vector<uint8_t> keep(pool_.num_rows(), 0);
    for (const Entry& e : heap_) keep[e.row] = 1;
    std::vector<uint32_t> renumber(pool_.num_rows());
    std::exclusive_scan(keep.begin(), keep.end(), renumber.begin(),
                        uint32_t{0});
    for (Entry& e : heap_) e.row = renumber[e.row];
    pool_.FilterInPlace(keep);
  }

  const SortOp& op_;
  RecordBatch pool_;
  std::vector<Entry> heap_;  // max-heap on Before: front = worst kept
  std::vector<uint64_t> words_;     // first-key words of the offered batch
  std::vector<uint32_t> entering_;  // its rows that entered the heap
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

void SortOp::EncodeWords(const RecordBatch& batch,
                         std::vector<uint64_t>* words) const {
  words->assign(batch.num_rows(), 0);
  if (keys_.empty() || words->empty()) return;  // an empty pool has no lanes
  SortWords(batch.column(key_idx_[0]), keys_[0].ascending, words->data());
}

int SortOp::CompareRows(uint64_t wa, const RecordBatch& a, size_t ra,
                        uint64_t wb, const RecordBatch& b, size_t rb) const {
  if (wa != wb) return wa < wb ? -1 : 1;
  for (size_t k = tie_key_; k < keys_.size(); ++k) {
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
    ECODB_RETURN_IF_ERROR(
        pool->Run(n_morsels, [&](size_t m, int /*slot*/) -> Status {
          // ecodb-lint: worker-context
          RecordBatch batch;
          ECODB_RETURN_IF_ERROR(source->ProduceMorsel(m, &batch));
          RunBuilder builder(*this);
          ECODB_RETURN_IF_ERROR(builder.Offer(std::move(batch)));
          return builder.TakeRun(&runs_[m]);
        }));
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
      formation +=
          TopKCompareInstructions(n, static_cast<double>(*limit_), n_keys);
    } else if (n > 1) {
      formation += SortLadderInstructions(n, n, n_keys);
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
  batches_.clear();
  num_partitions_ = 0;
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

  const size_t batch_rows = std::max<size_t>(1, ctx_->options().batch_rows);
  std::vector<const RecordBatch*> run_rows;
  for (const Run& run : runs_) run_rows.push_back(&run.rows);

  // Rows the output keeps: all of them, or the first k under a limit.
  const uint64_t take =
      limit_.has_value() ? std::min<uint64_t>(*limit_, total_rows)
                         : total_rows;

  // One run is already in output order, so its merge costs nothing. An
  // unlimited merge climbs its log2(R) ladder inside each partition
  // (parallel); the rest is the coordinator's serial Amdahl term (the cost
  // model's SortDemand prices the same split).
  if (n_runs > 1) {
    const double rows = static_cast<double>(total_rows);
    const double runs = static_cast<double>(n_runs);
    std::optional<double> limited_take;
    if (limit_.has_value()) {
      limited_take = static_cast<double>(take);
    } else {
      ctx_->ChargeInstructions(SortLadderInstructions(rows, runs, n_keys));
    }
    ctx_->ChargeSerialInstructions(
        SortMergeSerialInstructions(rows, runs, n_keys, limited_take));
  }

  // Output order on run rows: (key, run, position). A comparison reads the
  // rows only when their words tie.
  const auto at = [&](size_t r, size_t pos) {
    return RunRow{runs_[r].words[pos], static_cast<uint32_t>(r),
                  static_cast<uint32_t>(pos)};
  };
  const auto compare = [&](const RunRow& x, const RunRow& y) {
    return CompareRows(x.word, runs_[x.run].rows, x.pos, y.word,
                       runs_[y.run].rows, y.pos);
  };
  const auto before = [&](const RunRow& x, const RunRow& y) {
    const int cmp = compare(x, y);
    if (cmp != 0) return cmp < 0;
    if (x.run != y.run) return x.run < y.run;
    return x.pos < y.pos;
  };

  // Splitter selection: a fixed, evenly spaced sample from each sorted run,
  // ordered by (key, run, position) — deterministic for a given input.
  std::vector<RunRow> samples;
  for (size_t r = 0; r < n_runs; ++r) {
    const size_t n = runs_[r].rows.num_rows();
    const size_t take_samples = std::min(n, kSamplesPerRun);
    for (size_t k = 0; k < take_samples; ++k) {
      samples.push_back(at(r, k * n / take_samples));
    }
  }
  std::sort(samples.begin(), samples.end(), before);

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
    const RunRow split = samples[p * samples.size() / n_parts];
    for (size_t r = 0; r < n_runs; ++r) {
      size_t lo = bounds[r][p - 1], hi = runs_[r].rows.num_rows();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (compare(at(r, mid), split) < 0) {
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
  uint64_t before_rows = 0;
  for (size_t p = 0; p < n_parts; ++p) {
    uint64_t size = 0;
    for (size_t r = 0; r < n_runs; ++r) {
      size += bounds[r][p + 1] - bounds[r][p];
    }
    quota[p] = std::min(size, take - std::min(take, before_rows));
    before_rows += size;
  }

  // Cooperative merge: one worker task per partition, k-way heap merge of
  // the runs' segments with ties broken by (run, position) — equal to the
  // input's global order, so output matches a stable sort exactly. Each
  // partition picks its rows, then gathers them a column at a time.
  std::vector<std::vector<RecordBatch>> parts(n_parts);
  WorkerPool* pool = ctx_->worker_pool();
  ECODB_RETURN_IF_ERROR(pool->Run(n_parts, [&](size_t p, int) -> Status {
    // ecodb-lint: worker-context
    const auto after = [&](const RunRow& x, const RunRow& y) {
      return before(y, x);
    };
    std::priority_queue<RunRow, std::vector<RunRow>, decltype(after)> heap(
        after);
    for (size_t r = 0; r < n_runs; ++r) {
      if (bounds[r][p] < bounds[r][p + 1]) heap.push(at(r, bounds[r][p]));
    }
    std::vector<RunRow> picks(quota[p]);
    for (RunRow& top : picks) {
      top = heap.top();
      heap.pop();
      if (top.pos + 1 < bounds[top.run][p + 1]) {
        heap.push(at(top.run, top.pos + 1));
      }
    }
    return EmitPicks(picks, run_rows, child_->output_schema(), batch_rows,
                     &parts[p]);
  }));
  for (std::vector<RecordBatch>& part : parts) {
    std::move(part.begin(), part.end(), std::back_inserter(batches_));
  }
  num_partitions_ = n_parts;
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
  const bool word_is_key =
      !keys_.empty() &&
      output_schema().column(key_idx_[0]).type != DataType::kString;
  tie_key_ = word_is_key ? 1 : 0;
  runs_.clear();
  batches_.clear();
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
  *eos = cursor_ >= batches_.size();
  if (!*eos) *out = std::move(batches_[cursor_++]);
  return Status::OK();
}

void SortOp::Close() {
  runs_.clear();
  batches_.clear();
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
