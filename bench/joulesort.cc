// JouleSort-style benchmark (Section 2.3 cites JouleSort [RSR+07]: "a
// balanced energy-efficiency benchmark" measuring records sorted per Joule).
//
// The harness sorts a fixed record set through the engine's sort operator
// and reports records/Joule across two sweeps:
//
//  1. Configuration sweep (SortOp at dop 1): in-memory vs external sorts
//     spilling to SSD and to disk, and a low-power-CPU platform — the
//     memory/I/O/platform balance JouleSort is about.
//  2. Dop sweep (the same SortOp): dop 1/2/4/8, in-memory and spilling.
//     Results and modeled charges are dop-invariant; only the CPU critical
//     path — and with it the energy window — shrinks (race-to-idle).
//     Emitted as schema-versioned JSON lines for plotting (see
//     EXPERIMENTS.md "JouleSort methodology").

#include <cinttypes>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

constexpr int kRecords = 200000;

Schema RecordSchema() {
  // JouleSort records: 10-byte key, 90-byte payload (modeled widths).
  return Schema({Column{"key", DataType::kInt64, 8},
                 Column{"payload", DataType::kString, 90}});
}

std::vector<storage::ColumnData> MakeRecords() {
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kString;
  Rng rng(1977);
  for (int i = 0; i < kRecords; ++i) {
    cols[0].i64.push_back(static_cast<int64_t>(rng.Next() >> 1));
    cols[1].str.push_back(rng.AlphaString(12));  // stand-in payload
  }
  return cols;
}

struct SortOutcome {
  double seconds = 0;
  double joules = 0;
  double cpu_core_seconds = 0;
  double cpu_elapsed_seconds = 0;
  int active_cores = 1;
  uint64_t io_bytes = 0;
  bool spilled = false;
  bool sorted = true;
  double RecordsPerJoule() const {
    return joules > 0 ? kRecords / joules : 0;
  }
};

/// Sorts `records` at the given dop. The rows and the modeled charges are
/// the same at every dop — the engine's determinism contract (DESIGN.md
/// §7).
SortOutcome RunSort(power::HardwarePlatform* platform,
                    storage::StorageDevice* table_device,
                    storage::StorageDevice* spill_device,
                    uint64_t memory_budget,
                    const std::vector<storage::ColumnData>& records,
                    int dop) {
  storage::TableStorage table(1, RecordSchema(),
                              storage::TableLayout::kColumn, table_device);
  if (!table.Append(records).ok()) std::exit(1);

  exec::ExecOptions options;
  options.dop = dop;
  exec::ExecContext ctx(platform, options);
  const std::vector<exec::SortKey> keys = {{"key", true}};
  exec::SortOp sort(std::make_unique<exec::TableScanOp>(&table), keys,
                    memory_budget, spill_device);
  auto result = exec::CollectAll(&sort, &ctx);
  if (!result.ok()) std::exit(1);
  const exec::QueryStats stats = ctx.Finish();

  SortOutcome out;
  out.seconds = stats.elapsed_seconds;
  out.joules = stats.Joules();
  out.cpu_core_seconds = stats.cpu_seconds;
  out.cpu_elapsed_seconds = stats.cpu_elapsed_seconds;
  out.active_cores = stats.active_cores;
  out.io_bytes = stats.io_bytes;
  out.spilled = sort.spilled();
  int64_t prev = INT64_MIN;
  size_t rows = 0;
  for (const auto& batch : result->batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t k = batch.column(0).i64[r];
      if (k < prev) out.sorted = false;
      prev = k;
      ++rows;
    }
  }
  if (rows != static_cast<size_t>(kRecords)) out.sorted = false;
  return out;
}

struct TopKOutcome {
  double seconds = 0;
  double joules = 0;
  double cpu_core_seconds = 0;
  double cpu_elapsed_seconds = 0;
  double instructions = 0;
  uint64_t io_bytes = 0;
  uint64_t spill_bytes = 0;
  std::vector<std::pair<int64_t, std::string>> rows;
  bool sorted = true;
};

/// ORDER BY key LIMIT k through either the fused top-k (SortOp with a
/// limit) or the unfused SortOp + LimitOp pair.
/// Both emit byte-identical rows; the fused path does O(n log k) work and
/// only spills its k-row candidate set.
TopKOutcome RunTopK(power::HardwarePlatform* platform, uint64_t memory_budget,
                    const std::vector<storage::ColumnData>& records, int dop,
                    size_t k, bool fused) {
  storage::SsdDevice ssd("data-ssd", power::SsdSpec{}, platform->meter());
  storage::TableStorage table(1, RecordSchema(),
                              storage::TableLayout::kColumn, &ssd);
  if (!table.Append(records).ok()) std::exit(1);
  const uint64_t scan_bytes = table.ScanBytes({0, 1});

  exec::ExecOptions options;
  options.dop = dop;
  exec::ExecContext ctx(platform, options);
  const std::vector<exec::SortKey> keys = {{"key", true}};
  exec::OperatorPtr root;
  if (fused) {
    root = std::make_unique<exec::SortOp>(
        std::make_unique<exec::TableScanOp>(&table), keys, memory_budget,
        &ssd, k);
  } else {
    root = std::make_unique<exec::LimitOp>(
        std::make_unique<exec::SortOp>(
            std::make_unique<exec::TableScanOp>(&table), keys, memory_budget,
            &ssd),
        k);
  }
  auto result = exec::CollectAll(root.get(), &ctx);
  if (!result.ok()) std::exit(1);
  const exec::QueryStats stats = ctx.Finish();

  TopKOutcome out;
  out.seconds = stats.elapsed_seconds;
  out.joules = stats.Joules();
  out.cpu_core_seconds = stats.cpu_seconds;
  out.cpu_elapsed_seconds = stats.cpu_elapsed_seconds;
  out.instructions = stats.cpu_instructions;
  out.io_bytes = stats.io_bytes;
  out.spill_bytes =
      stats.io_bytes > scan_bytes ? stats.io_bytes - scan_bytes : 0;
  int64_t prev = INT64_MIN;
  for (const auto& batch : result->batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t key = batch.column(0).i64[r];
      if (key < prev) out.sorted = false;
      prev = key;
      out.rows.emplace_back(key, batch.column(1).str[r]);
    }
  }
  if (out.rows.size() != std::min<size_t>(k, kRecords)) out.sorted = false;
  return out;
}

/// True when `fused` bills no more instructions, spill bytes or Joules
/// than `unfused`, and exactly as much when `covers` (k >= n).
bool NoMoreThan(const TopKOutcome& fused, const TopKOutcome& unfused,
                bool covers) {
  if (covers) {
    return fused.instructions == unfused.instructions &&
           fused.spill_bytes == unfused.spill_bytes &&
           fused.joules == unfused.joules;
  }
  return fused.instructions <= unfused.instructions &&
         fused.spill_bytes <= unfused.spill_bytes &&
         fused.joules <= unfused.joules;
}

}  // namespace

int Main() {
  bench::Banner(
      "JouleSort-style: records sorted per Joule across configurations",
      "200k records (10 B key + 90 B payload modeled); in-memory vs "
      "external sorts; server vs low-power platform; dop sweep");

  const auto records = MakeRecords();
  bench::Table table({"configuration", "time (s)", "energy (J)", "spilled",
                      "records/J"});

  struct Config {
    const char* name;
    bool low_power;
    bool spill_to_hdd;
    uint64_t budget;
  };
  const uint64_t full = UINT64_MAX;
  const uint64_t tight = 2ULL << 20;  // forces the external path
  const Config configs[] = {
      {"server, in-memory", false, false, full},
      {"server, external on SSD", false, false, tight},
      {"server, external on disk", false, true, tight},
      {"low-power node, in-memory", true, false, full},
  };

  std::vector<SortOutcome> outcomes;
  for (const Config& c : configs) {
    auto platform = c.low_power ? power::MakeProportionalPlatform()
                                : power::MakeDl785Platform();
    storage::SsdDevice ssd("data-ssd", power::SsdSpec{}, platform->meter());
    storage::HddDevice hdd("spill-hdd", power::HddSpec{}, platform->meter());
    storage::StorageDevice* spill = c.spill_to_hdd
                                        ? static_cast<storage::StorageDevice*>(&hdd)
                                        : &ssd;
    const SortOutcome out = RunSort(platform.get(), &ssd, spill, c.budget,
                                    records, /*dop=*/1);
    outcomes.push_back(out);
    table.AddRow({c.name, bench::Fmt("%.3f", out.seconds),
                  bench::Fmt("%.1f", out.joules),
                  out.spilled ? "yes" : "no",
                  bench::Fmt("%.0f", out.RecordsPerJoule())});
    if (!out.sorted) {
      std::printf("FAIL: output not sorted for %s\n", c.name);
      return 1;
    }
  }
  table.Print();

  // Shape: spilling costs energy; spilling to disk costs more than SSD;
  // the balanced low-power node wins records/Joule (JouleSort's finding).
  bool shape = outcomes[1].joules > outcomes[0].joules &&
               outcomes[2].joules > outcomes[1].joules &&
               outcomes[3].RecordsPerJoule() >
                   outcomes[0].RecordsPerJoule();
  std::printf("shape check (spill costs energy; disk > SSD; balanced "
              "low-power node wins records/J): %s\n\n",
              shape ? "PASS" : "FAIL");

  // --- Dop sweep: the same external sort at every dop, JSON lines ---------
  // Header line pins the schema version and the workload; one line per
  // (dop, spill) point follows. Busy core-seconds stay constant across dop
  // while the CPU critical path shrinks — parallelism only narrows the
  // energy window (race-to-idle), it never changes the modeled work.
  // Dop candidates come from the platform's core count (the engine-level
  // ladder policy), not a hand-picked list.
  const std::vector<int> dops = [] {
    auto p = power::MakeDl785Platform();
    return optimizer::PlatformDopLadder(*p);
  }();
  std::printf("{\"schema\":\"ecodb.joulesort.v1\",\"records\":%d,"
              "\"key_bytes\":10,\"payload_bytes\":90,\"platform\":\"dl785\"}"
              "\n",
              kRecords);
  bool sweep_ok = true;
  for (const bool spill : {false, true}) {
    SortOutcome base;
    for (const int dop : dops) {
      auto platform = power::MakeDl785Platform();
      storage::SsdDevice ssd("data-ssd", power::SsdSpec{}, platform->meter());
      const SortOutcome out = RunSort(platform.get(), &ssd, &ssd,
                                      spill ? tight : full, records, dop);
      std::printf(
          "{\"bench\":\"joulesort\",\"dop\":%d,\"spill\":\"%s\","
          "\"sim_seconds\":%.6f,\"joules\":%.3f,\"records_per_joule\":%.1f,"
          "\"cpu_core_seconds\":%.6f,\"cpu_elapsed_seconds\":%.6f,"
          "\"active_cores\":%d,\"io_bytes\":%" PRIu64 "}\n",
          dop, spill ? "ssd" : "none", out.seconds, out.joules,
          out.RecordsPerJoule(), out.cpu_core_seconds,
          out.cpu_elapsed_seconds, out.active_cores, out.io_bytes);
      if (!out.sorted || out.spilled != spill) sweep_ok = false;
      if (dop == 1) {
        base = out;
      } else {
        // Modeled work is dop-invariant; the critical path is not.
        if (std::abs(out.cpu_core_seconds - base.cpu_core_seconds) >
            1e-9 * base.cpu_core_seconds) {
          sweep_ok = false;
        }
        if (out.io_bytes != base.io_bytes) sweep_ok = false;
        if (out.cpu_elapsed_seconds >= base.cpu_elapsed_seconds) {
          sweep_ok = false;
        }
      }
    }
  }
  std::printf("dop sweep check (busy core-seconds and io bytes constant; "
              "cpu critical path shrinks with dop): %s\n",
              sweep_ok ? "PASS" : "FAIL");

  // --- Top-k sweep: ORDER BY + LIMIT, fused vs sort-then-limit ------------
  // For each k the same query runs fused (the sort's own limit, the one
  // tree the planner builds) and unfused (full external sort, then limit)
  // across the platform dop ladder, under a budget the full sort must
  // spill. At every (k, dop) the fused path bills no more instructions,
  // spill bytes or Joules than the unfused one, and exactly as much at
  // k = n. Small k is where the energy drops: the fused path does
  // O(n log k) comparisons and writes zero spill bytes when its k-row
  // candidate set fits the budget.
  std::printf("\n{\"schema\":\"ecodb.topk.v1\",\"records\":%d,"
              "\"platform\":\"dl785\",\"budget_bytes\":%" PRIu64
              ",\"ks\":[1,10,100,%d]}\n",
              kRecords, tight, kRecords);
  bool topk_ok = true;
  for (const size_t k : {size_t{1}, size_t{10}, size_t{100},
                         size_t{kRecords}}) {
    TopKOutcome fused_base, unfused_base;
    std::vector<TopKOutcome> fused_at_dop;
    for (const bool fused : {true, false}) {
      TopKOutcome base;
      for (size_t d = 0; d < dops.size(); ++d) {
        const int dop = dops[d];
        auto platform = power::MakeDl785Platform();
        const TopKOutcome out =
            RunTopK(platform.get(), tight, records, dop, k, fused);
        std::printf(
            "{\"bench\":\"topk\",\"k\":%zu,\"path\":\"%s\",\"dop\":%d,"
            "\"sim_seconds\":%.6f,\"joules\":%.3f,\"instructions\":%.1f,"
            "\"cpu_core_seconds\":%.6f,\"cpu_elapsed_seconds\":%.6f,"
            "\"io_bytes\":%" PRIu64 ",\"spill_bytes\":%" PRIu64 "}\n",
            k, fused ? "topk" : "sort+limit", dop, out.seconds, out.joules,
            out.instructions, out.cpu_core_seconds, out.cpu_elapsed_seconds,
            out.io_bytes, out.spill_bytes);
        if (!out.sorted) topk_ok = false;
        if (fused) {
          fused_at_dop.push_back(out);
        } else if (!NoMoreThan(fused_at_dop[d], out, k >= kRecords)) {
          topk_ok = false;
        }
        if (dop == dops.front()) {
          base = out;
        } else {
          // Determinism contract: rows and modeled charges are
          // dop-invariant; only the critical path may shrink.
          if (out.rows != base.rows) topk_ok = false;
          if (out.instructions != base.instructions) topk_ok = false;
          if (out.io_bytes != base.io_bytes) topk_ok = false;
          if (std::abs(out.cpu_core_seconds - base.cpu_core_seconds) >
              1e-9 * base.cpu_core_seconds) {
            topk_ok = false;
          }
        }
      }
      (fused ? fused_base : unfused_base) = base;
    }
    // Plan equivalence: the fused path is just a cheaper physical plan.
    if (fused_base.rows != unfused_base.rows) topk_ok = false;
    if (k <= 100) {
      if (!(fused_base.instructions < unfused_base.instructions)) {
        topk_ok = false;
      }
      if (fused_base.spill_bytes != 0 || unfused_base.spill_bytes == 0) {
        topk_ok = false;
      }
      if (!(fused_base.joules < unfused_base.joules)) topk_ok = false;
    }
  }
  std::printf("top-k sweep check (fused rows identical; charges "
              "dop-invariant; fewer instructions, zero spill bytes, fewer "
              "Joules for k <= 100): %s\n",
              topk_ok ? "PASS" : "FAIL");
  return (shape && sweep_ok && topk_ok) ? 0 : 1;
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
