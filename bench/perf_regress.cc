// Perf-regression harness: a fixed seeded suite of raw-speed measurements
// persisted as `BENCH_engine.json` (schema `ecodb.perfregress.v1`) so every
// future PR is gated against the committed baseline.
//
// Suite items:
//   - codec decode throughput for bitpack/FOR/RLE/delta (fast kernels),
//     each with its speedup over the reference scalar decoder;
//   - bare table scan over a seeded table;
//   - filter-scan rows/sec (the scan's fused exact filter over a seeded
//     table);
//   - Q1-style grouped aggregate (sum/sum-expression/count by key);
//   - full sort (ORDER BY without a limit: radix-sorted runs and the word
//     merge over every row);
//   - top-k (ORDER BY ... LIMIT through the sort's bounded-heap limit);
//   - hash join of a fact table against a dense unique dimension (the
//     shape of every foreign-key join: the build is addressed by key
//     offset and each probe row finds at most one match);
//   - hash join on one edge with a second, residual edge, against a build
//     that repeats its keys (the residual drops pairs before the gather).
//
// Wall-clock portability: absolute seconds are machine-specific, so every
// item's wall time is normalized by a calibration lane (reference scalar
// FOR decode of a fixed buffer) interleaved with the item's own reps; the
// recorded value is the median of per-rep item/calibration ratios, which
// cancels host-load drift and is robust to spike outliers. The committed
// baseline stores that *ratio*; a >10% ratio increase fails the check on
// any machine. Simulated Joules/query are deterministic by the DESIGN §7
// contract and use the same 10% gate — any drift there is an accounting
// change, not noise.
//
// Modes:
//   perf_regress --check [path]   compare against baseline (default mode;
//                                 path defaults to BENCH_engine.json)
//   perf_regress --write [path]   measure and (re)write the baseline
//   perf_regress --smoke          fewer reps + wider wall tolerance (CI)
//
// ECODB_PERF_REGRESS_SELFTEST=<mult> inflates measured wall ratios and
// Joules by <mult> after measurement; scripts/bench_regress.sh uses it to
// prove the comparator actually fails on a regression.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/aggregate.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "power/platform.h"
#include "storage/compression.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::AggFunc;
using exec::AggregateItem;
using exec::And;
using exec::Col;
using exec::ExecContext;
using exec::ExecOptions;
using exec::Lit;
using exec::QueryStats;
using storage::CompressionKind;

constexpr const char* kSchemaTag = "ecodb.perfregress.v1";
constexpr const char* kDefaultBaseline = "BENCH_engine.json";
constexpr size_t kCodecValues = 64 * 1024;
constexpr size_t kTableRows = 120000;
constexpr uint64_t kSeed = 20260808;
constexpr int64_t kJoinKeys = 4096;  // dimension rows; fact keys' domain

// One measured (or baseline) suite entry. `wall_norm` is the median
// same-window ratio of the item's wall time to the scalar-decode
// calibration lane; `joules` is the simulated energy ledger
// for query items (0 for pure codec items); `speedup` is the fast-vs-scalar
// decode ratio for codec items (0 otherwise).
struct Item {
  std::string name;
  double wall_norm = 0.0;
  double joules = 0.0;
  double speedup = 0.0;
};

struct SuiteResult {
  double calib_seconds = 0.0;
  std::vector<Item> items;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-reps wall time of `fn` in seconds (min is the standard noise
// rejection for throughput microbenchmarks).
template <typename Fn>
double BestWall(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    fn();
    const double t1 = Now();
    best = std::min(best, t1 - t0);
  }
  return best;
}

// Interleaved measurement: each rep times every lane back-to-back, so a
// host-load change hits all lanes of the same rep window alike and cancels
// in the per-rep ratio. Lanes whose single invocation is very short are
// inner-looped until each timed sample spans at least ~1 ms, so scheduler
// quanta and timer granularity do not dominate a 60 us kernel.
struct Lane {
  explicit Lane(std::function<void()> f) : fn(std::move(f)) {}
  std::function<void()> fn;
  std::vector<double> samples;  // per-invocation seconds, one per rep
  int iters = 1;
};

void MeasureInterleaved(int reps, std::vector<Lane>* lanes) {
  constexpr double kMinSampleSeconds = 4e-3;
  for (Lane& l : *lanes) {
    const double t0 = Now();
    l.fn();
    const double t1 = Now();
    const double once = std::max(t1 - t0, 1e-9);
    l.iters = static_cast<int>(
        std::min(256.0, std::max(1.0, kMinSampleSeconds / once)));
  }
  for (int r = 0; r < reps; ++r) {
    for (Lane& l : *lanes) {
      const double t0 = Now();
      for (int k = 0; k < l.iters; ++k) l.fn();
      const double t1 = Now();
      l.samples.push_back((t1 - t0) / l.iters);
    }
  }
}

// Median of per-rep num/den ratios: min-of-reps has a ~10% spread between
// a lucky run and a typical one (whether rep r hits the distribution floor
// is itself random), which flaps a 10% gate; the median of same-window
// ratios is stable run-to-run AND still shifts fully under a real
// regression, which moves every rep.
double MedianRatio(const std::vector<double>& num,
                   const std::vector<double>& den) {
  std::vector<double> r(num.size());
  for (size_t i = 0; i < num.size(); ++i) {
    r[i] = den[i] > 0.0 ? num[i] / den[i] : 0.0;
  }
  std::sort(r.begin(), r.end());
  const size_t n = r.size();
  if (n == 0) return 0.0;
  return n % 2 ? r[n / 2] : 0.5 * (r[n / 2 - 1] + r[n / 2]);
}

std::vector<int64_t> CodecData(const std::string& pattern) {
  Rng rng(kSeed);
  std::vector<int64_t> v;
  v.reserve(kCodecValues);
  for (size_t i = 0; i < kCodecValues; ++i) {
    if (pattern == "sequential") {
      v.push_back(static_cast<int64_t>(i));
    } else if (pattern == "runs") {
      v.push_back(static_cast<int64_t>(i / 64));
    } else {
      v.push_back(rng.Uniform(0, 1 << 20));
    }
  }
  return v;
}

// Decode wall time for one codec instance over a prepared buffer.
double DecodeSeconds(const storage::Int64Codec& codec,
                     const std::vector<uint8_t>& buf, int reps) {
  std::vector<int64_t> out;
  return BestWall(reps, [&] {
    if (!codec.Decode(buf, &out).ok()) {
      std::fprintf(stderr, "decode failed\n");
      std::exit(1);
    }
  });
}

struct QueryFixture {
  QueryFixture() : platform(power::MakeProportionalPlatform()) {
    ssd = std::make_unique<storage::SsdDevice>("s", power::SsdSpec{},
                                               platform->meter());
    Schema schema({Column{"k", DataType::kInt64, 8},
                   Column{"v", DataType::kInt64, 8},
                   Column{"x", DataType::kDouble, 8}});
    table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd.get());
    Rng rng(kSeed);
    std::vector<storage::ColumnData> cols(3);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    for (size_t i = 0; i < kTableRows; ++i) {
      cols[0].i64.push_back(rng.Uniform(0, 999));
      cols[1].i64.push_back(static_cast<int64_t>(i));
      cols[2].f64.push_back(static_cast<double>(rng.Uniform(0, 1 << 16)) *
                            0.25);
    }
    if (!table->Append(cols).ok()) std::abort();
  }

  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::SsdDevice> ssd;
  std::unique_ptr<storage::TableStorage> table;
};

// The join items' tables, on a platform of their own so the items above
// bill exactly as before: a fact table (fk, fm, fv) of kTableRows rows, a
// dimension (dk, dv) holding each key in [0, kJoinKeys) once, and a build
// (bk, bm, bv) holding each about four times. fm and bm are drawn from
// [0, 8), so the residual edge fm = bm keeps about one pair in eight.
struct JoinFixture {
  JoinFixture() : platform(power::MakeProportionalPlatform()) {
    ssd = std::make_unique<storage::SsdDevice>("s", power::SsdSpec{},
                                               platform->meter());
    Rng rng(kSeed + 1);
    std::vector<int64_t> dim_keys(kJoinKeys);
    for (int64_t k = 0; k < kJoinKeys; ++k) dim_keys[k] = k;
    rng.Shuffle(&dim_keys);
    fact = MakeTable(1, "f", kTableRows, [&](size_t) {
      return rng.Uniform(0, kJoinKeys - 1);
    });
    dim = MakeTable(2, "d", kJoinKeys, [&](size_t i) { return dim_keys[i]; });
    dup = MakeTable(3, "b", 4 * kJoinKeys, [&](size_t) {
      return rng.Uniform(0, kJoinKeys - 1);
    });
  }

  /// Table (<p>k, <p>m, <p>v): `key(i)`, a draw from [0, 8), then i.
  template <typename KeyFn>
  std::unique_ptr<storage::TableStorage> MakeTable(catalog::TableId id,
                                                   const std::string& p,
                                                   size_t rows, KeyFn key) {
    Schema schema({Column{p + "k", DataType::kInt64, 8},
                   Column{p + "m", DataType::kInt64, 8},
                   Column{p + "v", DataType::kInt64, 8}});
    Rng rng(kSeed + id);
    std::vector<storage::ColumnData> cols(3);
    for (storage::ColumnData& c : cols) c.type = DataType::kInt64;
    for (size_t i = 0; i < rows; ++i) {
      cols[0].i64.push_back(key(i));
      cols[1].i64.push_back(rng.Uniform(0, 7));
      cols[2].i64.push_back(static_cast<int64_t>(i));
    }
    auto table = std::make_unique<storage::TableStorage>(
        id, schema, storage::TableLayout::kColumn, ssd.get());
    if (!table->Append(cols).ok()) std::abort();
    return table;
  }

  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::SsdDevice> ssd;
  std::unique_ptr<storage::TableStorage> fact;
  std::unique_ptr<storage::TableStorage> dim;
  std::unique_ptr<storage::TableStorage> dup;
};

SuiteResult RunSuite(int codec_reps, int query_reps) {
  SuiteResult res;

  // Calibration: reference scalar FOR decode of the sequential buffer.
  // Every item below is normalized by a calibration lane interleaved with
  // its own reps; the up-front measurement here is recorded in the output
  // header for reference only.
  const auto calib_data = CodecData("sequential");
  auto calib_codec = storage::MakeReferenceInt64Codec(CompressionKind::kFor);
  std::vector<uint8_t> calib_buf;
  if (!calib_codec->Encode(calib_data, &calib_buf).ok()) std::exit(1);
  std::vector<int64_t> calib_out;
  auto calib_fn = [&] {
    if (!calib_codec->Decode(calib_buf, &calib_out).ok()) std::exit(1);
  };
  res.calib_seconds = DecodeSeconds(*calib_codec, calib_buf, codec_reps);

  // Codec decode items: fast kernel wall (normalized) + speedup vs scalar.
  const struct {
    CompressionKind kind;
    const char* pattern;
  } codec_cases[] = {
      {CompressionKind::kBitpack, "sequential"},
      {CompressionKind::kBitpack, "runs"},
      {CompressionKind::kFor, "sequential"},
      {CompressionKind::kFor, "runs"},
      {CompressionKind::kRle, "runs"},
      {CompressionKind::kDelta, "sequential"},
  };
  for (const auto& c : codec_cases) {
    const auto data = CodecData(c.pattern);
    auto fast = storage::MakeInt64Codec(c.kind);
    auto scalar = storage::MakeReferenceInt64Codec(c.kind);
    std::vector<uint8_t> buf;
    if (!fast->Encode(data, &buf).ok()) std::exit(1);
    std::vector<int64_t> fast_out;
    std::vector<int64_t> scalar_out;
    std::vector<Lane> lanes;
    lanes.emplace_back(calib_fn);
    lanes.emplace_back([&] {
      if (!fast->Decode(buf, &fast_out).ok()) std::exit(1);
    });
    lanes.emplace_back([&] {
      if (!scalar->Decode(buf, &scalar_out).ok()) std::exit(1);
    });
    MeasureInterleaved(codec_reps, &lanes);
    Item item;
    item.name = std::string("codec_decode_") +
                storage::CompressionKindName(c.kind) + "_" + c.pattern;
    item.wall_norm = MedianRatio(lanes[1].samples, lanes[0].samples);
    item.speedup = MedianRatio(lanes[2].samples, lanes[1].samples);
    res.items.push_back(item);
  }

  // Query items over a fixed seeded table, each normalized by the codec
  // calibration lane measured in the same rep window. The bare table scan
  // only copies column slices (no decode, no per-row work), so it is too
  // cheap to serve as a normalization lane for the operators above it: its
  // own timer noise would dominate their ratios.
  QueryFixture fixture;
  JoinFixture joins;
  auto run_on = [&](power::HardwarePlatform* platform,
                    std::unique_ptr<exec::Operator> plan, double* joules) {
    ExecContext ctx(platform, ExecOptions{});
    auto result = exec::CollectAll(plan.get(), &ctx);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().message().c_str());
      std::exit(1);
    }
    const QueryStats stats = ctx.Finish();
    *joules = stats.Joules();
  };
  auto run_plan = [&](std::unique_ptr<exec::Operator> plan, double* joules) {
    run_on(fixture.platform.get(), std::move(plan), joules);
  };
  {
    double scan_joules = 0.0;
    std::vector<Lane> lanes;
    lanes.emplace_back(calib_fn);
    lanes.emplace_back([&] {
      run_plan(std::make_unique<exec::TableScanOp>(fixture.table.get()),
               &scan_joules);
    });
    MeasureInterleaved(query_reps, &lanes);
    Item item;
    item.name = "scan";
    item.wall_norm = MedianRatio(lanes[1].samples, lanes[0].samples);
    item.joules = scan_joules;
    res.items.push_back(item);
  }
  const struct {
    const char* name;
    std::function<std::unique_ptr<exec::Operator>()> make;
    power::HardwarePlatform* platform;
  } query_cases[] = {
      {"filter_scan",
       [&]() -> std::unique_ptr<exec::Operator> {
         return std::make_unique<exec::TableScanOp>(
             fixture.table.get(), std::vector<std::string>{}, nullptr,
             And(Col("v") < Lit(int64_t{60000}), Col("x") >= Lit(256.0)));
       },
       fixture.platform.get()},
      {"q1_aggregate",
       [&]() -> std::unique_ptr<exec::Operator> {
         std::vector<AggregateItem> aggs;
         aggs.push_back({"sum_v", AggFunc::kSum, Col("v")});
         aggs.push_back({"sum_disc", AggFunc::kSum, Col("x") * Lit(0.9)});
         aggs.push_back({"n", AggFunc::kCount, nullptr});
         return std::make_unique<exec::HashAggregateOp>(
             std::make_unique<exec::TableScanOp>(fixture.table.get()),
             std::vector<std::string>{"k"}, std::move(aggs));
       },
       fixture.platform.get()},
      {"sort",
       [&]() -> std::unique_ptr<exec::Operator> {
         return std::make_unique<exec::SortOp>(
             std::make_unique<exec::TableScanOp>(fixture.table.get()),
             std::vector<exec::SortKey>{{"x", /*ascending=*/false}});
       },
       fixture.platform.get()},
      {"topk",
       [&]() -> std::unique_ptr<exec::Operator> {
         return std::make_unique<exec::SortOp>(
             std::make_unique<exec::TableScanOp>(fixture.table.get()),
             std::vector<exec::SortKey>{{"x", /*ascending=*/false}},
             UINT64_MAX, nullptr, /*limit=*/100);
       },
       fixture.platform.get()},
      {"hash_join_fk",
       [&]() -> std::unique_ptr<exec::Operator> {
         return std::make_unique<exec::HashJoinOp>(
             std::make_unique<exec::TableScanOp>(joins.fact.get()),
             std::make_unique<exec::TableScanOp>(joins.dim.get()), "fk",
             "dk");
       },
       joins.platform.get()},
      {"hash_join_residual",
       [&]() -> std::unique_ptr<exec::Operator> {
         std::vector<exec::ExprPtr> residual = {Col("fm") == Col("bm")};
         return std::make_unique<exec::HashJoinOp>(
             std::make_unique<exec::TableScanOp>(joins.fact.get()),
             std::make_unique<exec::TableScanOp>(joins.dup.get()), "fk",
             "bk", std::move(residual));
       },
       joins.platform.get()},
  };
  for (const auto& q : query_cases) {
    double joules = 0.0;
    std::vector<Lane> lanes;
    lanes.emplace_back(calib_fn);
    lanes.emplace_back([&] { run_on(q.platform, q.make(), &joules); });
    MeasureInterleaved(query_reps, &lanes);
    Item item;
    item.name = q.name;
    item.wall_norm = MedianRatio(lanes[1].samples, lanes[0].samples);
    item.joules = joules;
    res.items.push_back(item);
  }
  return res;
}

// --- Baseline persistence ---------------------------------------------------
// The baseline is a JSON object with one item object per line, so the
// loader below can stay a line-oriented scanner (no JSON dependency).

void WriteBaseline(const std::string& path, const SuiteResult& res) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\"schema\":\"" << kSchemaTag << "\","
      << "\"calibration\":\"for_sequential_scalar_decode\","
      << "\"codec_values\":" << kCodecValues << ","
      << "\"table_rows\":" << kTableRows << ",\"seed\":" << kSeed << ","
      << "\"items\":[\n";
  for (size_t i = 0; i < res.items.size(); ++i) {
    const Item& it = res.items[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"wall_norm\":%.6f,\"joules\":%.6f,"
                  "\"speedup_vs_scalar\":%.3f}%s\n",
                  it.name.c_str(), it.wall_norm, it.joules, it.speedup,
                  i + 1 < res.items.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

// Extracts `"key":<number>` from a JSON line; returns fallback if absent.
double NumField(const std::string& line, const std::string& key,
                double fallback) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

std::string StrField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = line.find('"', start);
  return end == std::string::npos ? "" : line.substr(start, end - start);
}

bool LoadBaseline(const std::string& path, std::vector<Item>* items) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  bool schema_ok = false;
  while (std::getline(in, line)) {
    if (line.find(kSchemaTag) != std::string::npos) schema_ok = true;
    const std::string name = StrField(line, "name");
    if (name.empty()) continue;
    Item it;
    it.name = name;
    it.wall_norm = NumField(line, "wall_norm", 0.0);
    it.joules = NumField(line, "joules", 0.0);
    it.speedup = NumField(line, "speedup_vs_scalar", 0.0);
    items->push_back(it);
  }
  return schema_ok && !items->empty();
}

// --- Comparison -------------------------------------------------------------

int Compare(const std::vector<Item>& baseline, const SuiteResult& measured,
            double wall_tol) {
  constexpr double kJoulesTol = 0.10;
  constexpr double kSpeedupFloor = 2.0;
  int failures = 0;
  bench::Table table({"item", "wall norm (base)", "wall norm (now)",
                      "J/query (base)", "J/query (now)", "speedup", "gate"});
  for (const Item& base : baseline) {
    const Item* now = nullptr;
    for (const Item& m : measured.items) {
      if (m.name == base.name) now = &m;
    }
    if (now == nullptr) {
      std::printf("FAIL: baseline item '%s' missing from this run\n",
                  base.name.c_str());
      ++failures;
      continue;
    }
    std::string verdict = "ok";
    // The bare scan is the cheapest query item (a few hundred microseconds
    // of column-slice copies, inner-looped to fill a sample), so its ratio
    // carries ~2x the cross-process spread of the others; it gets a
    // proportionally wider gate. Every other item stays at the tight gate.
    const double item_tol =
        base.name == "scan" ? 2.5 * wall_tol : wall_tol;
    if (base.wall_norm > 0.0 &&
        now->wall_norm > base.wall_norm * (1.0 + item_tol)) {
      verdict = "WALL REGRESSION";
      ++failures;
    }
    if (base.joules > 0.0 && now->joules > base.joules * (1.0 + kJoulesTol)) {
      verdict = "JOULES REGRESSION";
      ++failures;
    }
    // Items whose baseline records a clearly-vectorized kernel (>= 2x the
    // floor, i.e. word-at-a-time bitpack/FOR) must keep at least the 2x
    // acceptance floor; borderline items (RLE, delta) are tracked by the
    // wall gate alone so a 1.99-vs-2.01 flicker cannot flap the build.
    if (base.speedup >= 2.0 * kSpeedupFloor && now->speedup < kSpeedupFloor) {
      verdict = "SPEEDUP LOST";
      ++failures;
    }
    table.AddRow({base.name, bench::Fmt("%.4f", base.wall_norm),
                  bench::Fmt("%.4f", now->wall_norm),
                  bench::Fmt("%.4f", base.joules),
                  bench::Fmt("%.4f", now->joules),
                  bench::Fmt("%.2fx", now->speedup), verdict});
  }
  table.Print();
  for (const Item& m : measured.items) {
    bool known = false;
    for (const Item& base : baseline) known |= base.name == m.name;
    if (!known) {
      std::printf("note: new item '%s' not in baseline (rewrite with "
                  "--write to start tracking it)\n",
                  m.name.c_str());
    }
  }
  return failures;
}

void PrintJson(const SuiteResult& res) {
  std::printf("{\"schema\":\"%s\",\"calib_seconds\":%.9f}\n", kSchemaTag,
              res.calib_seconds);
  for (const Item& it : res.items) {
    std::printf("{\"bench\":\"perf_regress\",\"item\":\"%s\","
                "\"wall_norm\":%.6f,\"joules\":%.6f,"
                "\"speedup_vs_scalar\":%.3f}\n",
                it.name.c_str(), it.wall_norm, it.joules, it.speedup);
  }
}

}  // namespace

int Main(int argc, char** argv) {
  bool write = false;
  bool smoke = false;
  std::string path = kDefaultBaseline;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--write") {
      write = true;
    } else if (arg == "--check") {
      write = false;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: perf_regress [--check|--write] [--smoke] [path]\n");
      return 2;
    }
  }

  // Query reps are generous because a single query sample is only a few
  // milliseconds: min-of-reps needs enough attempts to land in a window
  // free of host-load spikes (e.g. cgroup CPU throttling).
  const int codec_reps = smoke ? 3 : 12;
  const int query_reps = smoke ? 3 : 15;
  // CI machines are noisy; smoke mode widens the wall gate but keeps the
  // Joules gate strict (the ledger is deterministic, noise-free).
  const double wall_tol = smoke ? 0.35 : 0.10;

  bench::Banner("Perf regression suite (ecodb.perfregress.v1)",
                smoke ? "smoke mode: reduced reps, wall tolerance 35%"
                      : "full mode: wall/Joules gates at 10%");

  SuiteResult res = RunSuite(codec_reps, query_reps);

  // Selftest hook: inflate the measurements to prove the gate trips.
  if (const char* selftest = std::getenv("ECODB_PERF_REGRESS_SELFTEST")) {
    const double mult = std::strtod(selftest, nullptr);
    if (mult > 0.0) {
      std::printf("selftest: inflating measurements by %.2fx\n", mult);
      for (Item& it : res.items) {
        it.wall_norm *= mult;
        it.joules *= mult;
      }
    }
  }

  PrintJson(res);

  if (write) {
    WriteBaseline(path, res);
    std::printf("baseline written to %s (%zu items)\n", path.c_str(),
                res.items.size());
    return 0;
  }

  std::vector<Item> baseline;
  if (!LoadBaseline(path, &baseline)) {
    std::fprintf(stderr,
                 "FAIL: no usable baseline at %s (run with --write first)\n",
                 path.c_str());
    return 1;
  }
  const int failures = Compare(baseline, res, wall_tol);
  std::printf("\nperf regression check vs %s: %s (%d failure%s)\n",
              path.c_str(), failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace ecodb

int main(int argc, char** argv) { return ecodb::Main(argc, argv); }
