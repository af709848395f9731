// Perf-regression harness: a fixed seeded suite of host-clock timings, with
// each query item's modeled Joules and each vectorized decode kernel's
// speedup over its scalar reference.
//
// Suite items:
//   - codec decode of 64Ki values: the uncompressed touch lane (none),
//     the unit DecodeInstructionsPerValue's rates are multiples of;
//     bitpack/FOR/RLE/delta, each with its speedup over the reference
//     scalar decoder; and dictionary-coded strings. Every rate in that
//     table has a timed kernel;
//   - bare table scan over a seeded table;
//   - filter-scan rows/sec (the scan's fused exact filter over a seeded
//     table);
//   - Q1-style grouped aggregate (sum/sum-expression/count by key);
//   - TPC-H Q1's shape over compressed columns: a date filter on a
//     FOR-coded lane, grouped by a dictionary-coded one-letter flag, with
//     double aggregates;
//   - full sort (ORDER BY without a limit: radix-sorted runs and the word
//     merge over every row);
//   - top-k (ORDER BY ... LIMIT through the sort's bounded-heap limit);
//   - hash join of a fact table against a dense unique dimension (the
//     shape of every foreign-key join: the build is addressed by key
//     offset and each probe row finds at most one match);
//   - hash join on one edge with a second, residual edge, against a build
//     that repeats its keys (the residual drops pairs before the gather).
//
// Two clocks, two gates. Host wall time moves with the host's load and
// with the binary's code layout, so no committed figure can gate it:
// scripts/bench_regress.sh runs this harness built at the parent commit
// and in the working tree in alternating pairs, the two runs of a pair
// taking turns on one CPU (`--turns`), and `--gate` judges each item's
// wall time on those pairs. Modeled Joules are deterministic by the
// DESIGN §7 contract, and a decode speedup is a ratio of two kernels timed
// in one process, so both are checked against the committed baseline
// (BENCH_engine.json, schema `ecodb.perfregress.v2`).
//
// Modes:
//   perf_regress [--smoke]           measure once; one JSON line per item
//   perf_regress [--smoke] --turns <in-fifo> <out-fifo> first|second
//                                    measure once, taking turns with a
//                                    peer run (see Turns)
//   perf_regress [--smoke] --write [path]
//                                    measure and (re)write the baseline
//                                    (path defaults to BENCH_engine.json)
//   perf_regress --gate <parent-runs> <change-runs> [path]
//                                    judge the printed runs of both sides:
//                                    the k-th run of each forms pair k
//
// ECODB_PERF_REGRESS_SELFTEST=<mult> inflates this run's wall times by
// <mult> after measurement; scripts/bench_regress.sh sets it to prove the
// wall rule fails on a regression.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
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
using exec::LitDate;
using exec::QueryStats;
using storage::CompressionKind;

constexpr const char* kSchemaTag = "ecodb.perfregress.v2";
constexpr const char* kDefaultBaseline = "BENCH_engine.json";
constexpr size_t kCodecValues = 64 * 1024;
constexpr size_t kTableRows = 120000;
constexpr uint64_t kSeed = 20260808;
constexpr int64_t kJoinKeys = 4096;  // dimension rows; fact keys' domain

// One suite item as one run measured it (or as the baseline records it).
// `wall_s` is the median seconds of one invocation (-1 when a run's line
// carries none); `joules` is the simulated energy ledger for query items
// (0 for codec items); `speedup` is the reference-vs-fast decode ratio for
// codec items with a scalar reference kernel (0 otherwise).
struct Item {
  std::string name;
  double wall_s = -1.0;
  double joules = 0.0;
  double speedup = 0.0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The q-quantile of a non-empty `v`, interpolating linearly between order
// statistics.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Lockstep with a peer run. scripts/bench_regress.sh starts the parent's
// and the change's perf_regress at once, joined by two FIFOs, and the two
// take turns on one CPU: only the process holding the turn runs, and it
// hands the turn over after each timed sample. The two samples of a pair
// are then milliseconds apart on the same core, so host drift hits both
// sides alike. On a shared 4-vCPU KVM guest the log pair ratio of one
// binary against itself had a standard deviation per item of 0.06-0.32
// with the runs one after the other, 0.05-0.26 in turns on any CPU, and
// 0.005-0.09 in turns on one CPU. A peer that never joins (a harness older
// than this one) or that has exited leaves this process running alone.
class Turns {
 public:
  Turns() = default;  // alone
  // Joins the peer: the turn arrives through the FIFO `in` and leaves
  // through `out`; `first` holds the first turn. Both sides pin themselves
  // to the highest CPU they may run on, which is the same CPU when the two
  // are started alike.
  Turns(const std::string& in, const std::string& out, bool first) {
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
      int last = CPU_SETSIZE - 1;
      while (last > 0 && !CPU_ISSET(last, &cpus)) --last;
      CPU_ZERO(&cpus);
      CPU_SET(last, &cpus);
      sched_setaffinity(0, sizeof(cpus), &cpus);
    }
    std::signal(SIGPIPE, SIG_IGN);  // a write to an exited peer: EPIPE
    in_ = open(in.c_str(), O_RDONLY | O_NONBLOCK);
    // Opening a FIFO to write fails until the peer has opened it to read.
    for (int ms = 0; in_ >= 0 && out_ < 0 && ms < 2000; ms += 10) {
      out_ = open(out.c_str(), O_WRONLY | O_NONBLOCK);
      if (out_ < 0) usleep(10000);
    }
    if (out_ < 0) {
      Leave();
    } else if (!first) {
      Take();
    }
  }
  Turns(const Turns&) = delete;
  Turns& operator=(const Turns&) = delete;
  ~Turns() { Leave(); }

  // Hands the turn to the peer and waits for it to come back.
  void Yield() {
    const char token = 't';
    if (out_ >= 0 && write(out_, &token, 1) != 1) Leave();
    Take();
  }

 private:
  void Take() {
    if (in_ < 0) return;
    pollfd p{in_, POLLIN, 0};
    char token;
    if (poll(&p, 1, -1) != 1 || read(in_, &token, 1) != 1) Leave();
  }
  // Closing `out` hands the turn over for good: the peer's next wait ends.
  void Leave() {
    if (in_ >= 0) close(in_);
    if (out_ >= 0) close(out_);
    in_ = out_ = -1;
  }

  int in_ = -1;
  int out_ = -1;
};

// Interleaved measurement: each rep times every lane back to back, so a
// fast kernel and its scalar reference see the same host windows, and the
// turn passes to the peer run after every timed sample. A lane whose
// single invocation is short is inner-looped until a timed sample spans at
// least 5 ms, so scheduler quanta and timer granularity do not dominate a
// 30 us kernel.
struct Lane {
  explicit Lane(std::function<void()> f) : fn(std::move(f)) {}
  std::function<void()> fn;
  std::vector<double> samples;  // per-invocation seconds, one per rep
  int iters = 1;
};

void MeasureInterleaved(int reps, std::vector<Lane>* lanes, Turns* turns) {
  constexpr double kMinSampleSeconds = 5e-3;
  for (Lane& l : *lanes) {
    const double t0 = Now();
    l.fn();
    const double t1 = Now();
    turns->Yield();
    const double once = std::max(t1 - t0, 1e-9);
    l.iters = static_cast<int>(
        std::min(4096.0, std::max(1.0, std::ceil(kMinSampleSeconds / once))));
  }
  for (int r = 0; r < reps; ++r) {
    for (Lane& l : *lanes) {
      const double t0 = Now();
      for (int k = 0; k < l.iters; ++k) l.fn();
      const double t1 = Now();
      turns->Yield();
      l.samples.push_back((t1 - t0) / l.iters);
    }
  }
}

// 0, 1, 2, ... ("sequential"), or runs of 64 equal values ("runs").
std::vector<int64_t> CodecData(const std::string& pattern) {
  std::vector<int64_t> v(kCodecValues);
  for (size_t i = 0; i < kCodecValues; ++i) {
    v[i] = static_cast<int64_t>(pattern == "runs" ? i / 64 : i);
  }
  return v;
}

void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "codec failed: %s\n", status.message().c_str());
    std::exit(1);
  }
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

// The Q1-shaped item's table, on a platform of its own so the items above
// bill exactly as before: kTableRows rows of a return flag ("A", "N" or
// "R", dictionary-coded), a ship date over seven years (FOR-coded), and a
// quantity, a price and a discount.
struct FlagFixture {
  static constexpr int64_t kFirstDay = 8036;  // 1992-01-02
  static constexpr int64_t kDays = 2526;

  FlagFixture() : platform(power::MakeProportionalPlatform()) {
    ssd = std::make_unique<storage::SsdDevice>("s", power::SsdSpec{},
                                               platform->meter());
    Schema schema({Column{"flag", DataType::kString, 1},
                   Column{"ship", DataType::kDate, 8},
                   Column{"qty", DataType::kDouble, 8},
                   Column{"price", DataType::kDouble, 8},
                   Column{"disc", DataType::kDouble, 8}});
    Rng rng(kSeed + 4);
    const char* flags[] = {"A", "N", "R"};
    std::vector<storage::ColumnData> cols(5);
    for (int c = 0; c < 5; ++c) cols[c].type = schema.column(c).type;
    for (size_t i = 0; i < kTableRows; ++i) {
      cols[0].str.push_back(flags[rng.Uniform(0, 2)]);
      cols[1].i64.push_back(kFirstDay + rng.Uniform(0, kDays - 1));
      cols[2].f64.push_back(static_cast<double>(rng.Uniform(1, 50)));
      cols[3].f64.push_back(static_cast<double>(rng.Uniform(90000, 10500000)) *
                            0.01);
      cols[4].f64.push_back(static_cast<double>(rng.Uniform(0, 10)) * 0.01);
    }
    table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd.get());
    if (!table->Append(cols).ok() ||
        !table->SetCompression("flag", CompressionKind::kDictionary).ok() ||
        !table->SetCompression("ship", CompressionKind::kFor).ok()) {
      std::abort();
    }
  }

  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::SsdDevice> ssd;
  std::unique_ptr<storage::TableStorage> table;
};

std::vector<Item> RunSuite(int reps, Turns* turns) {
  std::vector<Item> items;

  // Codec decode items: the fast kernel's wall time and, where the codec
  // keeps a scalar reference kernel, the reference/fast speedup. kNone has
  // no reference (it is the touch lane) and RLE returns its one decoder
  // from both factories, so its speedup reads about 1.
  const struct {
    CompressionKind kind;
    const char* pattern;
  } codec_cases[] = {
      {CompressionKind::kNone, "sequential"},
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
    std::vector<uint8_t> buf;
    CheckOk(fast->Encode(data, &buf));
    std::vector<int64_t> fast_out;
    std::vector<int64_t> scalar_out;
    std::vector<Lane> lanes;
    lanes.emplace_back([&] { CheckOk(fast->Decode(buf, &fast_out)); });
    std::unique_ptr<storage::Int64Codec> scalar;
    if (c.kind != CompressionKind::kNone) {
      scalar = storage::MakeReferenceInt64Codec(c.kind);
      lanes.emplace_back([&] { CheckOk(scalar->Decode(buf, &scalar_out)); });
    }
    MeasureInterleaved(reps, &lanes, turns);
    Item item;
    item.name = std::string("codec_decode_") +
                storage::CompressionKindName(c.kind) + "_" + c.pattern;
    item.wall_s = Median(lanes[0].samples);
    if (scalar != nullptr) {
      item.speedup = Median(lanes[1].samples) / item.wall_s;
    }
    items.push_back(item);
  }
  {
    // Dictionary-coded strings: the four TPC-H order priorities, drawn
    // uniformly, so the code unpack and the string copies both run.
    Rng rng(kSeed);
    const char* tags[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"};
    std::vector<std::string> values;
    values.reserve(kCodecValues);
    for (size_t i = 0; i < kCodecValues; ++i) {
      values.push_back(tags[rng.Uniform(0, 3)]);
    }
    const storage::StringDictionaryCodec codec;
    std::vector<uint8_t> buf;
    CheckOk(codec.Encode(values, &buf));
    std::vector<std::string> out;
    std::vector<Lane> lanes;
    lanes.emplace_back([&] { CheckOk(codec.Decode(buf, &out)); });
    MeasureInterleaved(reps, &lanes, turns);
    Item item;
    item.name = "codec_decode_dictionary_priorities";
    item.wall_s = Median(lanes[0].samples);
    items.push_back(item);
  }

  // Query items over fixed seeded tables, each a fresh operator tree per
  // invocation, run at dop 1.
  QueryFixture fixture;
  JoinFixture joins;
  FlagFixture flags;
  const auto table_scan = [&]() -> std::unique_ptr<exec::Operator> {
    return std::make_unique<exec::TableScanOp>(fixture.table.get());
  };
  const struct {
    const char* name;
    std::function<std::unique_ptr<exec::Operator>()> make;
    power::HardwarePlatform* platform;
  } query_cases[] = {
      {"scan", table_scan, fixture.platform.get()},
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
             table_scan(), std::vector<std::string>{"k"}, std::move(aggs));
       },
       fixture.platform.get()},
      {"q1_dictionary_aggregate",
       [&]() -> std::unique_ptr<exec::Operator> {
         std::vector<AggregateItem> aggs;
         aggs.push_back({"sum_qty", AggFunc::kSum, Col("qty")});
         aggs.push_back({"sum_price", AggFunc::kSum, Col("price")});
         aggs.push_back({"sum_disc_price", AggFunc::kSum,
                         Col("price") * (Lit(1.0) - Col("disc"))});
         aggs.push_back({"avg_qty", AggFunc::kAvg, Col("qty")});
         aggs.push_back({"n", AggFunc::kCount, nullptr});
         return std::make_unique<exec::HashAggregateOp>(
             std::make_unique<exec::TableScanOp>(
                 flags.table.get(), std::vector<std::string>{}, nullptr,
                 Col("ship") <= LitDate(FlagFixture::kFirstDay +
                                        FlagFixture::kDays - 90)),
             std::vector<std::string>{"flag"}, std::move(aggs));
       },
       flags.platform.get()},
      {"sort",
       [&]() -> std::unique_ptr<exec::Operator> {
         return std::make_unique<exec::SortOp>(
             table_scan(),
             std::vector<exec::SortKey>{{"x", /*ascending=*/false}});
       },
       fixture.platform.get()},
      {"topk",
       [&]() -> std::unique_ptr<exec::Operator> {
         return std::make_unique<exec::SortOp>(
             table_scan(),
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
    Item item;
    item.name = q.name;
    std::vector<Lane> lanes;
    lanes.emplace_back([&] {
      const std::unique_ptr<exec::Operator> plan = q.make();
      ExecContext ctx(q.platform, ExecOptions{});
      const auto result = exec::CollectAll(plan.get(), &ctx);
      if (!result.ok()) {
        std::fprintf(stderr, "query %s failed: %s\n", q.name,
                     result.status().message().c_str());
        std::exit(1);
      }
      const QueryStats stats = ctx.Finish();
      item.joules = stats.Joules();
    });
    MeasureInterleaved(reps, &lanes, turns);
    item.wall_s = Median(lanes[0].samples);
    items.push_back(item);
  }
  return items;
}

// --- Printed runs and the baseline ------------------------------------------
// Both are JSON with one item object per line, so the readers below stay
// line-oriented scanners (no JSON dependency).

void PrintRun(const std::vector<Item>& items, bool smoke, int reps) {
  std::printf("{\"schema\":\"%s\",\"mode\":\"%s\",\"reps\":%d}\n", kSchemaTag,
              smoke ? "smoke" : "full", reps);
  for (const Item& it : items) {
    std::printf("{\"bench\":\"perf_regress\",\"item\":\"%s\","
                "\"wall_s\":%.9f,\"joules\":%.6f,"
                "\"speedup_vs_scalar\":%.3f}\n",
                it.name.c_str(), it.wall_s, it.joules, it.speedup);
  }
}

void WriteBaseline(const std::string& path, const std::vector<Item>& items) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\"schema\":\"" << kSchemaTag << "\","
      << "\"codec_values\":" << kCodecValues << ","
      << "\"table_rows\":" << kTableRows << ",\"seed\":" << kSeed << ","
      << "\"items\":[\n";
  for (size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"joules\":%.6f,"
                  "\"speedup_vs_scalar\":%.3f}%s\n",
                  it.name.c_str(), it.joules, it.speedup,
                  i + 1 < items.size() ? "," : "");
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

Item ParseItem(const std::string& line, const std::string& name) {
  Item it;
  it.name = name;
  it.wall_s = NumField(line, "wall_s", -1.0);
  it.joules = NumField(line, "joules", 0.0);
  it.speedup = NumField(line, "speedup_vs_scalar", 0.0);
  return it;
}

bool LoadBaseline(const std::string& path, std::vector<Item>* items) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  bool schema_ok = false;
  while (std::getline(in, line)) {
    if (line.find(kSchemaTag) != std::string::npos) schema_ok = true;
    const std::string name = StrField(line, "name");
    if (!name.empty()) items->push_back(ParseItem(line, name));
  }
  return schema_ok && !items->empty();
}

// The runs one side printed, in order: each schema line starts a run. A
// harness older than this schema prints its items without `wall_s`, so
// none of them counts as timed.
std::vector<std::vector<Item>> LoadRuns(const std::string& path) {
  std::vector<std::vector<Item>> runs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!StrField(line, "schema").empty()) {
      runs.emplace_back();
      continue;
    }
    const std::string name = StrField(line, "item");
    if (!name.empty() && !runs.empty()) {
      runs.back().push_back(ParseItem(line, name));
    }
  }
  return runs;
}

const Item* Find(const std::vector<Item>& items, const std::string& name) {
  for (const Item& it : items) {
    if (it.name == name) return &it;
  }
  return nullptr;
}

// --- The gate ---------------------------------------------------------------

// Judges the change's runs against the parent's, pair by pair, and the
// change's Joules and speedups against the baseline. Returns the number of
// failures.
//
// The wall rule, for an item both sides timed in every pair: the change is
// slower in at least 9 of 10 pairs, and its median change/parent ratio
// exceeds the larger of 1.10 and 1 + the pair ratios' interquartile range
// over their median. The spread is taken over the ratios, not over the
// parent's own runs: the runs of a pair take turns on one CPU (Turns), so
// the host drift that spreads the parent's runs cancels within each pair.
// Over ten gate runs of one tree on a shared 4-vCPU KVM guest the parent
// runs' IQR/median per item ranged 2-64% and the ratios' 0.3-6%; a bound
// from the former would pass a 1.3x slowdown. The spread bound keeps an
// item from failing on its pairs' own scatter. An item the parent does not
// time (an older harness, which cannot take turns and prints no run) is
// reported, not judged.
int Gate(const std::vector<std::vector<Item>>& parent,
         const std::vector<std::vector<Item>>& change,
         const std::vector<Item>& baseline) {
  constexpr double kWallFloor = 1.10;
  constexpr double kJoulesTol = 0.10;
  constexpr double kSpeedupFloor = 2.0;
  const size_t pairs = change.size();
  int failures = 0;
  for (const Item& base : baseline) {
    if (Find(change[0], base.name) == nullptr) {
      std::printf("FAIL: baseline item '%s' missing from this run\n",
                  base.name.c_str());
      ++failures;
    }
  }
  // IQR over median, the spread of a sample.
  const auto spread = [](const std::vector<double>& v) {
    return (Quantile(v, 0.75) - Quantile(v, 0.25)) / Median(v);
  };
  bench::Table table({"item", "parent ms", "change ms", "parent IQR",
                      "slower", "ratio", "ratio IQR", "bound",
                      "J/query (base)", "J/query (now)", "speedup", "gate"});
  for (const Item& first : change[0]) {
    std::vector<double> now_wall, then_wall, speedups;
    double joules = 0.0;
    for (size_t k = 0; k < pairs; ++k) {
      const Item* now = Find(change[k], first.name);
      if (now == nullptr) break;
      now_wall.push_back(now->wall_s);
      speedups.push_back(now->speedup);
      joules = std::max(joules, now->joules);
      const Item* then = k < parent.size() ? Find(parent[k], first.name)
                                           : nullptr;
      if (then != nullptr && then->wall_s > 0.0) {
        then_wall.push_back(then->wall_s);
      }
    }
    std::string verdict;
    // parent ms, change ms, parent IQR, slower, ratio, ratio IQR, bound
    std::vector<std::string> row(8, "-");
    row[0] = first.name;
    row[2] = bench::Fmt("%.4f", 1e3 * Median(now_wall));
    if (now_wall.size() < pairs) {
      verdict += " MISSING FROM A RUN";
    } else if (then_wall.size() == pairs) {
      int slower = 0;
      std::vector<double> ratios;
      for (size_t k = 0; k < pairs; ++k) {
        ratios.push_back(now_wall[k] / then_wall[k]);
        slower += now_wall[k] > then_wall[k];
      }
      const double bound = std::max(kWallFloor, 1.0 + spread(ratios));
      const double ratio = Median(ratios);
      if (slower * 10 >= static_cast<int>(pairs) * 9 && ratio > bound) {
        verdict += " WALL REGRESSION";
      }
      row[1] = bench::Fmt("%.4f", 1e3 * Median(then_wall));
      row[3] = bench::Fmt("%.1f%%", 100.0 * spread(then_wall));
      row[4] = std::to_string(slower) + "/" + std::to_string(pairs);
      row[5] = bench::Fmt("%.3f", ratio);
      row[6] = bench::Fmt("%.1f%%", 100.0 * spread(ratios));
      row[7] = bench::Fmt("%.3f", bound);
    } else if (!then_wall.empty()) {
      verdict += " MISSING FROM A PARENT RUN";
    }
    const double speedup = Median(speedups);
    const Item* base = Find(baseline, first.name);
    if (base != nullptr) {
      if (base->joules > 0.0 && joules > base->joules * (1.0 + kJoulesTol)) {
        verdict += " JOULES REGRESSION";
      }
      // Items whose baseline records a clearly vectorized kernel (>= 2x
      // the floor: word-at-a-time bitpack/FOR) must keep the 2x acceptance
      // floor; borderline items (RLE, delta) are tracked by the wall gate
      // alone, so a 1.99-vs-2.01 flicker cannot flap the build.
      if (base->speedup >= 2.0 * kSpeedupFloor && speedup < kSpeedupFloor) {
        verdict += " SPEEDUP LOST";
      }
    }
    if (!verdict.empty()) {
      ++failures;
      verdict.erase(0, 1);
    } else if (base == nullptr) {
      verdict = "new: not in the baseline";
    } else {
      verdict = then_wall.empty() ? "ok (the parent does not time it)" : "ok";
    }
    row.insert(row.end(),
               {base != nullptr ? bench::Fmt("%.4f", base->joules) : "-",
                bench::Fmt("%.4f", joules), bench::Fmt("%.2fx", speedup),
                verdict});
    table.AddRow(std::move(row));
  }
  table.Print();
  return failures;
}

}  // namespace

int Main(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: perf_regress [--smoke] [--write [path]]\n"
                 "       perf_regress [--smoke] --turns <in-fifo> "
                 "<out-fifo> first|second\n"
                 "       perf_regress --gate <parent-runs> <change-runs> "
                 "[path]\n");
    return 2;
  };
  bool write = false;
  bool smoke = false;
  std::vector<std::string> paths;
  bool gate = false;
  std::vector<std::string> turns;  // in-fifo, out-fifo, first|second
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--turns" && i + 3 < argc) {
      turns.assign(argv + i + 1, argv + i + 4);
      i += 3;
      if (turns[2] != "first" && turns[2] != "second") return usage();
    } else if (arg == "--write") {
      write = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg[0] != '-') {
      paths.push_back(arg);
    } else {
      return usage();
    }
  }

  if (gate) {
    if (write || !turns.empty() || paths.size() < 2 || paths.size() > 3) {
      return usage();
    }
    const auto parent = LoadRuns(paths[0]);
    const auto change = LoadRuns(paths[1]);
    const std::string path = paths.size() == 3 ? paths[2] : kDefaultBaseline;
    std::vector<Item> baseline;
    if (change.empty() || (!parent.empty() && parent.size() != change.size())) {
      std::fprintf(stderr, "FAIL: %zu parent runs against %zu change runs\n",
                   parent.size(), change.size());
      return 1;
    }
    if (!LoadBaseline(path, &baseline)) {
      std::fprintf(stderr,
                   "FAIL: no usable baseline at %s (run with --write first)\n",
                   path.c_str());
      return 1;
    }
    bench::Banner("Perf regression gate (ecodb.perfregress.v2)",
                  std::to_string(change.size()) +
                      " alternating pairs, parent against change; Joules "
                      "and decode speedups against " +
                      path);
    const int failures = Gate(parent, change, baseline);
    std::printf("perf regression gate: %s (%d failure%s)\n",
                failures == 0 ? "PASS" : "FAIL", failures,
                failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
  }
  if (paths.size() > 1 || (!write && !paths.empty())) return usage();

  // A rep is one timed sample of at least 5 ms per lane; a run reports
  // each item's median rep.
  const int reps = smoke ? 3 : 15;
  std::vector<Item> items;
  if (turns.empty()) {
    Turns alone;
    items = RunSuite(reps, &alone);
  } else {
    Turns paired(turns[0], turns[1], turns[2] == "first");
    items = RunSuite(reps, &paired);
  }

  // Selftest hook: inflate the wall times to prove the wall rule trips.
  if (const char* selftest = std::getenv("ECODB_PERF_REGRESS_SELFTEST")) {
    const double mult = std::strtod(selftest, nullptr);
    if (mult > 0.0) {
      for (Item& it : items) it.wall_s *= mult;
    }
  }

  PrintRun(items, smoke, reps);
  if (write) {
    const std::string path = paths.empty() ? kDefaultBaseline : paths[0];
    WriteBaseline(path, items);
    std::printf("baseline written to %s (%zu items)\n", path.c_str(),
                items.size());
  }
  return 0;
}

}  // namespace ecodb

int main(int argc, char** argv) { return ecodb::Main(argc, argv); }
