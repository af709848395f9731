// Microbenchmarks (google-benchmark): real wall-clock encode/decode
// throughput of the column codecs. These are the rates the energy model's
// abstract instruction counts stand in for; useful when recalibrating
// DecodeInstructionsPerValue's rates against a concrete machine.

#include <benchmark/benchmark.h>

#include "storage/compression.h"
#include "util/random.h"

namespace ecodb::storage {
namespace {

std::vector<int64_t> MakeData(const std::string& pattern, size_t n) {
  Rng rng(7);
  std::vector<int64_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
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

void BM_Encode(benchmark::State& state, CompressionKind kind,
               const char* pattern) {
  auto codec = MakeInt64Codec(kind);
  const auto data = MakeData(pattern, 64 * 1024);
  std::vector<uint8_t> buf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Encode(data, &buf));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.counters["ratio"] =
      static_cast<double>(buf.size()) / (data.size() * 8.0);
}

void BM_Decode(benchmark::State& state, CompressionKind kind,
               const char* pattern) {
  auto codec = MakeInt64Codec(kind);
  const auto data = MakeData(pattern, 64 * 1024);
  std::vector<uint8_t> buf;
  if (!codec->Encode(data, &buf).ok()) state.SkipWithError("encode failed");
  std::vector<int64_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decode(buf, &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

// Reference scalar decoders (value-at-a-time, bit-at-a-time): the baseline
// the vectorized kernels are measured against; `scripts/bench_regress.sh`
// gates the fast/scalar ratio recorded in BENCH_engine.json.
void BM_DecodeScalar(benchmark::State& state, CompressionKind kind,
                     const char* pattern) {
  auto codec = MakeReferenceInt64Codec(kind);
  const auto data = MakeData(pattern, 64 * 1024);
  std::vector<uint8_t> buf;
  if (!codec->Encode(data, &buf).ok()) state.SkipWithError("encode failed");
  std::vector<int64_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decode(buf, &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

void BM_DictionaryRoundTrip(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::string> values;
  const char* tags[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"};
  for (int i = 0; i < 64 * 1024; ++i) {
    values.push_back(tags[rng.Uniform(0, 3)]);
  }
  StringDictionaryCodec codec;
  std::vector<uint8_t> buf;
  std::vector<std::string> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(values, &buf));
    benchmark::DoNotOptimize(codec.Decode(buf, &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}

BENCHMARK_CAPTURE(BM_Encode, rle_runs, CompressionKind::kRle, "runs");
BENCHMARK_CAPTURE(BM_Encode, delta_sequential, CompressionKind::kDelta,
                  "sequential");
BENCHMARK_CAPTURE(BM_Encode, for_random20bit, CompressionKind::kFor,
                  "random");
// The uncompressed "touch" rate anchors DecodeInstructionsPerValue: its
// rates express decode cost as a multiple of this memcpy lane.
BENCHMARK_CAPTURE(BM_Decode, none_sequential, CompressionKind::kNone,
                  "sequential");
BENCHMARK_CAPTURE(BM_Decode, rle_runs, CompressionKind::kRle, "runs");
BENCHMARK_CAPTURE(BM_Decode, delta_sequential, CompressionKind::kDelta,
                  "sequential");
BENCHMARK_CAPTURE(BM_Decode, for_random20bit, CompressionKind::kFor,
                  "random");
BENCHMARK_CAPTURE(BM_Decode, bitpack_sequential, CompressionKind::kBitpack,
                  "sequential");
BENCHMARK_CAPTURE(BM_Decode, bitpack_runs, CompressionKind::kBitpack, "runs");
BENCHMARK_CAPTURE(BM_Decode, for_sequential, CompressionKind::kFor,
                  "sequential");
BENCHMARK_CAPTURE(BM_Decode, for_runs, CompressionKind::kFor, "runs");
BENCHMARK_CAPTURE(BM_DecodeScalar, rle_runs, CompressionKind::kRle, "runs");
BENCHMARK_CAPTURE(BM_DecodeScalar, delta_sequential, CompressionKind::kDelta,
                  "sequential");
BENCHMARK_CAPTURE(BM_DecodeScalar, bitpack_sequential,
                  CompressionKind::kBitpack, "sequential");
BENCHMARK_CAPTURE(BM_DecodeScalar, bitpack_runs, CompressionKind::kBitpack,
                  "runs");
BENCHMARK_CAPTURE(BM_DecodeScalar, for_sequential, CompressionKind::kFor,
                  "sequential");
BENCHMARK_CAPTURE(BM_DecodeScalar, for_runs, CompressionKind::kFor, "runs");
BENCHMARK(BM_DictionaryRoundTrip);

}  // namespace
}  // namespace ecodb::storage

BENCHMARK_MAIN();
