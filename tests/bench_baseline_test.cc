// Validates the committed perf-regression baseline (BENCH_engine.json,
// schema ecodb.perfregress.v2) as a repository artifact: the file must
// parse, cover the expected suite items, and record the vectorized-decode
// speedups the raw-speed work claims. A stale or hand-mangled baseline
// fails here even before bench/perf_regress's gate compares against it.

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

constexpr const char* kBaselinePath = ECODB_REPO_ROOT "/BENCH_engine.json";

struct BaselineItem {
  double joules = 0.0;
  double speedup = 0.0;
};

double NumField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return -1.0;
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

class BenchBaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ifstream in(kBaselinePath);
    ASSERT_TRUE(in.good()) << "missing " << kBaselinePath
                           << " (regenerate with scripts/bench_regress.sh "
                              "--write)";
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"schema\":\"ecodb.perfregress.v2\"") !=
          std::string::npos) {
        schema_ok_ = true;
      }
      const std::string name = StrField(line, "name");
      if (name.empty()) continue;
      BaselineItem item;
      item.joules = NumField(line, "joules");
      item.speedup = NumField(line, "speedup_vs_scalar");
      items_[name] = item;
    }
  }

  bool schema_ok_ = false;
  std::map<std::string, BaselineItem> items_;
};

TEST_F(BenchBaselineTest, DeclaresCurrentSchema) { EXPECT_TRUE(schema_ok_); }

TEST_F(BenchBaselineTest, CoversTheFullSuite) {
  for (const char* name :
       {"codec_decode_none_sequential", "codec_decode_bitpack_sequential",
        "codec_decode_bitpack_runs", "codec_decode_for_sequential",
        "codec_decode_for_runs", "codec_decode_rle_runs",
        "codec_decode_delta_sequential",
        "codec_decode_dictionary_priorities", "scan", "filter_scan",
        "q1_aggregate", "q1_dictionary_aggregate", "sort", "topk",
        "hash_join_fk", "hash_join_residual"}) {
    EXPECT_TRUE(items_.count(name)) << "baseline lost item " << name;
  }
}

TEST_F(BenchBaselineTest, VectorizedDecodeSpeedupsHold) {
  // The acceptance floor for the raw-speed pass: word-at-a-time bitpack
  // and FOR decode at >= 2x the scalar reference on both data shapes.
  for (const char* name :
       {"codec_decode_bitpack_sequential", "codec_decode_bitpack_runs",
        "codec_decode_for_sequential", "codec_decode_for_runs"}) {
    ASSERT_TRUE(items_.count(name)) << name;
    EXPECT_GE(items_[name].speedup, 2.0) << name;
  }
}

TEST_F(BenchBaselineTest, QueryItemsCarryDeterministicJoules) {
  for (const char* name :
       {"scan", "filter_scan", "q1_aggregate", "q1_dictionary_aggregate",
        "sort", "topk", "hash_join_fk", "hash_join_residual"}) {
    ASSERT_TRUE(items_.count(name)) << name;
    EXPECT_GT(items_[name].joules, 0.0) << name;
  }
}

}  // namespace
