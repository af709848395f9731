// Tests of the benchmark harness's own logic: the tail rule and sample
// counts, the metric-name grammar, self-time arithmetic, and the seed.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "adapter.h"
#include "metrics.h"
#include "trace.h"

namespace ecobench {
namespace {

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailTenths(1), 1000);
  EXPECT_EQ(TailTenths(19), 1000);  // p50 would leave only 9 beyond
  EXPECT_EQ(TailTenths(20), 500);
  EXPECT_EQ(TailTenths(39), 500);
  EXPECT_EQ(TailTenths(40), 750);
  EXPECT_EQ(TailTenths(99), 750);
  EXPECT_EQ(TailTenths(100), 900);
  EXPECT_EQ(TailTenths(200), 950);
  EXPECT_EQ(TailTenths(999), 950);
  EXPECT_EQ(TailTenths(1000), 990);
  EXPECT_EQ(TailTenths(10000), 999);
  for (size_t n = 20; n < 3000; ++n) {
    EXPECT_GE(SamplesBeyond(n, TailTenths(n)), 10u) << n;
  }
}

TEST(TailRule, SummaryReportsCountAndNearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.tail_tenths, 900);
  EXPECT_EQ(s.tail, 90.0);
  EXPECT_EQ(PercentileLabel(s.tail_tenths), "p90");
  EXPECT_EQ(PercentileLabel(999), "p99.9");
  EXPECT_EQ(PercentileLabel(1000), "max");

  const Summary few = Summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.n, 3u);
  EXPECT_EQ(few.p50, 2.0);
  EXPECT_EQ(few.tail, 3.0);  // below 20 samples the tail is the maximum
  EXPECT_EQ(Summarize({}).n, 0u);
}

TEST(MetricNames, Grammar) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("exec.open_ms.sort.dopN"));
  EXPECT_TRUE(ValidMetricName("9lives-ok"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_lead"));
  EXPECT_FALSE(ValidMetricName(".lead"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_TRUE(ValidUnit("ops/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("m s"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'a')));
}

TEST(MetricNames, DeclaredMetricsAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const Declared& d : *list) {
      EXPECT_TRUE(ValidMetricName(d.name)) << d.name;
      EXPECT_TRUE(ValidUnit(d.unit)) << d.unit;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    }
  }
  EXPECT_LE(PerLayerMetrics().size(), 128u);
  EXPECT_LE(EndToEndMetrics().size(), 16u);
}

TEST(MetricSet, RejectsBadMetricsAndPrintsAllDigits) {
  MetricSet set;
  EXPECT_TRUE(set.Add({"latency_ms", 1.0 / 3.0, "ms", Clock::kHost, 7, "p50"}));
  EXPECT_FALSE(set.Add({"latency_ms", 2.0, "ms", Clock::kHost, 1, ""}));
  EXPECT_FALSE(set.Add({"bad name", 2.0, "ms", Clock::kHost, 1, ""}));
  EXPECT_FALSE(set.Add({"nan", std::nan(""), "ms", Clock::kHost, 1, ""}));
  EXPECT_EQ(set.ResultLine(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"ms\"}}}");
  EXPECT_NE(set.Table().find("n=7"), std::string::npos);
}

Span MakeSpan(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 100, -1),
      MakeSpan("a", 10, 30, 0),
      MakeSpan("b", 20, 50, 0),    // overlaps a: union 10..50
      MakeSpan("c", 90, 120, 0),   // clipped to the parent's end
      MakeSpan("a.x", 12, 28, 1),  // grandchild: counts only against a
      MakeSpan("leaf", 60, 70, -1),
  };
  const std::vector<double> self = SelfTimesNs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(self[1], 20 - 16);
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[3], 30);
  EXPECT_DOUBLE_EQ(self[4], 16);
  EXPECT_DOUBLE_EQ(self[5], 10);
}

TEST(Tracer, NestsSpansAndInheritsRequest) {
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "outer", 7);
    ScopedSpan inner(&tracer, "inner");
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 7u);
  EXPECT_LE(tracer.spans()[1].end_ns, tracer.spans()[0].end_ns);

  Tracer off(false);
  { ScopedSpan span(&off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

/// A small configuration of `workload` so the test runs in seconds.
RigConfig SmallConfig(const std::string& workload, uint64_t seed) {
  RigConfig c;
  EXPECT_TRUE(DefaultRigConfig(workload, seed, 2, &c));
  c.scale_factor = c.scale_factor > 0 ? 0.1 : 0.0;
  c.requests = c.requests > 0 ? 40 : 0;
  c.records = c.records > 0 ? 5000 + seed % 7 : 0;
  return c;
}

struct SeedRun {
  uint64_t input = 0;
  uint64_t modeled = 0;
  std::vector<double> modeled_s;
};

SeedRun RunOnce(const std::string& workload, uint64_t seed) {
  Tracer off(false);
  std::string error;
  std::unique_ptr<Rig> rig = SetupRig(SmallConfig(workload, seed), &off, &error);
  EXPECT_NE(rig, nullptr) << error;
  if (rig == nullptr) return {};
  const PassRecord pass = rig->RunPass(&off);
  EXPECT_TRUE(pass.failures.empty());
  SeedRun out{rig->InputFingerprint(), pass.modeled_fingerprint, {}};
  for (const OpRecord& op : pass.ops) out.modeled_s.push_back(op.modeled_s);
  return out;
}

class SeedTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SeedTest, SameSeedSameModeledFiguresOtherSeedOtherInputs) {
  const SeedRun first = RunOnce(GetParam(), 11);
  const SeedRun again = RunOnce(GetParam(), 11);
  const SeedRun other = RunOnce(GetParam(), 12);
  EXPECT_EQ(first.input, again.input);
  EXPECT_EQ(first.modeled, again.modeled);
  EXPECT_EQ(first.modeled_s, again.modeled_s);
  EXPECT_NE(first.input, other.input);
}

TEST_P(SeedTest, TracingLeavesModeledFiguresUnchanged) {
  Tracer on(true);
  Tracer off(false);
  std::string error;
  const RigConfig config = SmallConfig(GetParam(), 5);
  std::unique_ptr<Rig> traced = SetupRig(config, &off, &error);
  std::unique_ptr<Rig> plain = SetupRig(config, &off, &error);
  ASSERT_NE(traced, nullptr) << error;
  ASSERT_NE(plain, nullptr) << error;
  EXPECT_EQ(traced->RunPass(&on).modeled_fingerprint,
            plain->RunPass(&off).modeled_fingerprint);
  EXPECT_FALSE(on.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, SeedTest,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace ecobench
