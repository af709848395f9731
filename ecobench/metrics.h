// Sample statistics and the metric report of the EcoDB benchmark.
//
// Engine-free: percentiles under the tail rule, the metric-name grammar,
// and the one-line JSON result the benchmark prints last.

#ifndef ECOBENCH_METRICS_H_
#define ECOBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ecobench {

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
/// the ascending `sorted` samples. `tenths` is the percentile in tenths of
/// a percent (500 = p50, 999 = p99.9, 1000 = max). `sorted` is non-empty.
double PercentileTenths(const std::vector<double>& sorted, int tenths);

/// Samples strictly beyond the nearest rank of percentile `tenths`.
size_t SamplesBeyond(size_t n, int tenths);

/// The tail rule: the highest of p50, p75, p90, p95, p99 and p99.9 that
/// leaves at least ten samples beyond its rank. Below 20 samples no
/// percentile qualifies and the tail is the maximum (1000 tenths).
int TailTenths(size_t n);

/// "p95", "p99.9", "max".
std::string PercentileLabel(int tenths);

/// Median (p50) and tail of a sample, with the sample count.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  int tail_tenths = 1000;
  double tail = 0.0;
};

/// Summarizes `samples` (copied and sorted). Empty input gives n = 0 and
/// zero values.
Summary Summarize(std::vector<double> samples);

/// Metric-name grammar: starts with a letter or a digit; at most 64
/// letters, digits, '_', '.' and '-'.
bool ValidMetricName(const std::string& name);

/// Unit grammar: 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool ValidUnit(const std::string& unit);

enum class Clock { kHost, kModeled };

/// One reported number. `n` is the sample count behind it and `stat` how
/// it was taken from the samples ("p50", "p99", "max", "mean", "sum",
/// "count", ...).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kHost;
  size_t n = 1;
  std::string stat;
};

/// An ordered set of uniquely named metrics.
class MetricSet {
 public:
  /// Adds a metric; returns false (and adds nothing) when the name or unit
  /// breaks the grammar, the name is taken, or the value is not finite.
  bool Add(Metric metric);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  /// Human-readable table, one metric a line: name, value, unit, clock,
  /// statistic and sample count.
  std::string Table() const;

  /// The benchmark's last line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}, values with all their digits.
  std::string ResultLine(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// A metric the benchmark promises to print (BENCHMARK.json lists the same
/// names in the same order).
struct Declared {
  std::string name;
  std::string unit;
  Clock clock = Clock::kHost;
  bool higher_is_better = false;
};

/// Printed by an untraced run (--trace 0).
const std::vector<Declared>& EndToEndMetrics();

/// Printed by a traced run (--trace 1). Operation classes: q1/q6/q3
/// (serve_tpch), q3/q9/q5/q14 (join_graph), sort.dop1/sort.dopN
/// (joulesort); a metric a workload has no such layer or class for reads 0.
const std::vector<Declared>& PerLayerMetrics();

}  // namespace ecobench

#endif  // ECOBENCH_METRICS_H_
