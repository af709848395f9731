// Streaming summary statistics and percentile estimation.
//
// Used by the batching scheduler to report latency distributions (mean /
// p50 / p95 / p99 / max) without storing every sample.

#ifndef ECODB_UTIL_HISTOGRAM_H_
#define ECODB_UTIL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecodb {

/// Log-bucketed histogram over non-negative doubles. Buckets grow
/// geometrically so relative error of percentile estimates is bounded by the
/// growth factor (~4% with the default 64 buckets per decade equivalent).
class Histogram {
 public:
  Histogram();

  /// Records one sample. Negative samples are clamped to zero.
  void Add(double value);

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;
  double max() const;
  double Mean() const;

  /// Estimated value at quantile q in [0, 1]. Returns 0 for empty histograms.
  double Percentile(double q) const;

 private:
  size_t BucketFor(double value) const;
  double BucketLowerBound(size_t bucket) const;

  std::vector<uint64_t> buckets_;
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace ecodb

#endif  // ECODB_UTIL_HISTOGRAM_H_
