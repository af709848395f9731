#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ecodb {

namespace {
// Geometric bucket layout: bucket 0 holds [0, kFirstBound); bucket i>0 holds
// [kFirstBound*g^(i-1), kFirstBound*g^i). 512 buckets with g=1.08 span ~17
// orders of magnitude above kFirstBound.
constexpr double kFirstBound = 1e-9;
constexpr double kGrowth = 1.08;
constexpr size_t kNumBuckets = 512;
}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

size_t Histogram::BucketFor(double value) const {
  if (value < kFirstBound) return 0;
  const double idx = std::log(value / kFirstBound) / std::log(kGrowth) + 1.0;
  if (idx >= static_cast<double>(kNumBuckets)) return kNumBuckets - 1;
  return static_cast<size_t>(idx);
}

double Histogram::BucketLowerBound(size_t bucket) const {
  if (bucket == 0) return 0.0;
  return kFirstBound * std::pow(kGrowth, static_cast<double>(bucket - 1));
}

void Histogram::Add(double value) {
  if (value < 0) value = 0;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[BucketFor(value)];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

double Histogram::min() const { return count_ ? min_ : 0.0; }
double Histogram::max() const { return count_ ? max_ : 0.0; }
double Histogram::Mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      // Midpoint of the bucket, clamped to observed extremes for tightness.
      const double lo = BucketLowerBound(i);
      const double hi = (i + 1 < kNumBuckets) ? BucketLowerBound(i + 1) : max_;
      return std::clamp((lo + hi) / 2.0, min_, max_);
    }
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g", count_,
                Mean(), Percentile(0.5), Percentile(0.95), Percentile(0.99),
                max());
  return buf;
}

}  // namespace ecodb
