// Tests for util: Status/StatusOr, deterministic RNG, histograms, units,
// the flat key index.

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flat_key_index.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"
#include "util/units.h"

namespace ecodb {
namespace {

// --- Status ---------------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(Status, EveryFactoryProducesItsCode) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::DataLoss("").code(), StatusCode::kDataLoss);
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::Internal("boom");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("non-positive");
  return x;
}

Status UseMacros(int x, int* out) {
  ECODB_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  ECODB_RETURN_IF_ERROR(Status::OK());
  *out = v * 2;
  return Status::OK();
}

TEST(StatusOr, AssignOrReturnMacroPropagates) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(UseMacros(-1, &out).code(), StatusCode::kInvalidArgument);
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Uniform(9, 9), 9);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(9);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.Zipf(100, 0.8), 100u);
  }
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) low += (rng.Zipf(1000, 0.9) < 10);
  // With theta=0.9, the top-10 ranks should take far more than 1% of mass.
  EXPECT_GT(low, n / 20);
}

TEST(Rng, ZipfThetaZeroIsUniform) {
  Rng rng(17);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) low += (rng.Zipf(1000, 0.0) < 100);
  EXPECT_NEAR(low / static_cast<double>(n), 0.1, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  constexpr int kSamples = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.Gaussian(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double variance = (sum_sq - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 3.0, 0.1);
}

TEST(Rng, AlphaStringLengthAndCharset) {
  Rng rng(23);
  const std::string s = rng.AlphaString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) EXPECT_TRUE(isalnum(static_cast<unsigned char>(c)));
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// --- Histogram --------------------------------------------------------------

TEST(Histogram, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, TracksMinMaxMean) {
  Histogram h;
  h.Add(1.0);
  h.Add(2.0);
  h.Add(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(Histogram, PercentileWithinRelativeError) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(i * 0.001);  // 0.001 .. 10
  EXPECT_NEAR(h.Percentile(0.5), 5.0, 5.0 * 0.10);
  EXPECT_NEAR(h.Percentile(0.95), 9.5, 9.5 * 0.10);
  EXPECT_NEAR(h.Percentile(0.99), 9.9, 9.9 * 0.10);
}

TEST(Histogram, NegativeClampedToZero) {
  Histogram h;
  h.Add(-5.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.count(), 1u);
}

// --- Units ------------------------------------------------------------------

TEST(Units, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(2.5), "2.500 s");
  EXPECT_EQ(FormatSeconds(0.0123), "12.300 ms");
  EXPECT_EQ(FormatSeconds(45e-6), "45.000 us");
  EXPECT_EQ(FormatSeconds(3e-9), "3.000 ns");
}

TEST(Units, FormatJoules) {
  EXPECT_EQ(FormatJoules(338.0), "338.00 J");
  EXPECT_EQ(FormatJoules(1500.0), "1.500 kJ");
  EXPECT_EQ(FormatJoules(0.25), "250.000 mJ");
  EXPECT_EQ(FormatJoules(2.5e6), "2.500 MJ");
}

// --- FlatKeyIndex -----------------------------------------------------------

uint64_t MixedHash(int64_t key) { return MixHash64(static_cast<uint64_t>(key)); }
uint64_t ConstantHash(int64_t) { return 42; }

/// Key id of `key` in `index`, looked up as the index is addressed (a
/// hashed index by `hash`, which its Build used).
uint32_t KeyIdOf(const FlatKeyIndex& index, const std::vector<int64_t>& keys,
                 uint64_t (*hash)(int64_t), int64_t key) {
  if (index.direct()) return index.FindDirect(key);
  return index.FindHashed(hash(key),
                          [&](uint32_t r) { return keys[r] == key; });
}

/// Rows holding `key`, ascending; empty when none does.
std::vector<uint32_t> RowsOf(const FlatKeyIndex& index,
                             const std::vector<int64_t>& keys,
                             uint64_t (*hash)(int64_t), int64_t key) {
  const uint32_t k = KeyIdOf(index, keys, hash, key);
  if (k == FlatKeyIndex::kNoKey) return {};
  const auto run = index.Rows(k);
  return std::vector<uint32_t>(run.begin(), run.end());
}

/// Indexes `keys` through the hashed slots with `hash`.
void BuildHashed(const std::vector<int64_t>& keys, uint64_t (*hash)(int64_t),
                 FlatKeyIndex* index) {
  index->Build(
      keys.size(), [&](size_t r) { return hash(keys[r]); },
      [&](size_t a, size_t b) { return keys[a] == keys[b]; });
}

/// Checks every key's run against a std::map of the rows holding it.
void ExpectRunsGroupRowsByKey(const std::vector<int64_t>& keys,
                              uint64_t (*hash)(int64_t)) {
  FlatKeyIndex index;
  BuildHashed(keys, hash, &index);
  std::map<int64_t, std::vector<uint32_t>> expected;
  for (size_t r = 0; r < keys.size(); ++r) {
    expected[keys[r]].push_back(static_cast<uint32_t>(r));
  }
  EXPECT_EQ(index.distinct_keys(), expected.size());
  for (const auto& [key, rows] : expected) {
    EXPECT_EQ(RowsOf(index, keys, hash, key), rows) << key;
  }
  const int64_t absent = 1'000'003;  // outside every caller's key range
  EXPECT_TRUE(RowsOf(index, keys, hash, absent).empty());
}

TEST(FlatKeyIndex, GroupsRowsByKeyInAscendingRowOrder) {
  Rng rng(7);
  std::vector<int64_t> keys = {INT64_MIN, INT64_MAX, 0, -1, INT64_MIN, -1};
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Uniform(-300, 300));
  ExpectRunsGroupRowsByKey(keys, MixedHash);
}

TEST(FlatKeyIndex, ConstantHashFallsBackOnKeyEquality) {
  // Every key collides, so only the equality check tells keys apart.
  Rng rng(8);
  std::vector<int64_t> keys = {INT64_MIN, INT64_MAX, 0, -1};
  for (int i = 0; i < 400; ++i) keys.push_back(rng.Uniform(-40, 40));
  ExpectRunsGroupRowsByKey(keys, ConstantHash);
}

TEST(FlatKeyIndex, RebuildDropsEarlierContents) {
  const std::vector<int64_t> first = {1, 2, 2, 3};
  const std::vector<int64_t> second = {2};
  FlatKeyIndex index;
  const auto build = [&](const std::vector<int64_t>& keys) {
    BuildHashed(keys, MixedHash, &index);
  };
  const auto find = [&](const std::vector<int64_t>& keys, int64_t key) {
    return RowsOf(index, keys, MixedHash, key);
  };
  build(first);
  build(second);
  EXPECT_EQ(index.distinct_keys(), 1u);
  EXPECT_EQ(find(second, 2), std::vector<uint32_t>{0});
  build({});
  EXPECT_EQ(index.distinct_keys(), 0u);
  EXPECT_TRUE(find(second, 2).empty());
  // A directory build and a hashed one replace each other.
  index.Build(std::span<const int64_t>(first));
  ASSERT_TRUE(index.direct());
  EXPECT_EQ(find(first, 2), (std::vector<uint32_t>{1, 2}));
  build(second);
  EXPECT_FALSE(index.direct());
  EXPECT_EQ(find(second, 2), std::vector<uint32_t>{0});
  index.Build(std::span<const int64_t>(first));
  index = FlatKeyIndex();
  EXPECT_FALSE(index.direct());
  EXPECT_EQ(index.distinct_keys(), 0u);
  EXPECT_TRUE(find(first, 2).empty());
}

/// Builds `keys` once through Build(span), which must address it as
/// `direct` says, and once through the hashed slots, and checks that both
/// give every row the same key id and every key the same run, and agree
/// on the `absent` keys.
void ExpectSameIdsAndRuns(const std::vector<int64_t>& keys, bool direct,
                          const std::vector<int64_t>& absent) {
  FlatKeyIndex lane;
  lane.Build(std::span<const int64_t>(keys));
  ASSERT_EQ(lane.direct(), direct);
  FlatKeyIndex hashed;
  BuildHashed(keys, MixedHash, &hashed);
  ASSERT_FALSE(hashed.direct());
  ASSERT_EQ(lane.distinct_keys(), hashed.distinct_keys());
  EXPECT_EQ(lane.unique_keys(), hashed.unique_keys());
  EXPECT_EQ(lane.unique_keys(), lane.distinct_keys() == keys.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    const uint32_t id = KeyIdOf(lane, keys, MixedHash, keys[r]);
    ASSERT_EQ(id, KeyIdOf(hashed, keys, MixedHash, keys[r])) << "row " << r;
    ASSERT_LT(id, lane.distinct_keys());
  }
  for (uint32_t k = 0; k < lane.distinct_keys(); ++k) {
    const auto a = lane.Rows(k);
    const auto b = hashed.Rows(k);
    EXPECT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
              std::vector<uint32_t>(b.begin(), b.end()))
        << "key id " << k;
  }
  for (int64_t key : absent) {
    EXPECT_EQ(KeyIdOf(lane, keys, MixedHash, key), FlatKeyIndex::kNoKey)
        << key;
    EXPECT_EQ(KeyIdOf(hashed, keys, MixedHash, key), FlatKeyIndex::kNoKey)
        << key;
  }
}

TEST(FlatKeyIndex, DirectoryAndHashedSlotsGiveIdenticalKeyIdsAndRuns) {
  Rng rng(10);
  // Dense with duplicates: 3000 rows over 1000 keys, and gaps.
  std::vector<int64_t> dups;
  for (int i = 0; i < 3000; ++i) dups.push_back(rng.Uniform(-500, 500) * 2);
  ExpectSameIdsAndRuns(dups, true, {-1001, -999, 3, 1001, 1002, INT64_MIN});
  // Unique and shuffled: every row its own key.
  std::vector<int64_t> unique(2000);
  for (size_t i = 0; i < unique.size(); ++i) {
    unique[i] = static_cast<int64_t>(i) + 7;
  }
  rng.Shuffle(&unique);
  ExpectSameIdsAndRuns(unique, true, {6, 2007, INT64_MAX, INT64_MIN});
  // Dense ranges touching either end of int64.
  std::vector<int64_t> low;
  std::vector<int64_t> high;
  for (int i = 0; i < 500; ++i) {
    low.push_back(INT64_MIN + rng.Uniform(0, 999));
    high.push_back(INT64_MAX - rng.Uniform(0, 999));
  }
  ExpectSameIdsAndRuns(low, true, {INT64_MAX, INT64_MIN + 1000, 0});
  ExpectSameIdsAndRuns(high, true, {INT64_MIN, INT64_MAX - 1000, 0});
  // Sparse: hashed either way.
  std::vector<int64_t> sparse = {INT64_MIN, INT64_MAX, 0, -1, INT64_MIN};
  for (int i = 0; i < 300; ++i) {
    sparse.push_back(rng.Uniform(-1, 1) * (int64_t{1} << 40));
  }
  ExpectSameIdsAndRuns(sparse, false, {1, 2, INT64_MAX - 1});
}

TEST(FlatKeyIndex, DirectoryOnlyWithinTheDensityBound) {
  constexpr int64_t kSlots = FlatKeyIndex::kMaxDirectorySlotsPerRow;
  const auto direct = [](const std::vector<int64_t>& keys) {
    FlatKeyIndex index;
    index.Build(std::span<const int64_t>(keys));
    return index.direct();
  };
  // Four rows may span 4 * kSlots keys, and not one more.
  EXPECT_TRUE(direct({0, 1, 2, 4 * kSlots - 1}));
  EXPECT_FALSE(direct({0, 1, 2, 4 * kSlots}));
  EXPECT_TRUE(direct({-5, -5, -5, -5}));
  EXPECT_TRUE(direct({INT64_MAX}));
  EXPECT_FALSE(direct({}));
  // The full int64 range is 2^64 keys, not 0.
  EXPECT_FALSE(direct({INT64_MIN, INT64_MAX}));
  EXPECT_FALSE(direct({INT64_MAX, 0, INT64_MIN, INT64_MIN}));
}

TEST(FlatKeyIndex, AssignKeyIdsNumbersKeysByFirstAppearance) {
  // More keys than the initial slots, so the table grows mid-pass; with a
  // constant hash only equality tells keys apart. Both passes reuse one
  // index and one pair of vectors.
  FlatKeyIndex index;
  std::vector<uint32_t> ids = {7, 7, 7};
  std::vector<uint32_t> first_rows = {9};
  for (uint64_t (*hash)(int64_t) : {MixedHash, ConstantHash}) {
    Rng rng(9);
    std::vector<int64_t> keys = {INT64_MIN, 5, INT64_MIN, -1, INT64_MAX};
    for (int i = 0; i < 300; ++i) keys.push_back(rng.Uniform(-40, 40));
    index.AssignKeyIds(
        keys.size(), [&](size_t r) { return hash(keys[r]); },
        [&](size_t a, size_t b) { return keys[a] == keys[b]; }, &ids,
        &first_rows);
    std::map<int64_t, uint32_t> id_of;
    std::vector<uint32_t> want_first;
    ASSERT_EQ(ids.size(), keys.size());
    for (size_t r = 0; r < keys.size(); ++r) {
      const auto [it, inserted] = id_of.try_emplace(
          keys[r], static_cast<uint32_t>(want_first.size()));
      if (inserted) want_first.push_back(static_cast<uint32_t>(r));
      EXPECT_EQ(ids[r], it->second) << "row " << r;
    }
    EXPECT_EQ(first_rows, want_first);
  }
}

/// Assigns `keys` their ids through `index`'s word-lane AssignKeyIds,
/// which must address them by offset exactly when `direct` says, and
/// checks the ids and first rows against a hashed call on a fresh index.
void ExpectWordLaneIdsMatchHashed(FlatKeyIndex* index,
                                  const std::vector<int64_t>& keys,
                                  bool direct) {
  std::vector<uint32_t> ids = {7};
  std::vector<uint32_t> first_rows = {9};
  ASSERT_EQ(index->AssignKeyIds(std::span<const int64_t>(keys), &ids,
                                &first_rows),
            direct);
  FlatKeyIndex hashed;
  std::vector<uint32_t> want_ids;
  std::vector<uint32_t> want_first;
  hashed.AssignKeyIds(
      keys.size(), [&](size_t r) { return MixedHash(keys[r]); },
      [&](size_t a, size_t b) { return keys[a] == keys[b]; }, &want_ids,
      &want_first);
  EXPECT_EQ(ids, want_ids);
  EXPECT_EQ(first_rows, want_first);
}

/// `rows` keys in [lo, lo + span), the first two pinning both ends.
std::vector<int64_t> LaneSpanning(Rng* rng, size_t rows, int64_t lo,
                                  int64_t span) {
  std::vector<int64_t> keys = {lo + (span - 1), lo};
  while (keys.size() < rows) keys.push_back(lo + rng->Uniform(0, span - 1));
  return keys;
}

TEST(FlatKeyIndex, WordLaneAssignKeyIdsMatchesTheHashedCall) {
  constexpr int64_t kSlots = FlatKeyIndex::kMaxDirectorySlotsPerRow;
  Rng rng(11);
  FlatKeyIndex index;
  // Dense lanes: many rows per key, and every row its own key.
  ExpectWordLaneIdsMatchHashed(&index, LaneSpanning(&rng, 3000, -40, 81),
                               true);
  std::vector<int64_t> unique(2000);
  for (size_t i = 0; i < unique.size(); ++i) {
    unique[i] = static_cast<int64_t>(i) - 1000;
  }
  rng.Shuffle(&unique);
  ExpectWordLaneIdsMatchHashed(&index, unique, true);
  // 100 rows may span 100 * kSlots keys, and not one more.
  ExpectWordLaneIdsMatchHashed(&index, LaneSpanning(&rng, 100, 5, 100 * kSlots),
                               true);
  ExpectWordLaneIdsMatchHashed(
      &index, LaneSpanning(&rng, 100, 5, 100 * kSlots + 1), false);
  // The whole of int64, and lanes at either end of it.
  ExpectWordLaneIdsMatchHashed(&index, {INT64_MAX, 0, INT64_MIN, INT64_MIN},
                               false);
  ExpectWordLaneIdsMatchHashed(
      &index, LaneSpanning(&rng, 50, INT64_MIN, 300), true);
  ExpectWordLaneIdsMatchHashed(
      &index, LaneSpanning(&rng, 50, INT64_MAX - 299, 300), true);
  // One row, and none.
  ExpectWordLaneIdsMatchHashed(&index, {-3}, true);
  ExpectWordLaneIdsMatchHashed(&index, {}, false);
}

TEST(FlatKeyIndex, WordLaneAssignKeyIdsLeavesTheDirectoryClean) {
  // One index across calls whose ranges shrink, grow, move and overlap:
  // a slot a call left set would give a later key a stale id.
  Rng rng(12);
  FlatKeyIndex index;
  for (const auto& [lo, span] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 1000}, {500, 20}, {-3000, 9000}, {0, 1000}, {999, 2}}) {
    ExpectWordLaneIdsMatchHashed(&index, LaneSpanning(&rng, 1500, lo, span),
                                 true);
    // A sparse call between dense ones.
    ExpectWordLaneIdsMatchHashed(&index, {lo, lo + (int64_t{1} << 40)},
                                 false);
  }
  // A directory Build after the calls still finds only its own keys.
  const std::vector<int64_t> keys = {4, 6, 4};
  index.Build(std::span<const int64_t>(keys));
  ASSERT_TRUE(index.direct());
  EXPECT_EQ(index.distinct_keys(), 2u);
  EXPECT_EQ(index.FindDirect(4), 0u);
  EXPECT_EQ(index.FindDirect(5), FlatKeyIndex::kNoKey);
  EXPECT_EQ(index.FindDirect(6), 1u);
}

TEST(FlatKeyIndex, CountDistinctByOffsetMatchesHashed) {
  constexpr int64_t kSlots = FlatKeyIndex::kMaxDirectorySlotsPerRow;
  Rng rng(13);
  const std::vector<std::pair<std::vector<int64_t>, bool>> lanes = {
      {LaneSpanning(&rng, 3000, -40, 81), true},
      {LaneSpanning(&rng, 100, 5, 100 * kSlots), true},
      {LaneSpanning(&rng, 100, 5, 100 * kSlots + 1), false},
      {LaneSpanning(&rng, 50, INT64_MIN, 300), true},
      {{INT64_MAX, 0, INT64_MIN, INT64_MIN}, false},
      {{-3}, true},
      {{}, false},
  };
  for (const auto& [keys, direct] : lanes) {
    const std::span<const int64_t> lane(keys);
    FlatKeyIndex built;
    built.Build(lane);  // the rule CountDistinct addresses keys by
    EXPECT_EQ(built.direct(), direct) << keys.size() << " rows";
    const size_t hashed = FlatKeyIndex::CountDistinct(
        keys.size(), [&](size_t r) { return MixedHash(keys[r]); },
        [&](size_t a, size_t b) { return keys[a] == keys[b]; });
    EXPECT_EQ(FlatKeyIndex::CountDistinct(lane), hashed);
    EXPECT_EQ(hashed, std::set<int64_t>(keys.begin(), keys.end()).size());
  }
}

}  // namespace
}  // namespace ecodb
