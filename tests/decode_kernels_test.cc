// Differential tests for the raw-speed decode kernels: every fast decoder
// (word-at-a-time bit unpack, grouped-varint delta) must produce
// byte-identical output to its reference scalar twin on adversarial inputs
// — and must accept/reject exactly the same buffers. The reference decoders
// are the oracle; any divergence is a kernel bug by definition. RLE has one
// decoder behind both factories, which these cases still run.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/compression.h"
#include "util/random.h"

namespace ecodb::storage {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

const std::vector<CompressionKind> kIntKinds = {
    CompressionKind::kNone, CompressionKind::kRle, CompressionKind::kDelta,
    CompressionKind::kBitpack, CompressionKind::kFor};

// Encodes with the fast codec, decodes with both kernels, and requires the
// decoded vectors to be element-identical to each other and to the input.
void ExpectIdenticalRoundTrip(CompressionKind kind,
                              const std::vector<int64_t>& values,
                              const std::string& label) {
  auto fast = MakeInt64Codec(kind);
  auto ref = MakeReferenceInt64Codec(kind);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(fast->Encode(values, &buf).ok()) << label;

  // Both codec flavors share one encoder; pin that down.
  std::vector<uint8_t> ref_buf;
  ASSERT_TRUE(ref->Encode(values, &ref_buf).ok()) << label;
  EXPECT_EQ(buf, ref_buf) << label << ": encoders diverge";

  std::vector<int64_t> fast_out, ref_out;
  ASSERT_TRUE(fast->Decode(buf, &fast_out).ok()) << label;
  ASSERT_TRUE(ref->Decode(buf, &ref_out).ok()) << label;
  EXPECT_EQ(fast_out, ref_out) << label << ": kernels diverge";
  EXPECT_EQ(fast_out, values) << label << ": round trip lost data";
}

TEST(DecodeKernelsDifferential, EmptyInput) {
  for (CompressionKind kind : kIntKinds) {
    ExpectIdenticalRoundTrip(kind, {}, CompressionKindName(kind));
  }
}

TEST(DecodeKernelsDifferential, SingleValues) {
  for (CompressionKind kind : kIntKinds) {
    for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, kMin, kMax}) {
      ExpectIdenticalRoundTrip(kind, {v},
                               std::string(CompressionKindName(kind)) +
                                   " single " + std::to_string(v));
    }
  }
}

TEST(DecodeKernelsDifferential, SingleLongRun) {
  // One run spanning several 64-bit words plus a partial tail.
  for (CompressionKind kind : kIntKinds) {
    std::vector<int64_t> run(257, -42);
    ExpectIdenticalRoundTrip(kind, run, CompressionKindName(kind));
  }
}

TEST(DecodeKernelsDifferential, AllDistinct) {
  for (CompressionKind kind : kIntKinds) {
    std::vector<int64_t> v;
    for (int64_t i = 0; i < 300; ++i) v.push_back(i * 1000003 - 150000);
    ExpectIdenticalRoundTrip(kind, v, CompressionKindName(kind));
  }
}

TEST(DecodeKernelsDifferential, ExtremeAlternation) {
  // INT64_MIN/MAX alternation exercises 64-bit widths, the wrapping delta
  // arithmetic, and the two-load stitch path in the word unpacker.
  for (CompressionKind kind : kIntKinds) {
    std::vector<int64_t> v;
    for (int i = 0; i < 67; ++i) v.push_back(i % 2 ? kMax : kMin);
    ExpectIdenticalRoundTrip(kind, v, CompressionKindName(kind));
  }
}

TEST(DecodeKernelsDifferential, SeededFuzzRoundTrips) {
  Rng rng(20260808);
  for (CompressionKind kind : kIntKinds) {
    for (int trial = 0; trial < 50; ++trial) {
      const size_t n = static_cast<size_t>(rng.Uniform(0, 300));
      const int shift = static_cast<int>(rng.Uniform(0, 63));
      std::vector<int64_t> v;
      v.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        // Mix magnitudes: shifted-down randoms cluster the bit width per
        // trial, occasional raw values hit the full 64-bit range.
        const uint64_t raw = rng.Next();
        v.push_back(trial % 7 == 0 ? static_cast<int64_t>(raw)
                                   : static_cast<int64_t>(raw >> shift));
      }
      ExpectIdenticalRoundTrip(kind, v,
                               std::string(CompressionKindName(kind)) +
                                   " trial " + std::to_string(trial));
    }
  }
}

TEST(DecodeKernelsDifferential, TruncatedBuffersRejectedIdentically) {
  // Every strict prefix of a valid buffer must be accepted or rejected by
  // both kernels alike; when both accept (impossible for these inputs, but
  // the invariant is the point), outputs must match.
  Rng rng(99);
  for (CompressionKind kind : kIntKinds) {
    std::vector<int64_t> v;
    for (int i = 0; i < 40; ++i) {
      v.push_back(static_cast<int64_t>(rng.Uniform(0, 1 << 20)) - 1000);
    }
    auto fast = MakeInt64Codec(kind);
    auto ref = MakeReferenceInt64Codec(kind);
    std::vector<uint8_t> buf;
    ASSERT_TRUE(fast->Encode(v, &buf).ok());
    for (size_t len = 0; len < buf.size(); ++len) {
      std::vector<uint8_t> cut(buf.begin(),
                               buf.begin() + static_cast<ptrdiff_t>(len));
      std::vector<int64_t> fast_out, ref_out;
      const Status fs = fast->Decode(cut, &fast_out);
      const Status rs = ref->Decode(cut, &ref_out);
      EXPECT_EQ(fs.ok(), rs.ok())
          << CompressionKindName(kind) << " prefix " << len;
      if (fs.ok() && rs.ok()) {
        EXPECT_EQ(fast_out, ref_out);
      }
    }
  }
}

TEST(DecodeKernelsDifferential, HostileDeclaredCountRejected) {
  // A header declaring ~2^64 values must be rejected cleanly (no huge
  // allocation, no wraparound past the payload check) by both kernels.
  for (CompressionKind kind :
       {CompressionKind::kRle, CompressionKind::kDelta,
        CompressionKind::kBitpack, CompressionKind::kFor}) {
    std::vector<uint8_t> buf;
    buf.push_back(static_cast<uint8_t>(kind));
    PutVarint(std::numeric_limits<uint64_t>::max() - 3, &buf);
    // Plausible-looking payload: varints / reference / width byte.
    for (uint8_t b : {0x00, 0x40, 0x01, 0x01, 0x01}) buf.push_back(b);
    std::vector<int64_t> out;
    EXPECT_FALSE(MakeInt64Codec(kind)->Decode(buf, &out).ok())
        << CompressionKindName(kind);
    EXPECT_FALSE(MakeReferenceInt64Codec(kind)->Decode(buf, &out).ok())
        << CompressionKindName(kind);
  }
}

TEST(DecodeKernelsDifferential, RleRunPastDeclaredCountRejected) {
  // 10 values declared, in runs of 3 and 2^64 - 2. The second run's end
  // wraps past 2^64, so a bounds check written as `size + run > count`
  // passes it; both kernels must reject the buffer as corrupt instead.
  std::vector<uint8_t> buf;
  buf.push_back(static_cast<uint8_t>(CompressionKind::kRle));
  PutVarint(10, &buf);
  PutVarint(ZigzagEncode(7), &buf);
  PutVarint(3, &buf);
  PutVarint(ZigzagEncode(8), &buf);
  PutVarint(std::numeric_limits<uint64_t>::max() - 1, &buf);
  std::vector<int64_t> out;
  EXPECT_EQ(MakeInt64Codec(CompressionKind::kRle)->Decode(buf, &out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(
      MakeReferenceInt64Codec(CompressionKind::kRle)->Decode(buf, &out).code(),
      StatusCode::kDataLoss);
}

TEST(BitunpackDifferential, AllWidthsAndCounts) {
  Rng rng(7);
  for (int bits = 0; bits <= 64; ++bits) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{63}, size_t{64}, size_t{65}, size_t{200}}) {
      std::vector<uint64_t> values;
      values.reserve(count);
      const uint64_t mask =
          bits == 64 ? ~0ULL : ((1ULL << bits) - 1);
      for (size_t i = 0; i < count; ++i) values.push_back(rng.Next() & mask);
      std::vector<uint8_t> packed;
      BitpackValues(values, bits, &packed);

      std::vector<uint64_t> fast_out, scalar_out;
      ASSERT_TRUE(
          BitunpackValues(packed, 0, bits, count, &fast_out).ok());
      ASSERT_TRUE(
          BitunpackValuesScalar(packed, 0, bits, count, &scalar_out).ok());
      EXPECT_EQ(fast_out, scalar_out) << "bits=" << bits
                                      << " count=" << count;
      EXPECT_EQ(fast_out, values) << "bits=" << bits << " count=" << count;
    }
  }
}

TEST(BitunpackDifferential, NonZeroOffset) {
  // The kernels must honor `offset` (bitpacked payload after a header).
  Rng rng(11);
  for (int bits : {1, 5, 13, 31, 57, 58, 64}) {
    std::vector<uint64_t> values;
    const uint64_t mask = bits == 64 ? ~0ULL : ((1ULL << bits) - 1);
    for (int i = 0; i < 100; ++i) values.push_back(rng.Next() & mask);
    std::vector<uint8_t> packed;
    BitpackValues(values, bits, &packed);
    for (size_t offset : {size_t{1}, size_t{3}, size_t{9}}) {
      std::vector<uint8_t> buf(offset, 0xAB);
      buf.insert(buf.end(), packed.begin(), packed.end());
      std::vector<uint64_t> fast_out, scalar_out;
      ASSERT_TRUE(
          BitunpackValues(buf, offset, bits, values.size(), &fast_out).ok());
      ASSERT_TRUE(
          BitunpackValuesScalar(buf, offset, bits, values.size(), &scalar_out)
              .ok());
      EXPECT_EQ(fast_out, scalar_out) << "bits=" << bits << " off=" << offset;
      EXPECT_EQ(fast_out, values);
    }
  }
}

TEST(BitunpackDifferential, TruncationAndOverflowRejected) {
  std::vector<uint64_t> values(64, 0x3FF);
  std::vector<uint8_t> packed;
  BitpackValues(values, 10, &packed);
  std::vector<uint8_t> cut(packed.begin(), packed.end() - 1);
  std::vector<uint64_t> out;
  EXPECT_FALSE(BitunpackValues(cut, 0, 10, 64, &out).ok());
  EXPECT_FALSE(BitunpackValuesScalar(cut, 0, 10, 64, &out).ok());

  // count * bits wrapping past SIZE_MAX must not sneak past the length
  // check and resize the output to a bogus (tiny or huge) size.
  const size_t huge = std::numeric_limits<size_t>::max() / 8 + 2;
  EXPECT_FALSE(BitunpackValues(packed, 0, 64, huge, &out).ok());
  EXPECT_FALSE(BitunpackValuesScalar(packed, 0, 64, huge, &out).ok());
}

}  // namespace
}  // namespace ecodb::storage
