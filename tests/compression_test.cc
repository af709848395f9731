// Tests for the column codecs: lossless round-trips on adversarial
// patterns (parameterized property sweep), ratio expectations per data
// shape, corruption handling, and the low-level varint/zigzag/bitpack
// helpers shared with the WAL.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/compression.h"
#include "util/random.h"

namespace ecodb::storage {
namespace {

// --- Low-level helpers ------------------------------------------------------

TEST(Varint, RoundTripsBoundaries) {
  const uint64_t cases[] = {0,    1,    127,        128,
                            300,  16383, 16384,     UINT32_MAX,
                            UINT64_MAX, 1ULL << 62, 0xdeadbeefcafeULL};
  for (uint64_t v : cases) {
    std::vector<uint8_t> buf;
    PutVarint(v, &buf);
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint(buf, &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncationDetected) {
  std::vector<uint8_t> buf;
  PutVarint(UINT64_MAX, &buf);
  buf.pop_back();
  size_t pos = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint(buf, &pos, &out));
}

TEST(Zigzag, RoundTripsSignedRange) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MAX, INT64_MIN, -123456789};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(Zigzag, SmallMagnitudesStaySmall) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
}

TEST(BitsNeeded, KnownValues) {
  EXPECT_EQ(BitsNeeded(0), 0);
  EXPECT_EQ(BitsNeeded(1), 1);
  EXPECT_EQ(BitsNeeded(2), 2);
  EXPECT_EQ(BitsNeeded(255), 8);
  EXPECT_EQ(BitsNeeded(256), 9);
  EXPECT_EQ(BitsNeeded(UINT64_MAX), 64);
}

TEST(Bitpack, RoundTripsVariousWidths) {
  Rng rng(42);
  for (int bits : {1, 3, 7, 8, 13, 31, 33, 64}) {
    std::vector<uint64_t> values;
    const uint64_t mask =
        bits == 64 ? UINT64_MAX : ((1ULL << bits) - 1);
    for (int i = 0; i < 257; ++i) values.push_back(rng.Next() & mask);
    std::vector<uint8_t> buf;
    BitpackValues(values, bits, &buf);
    EXPECT_EQ(buf.size(), (values.size() * bits + 7) / 8);
    std::vector<uint64_t> out;
    ASSERT_TRUE(BitunpackValues(buf, 0, bits, values.size(), &out).ok());
    EXPECT_EQ(out, values);
  }
}

TEST(Bitpack, TruncatedBufferRejected) {
  std::vector<uint64_t> values(100, 7);
  std::vector<uint8_t> buf;
  BitpackValues(values, 3, &buf);
  std::vector<uint64_t> out;
  EXPECT_FALSE(BitunpackValues(buf, 0, 3, 200, &out).ok());
}

// --- Parameterized round-trip property over codecs x data patterns --------

std::vector<int64_t> MakePattern(const std::string& pattern, size_t n) {
  Rng rng(99);
  std::vector<int64_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (pattern == "constant") {
      v.push_back(42);
    } else if (pattern == "sequential") {
      v.push_back(static_cast<int64_t>(i));
    } else if (pattern == "runs") {
      v.push_back(static_cast<int64_t>(i / 37));
    } else if (pattern == "small_range") {
      v.push_back(1000000 + rng.Uniform(0, 255));
    } else if (pattern == "negatives") {
      v.push_back(rng.Uniform(-1000, 1000));
    } else if (pattern == "random64") {
      v.push_back(static_cast<int64_t>(rng.Next()));
    } else if (pattern == "extremes") {
      v.push_back(i % 2 ? INT64_MAX : INT64_MIN);
    } else if (pattern == "zigzag_dates") {
      v.push_back(10957 + rng.Uniform(0, 2555));  // days
    }
  }
  return v;
}

struct RoundTripCase {
  CompressionKind kind;
  std::string pattern;
  size_t n;
};

class Int64CodecRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(Int64CodecRoundTrip, Lossless) {
  const RoundTripCase& c = GetParam();
  auto codec = MakeInt64Codec(c.kind);
  ASSERT_NE(codec, nullptr);
  const std::vector<int64_t> values = MakePattern(c.pattern, c.n);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec->Encode(values, &buf).ok());
  std::vector<int64_t> out;
  ASSERT_TRUE(codec->Decode(buf, &out).ok());
  EXPECT_EQ(out, values);
}

std::vector<RoundTripCase> AllRoundTripCases() {
  std::vector<RoundTripCase> cases;
  const CompressionKind kinds[] = {CompressionKind::kNone,
                                   CompressionKind::kRle,
                                   CompressionKind::kDelta,
                                   CompressionKind::kBitpack,
                                   CompressionKind::kFor};
  const char* patterns[] = {"constant",  "sequential", "runs",
                            "small_range", "negatives", "random64",
                            "extremes",  "zigzag_dates"};
  for (CompressionKind k : kinds) {
    for (const char* p : patterns) {
      for (size_t n : {0, 1, 1000}) {
        // Extremes overflow delta/FOR offset arithmetic by design; those
        // codecs are never chosen for full-range data (the advisor measures
        // ratios on real samples), so exclude that combination.
        const bool overflowy =
            std::string(p) == "extremes" &&
            (k == CompressionKind::kDelta || k == CompressionKind::kFor ||
             k == CompressionKind::kBitpack);
        if (!overflowy) cases.push_back({k, p, n});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllPatterns, Int64CodecRoundTrip,
    ::testing::ValuesIn(AllRoundTripCases()),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(CompressionKindName(info.param.kind)) + "_" +
             info.param.pattern + "_" + std::to_string(info.param.n);
    });

// --- Ratio expectations -----------------------------------------------------

TEST(CodecRatios, RleCrushesConstantColumns) {
  auto rle = MakeInt64Codec(CompressionKind::kRle);
  EXPECT_LT(MeasureInt64Ratio(*rle, MakePattern("constant", 10000)), 0.001);
}

TEST(CodecRatios, DeltaCompressesSequential) {
  auto delta = MakeInt64Codec(CompressionKind::kDelta);
  EXPECT_LT(MeasureInt64Ratio(*delta, MakePattern("sequential", 10000)),
            0.2);
}

TEST(CodecRatios, ForCompressesClusteredValues) {
  auto fr = MakeInt64Codec(CompressionKind::kFor);
  EXPECT_LT(MeasureInt64Ratio(*fr, MakePattern("small_range", 10000)), 0.2);
}

TEST(CodecRatios, RandomDataDoesNotCompress) {
  auto delta = MakeInt64Codec(CompressionKind::kDelta);
  EXPECT_GT(MeasureInt64Ratio(*delta, MakePattern("random64", 10000)), 0.9);
}

TEST(CodecRatios, NoneIsUnity) {
  auto none = MakeInt64Codec(CompressionKind::kNone);
  EXPECT_NEAR(MeasureInt64Ratio(*none, MakePattern("random64", 1000)), 1.0,
              0.01);
}

// --- Corruption and misuse --------------------------------------------------

TEST(CodecErrors, KindMismatchRejected) {
  auto rle = MakeInt64Codec(CompressionKind::kRle);
  auto delta = MakeInt64Codec(CompressionKind::kDelta);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(rle->Encode({1, 2, 3}, &buf).ok());
  std::vector<int64_t> out;
  EXPECT_FALSE(delta->Decode(buf, &out).ok());
}

TEST(CodecErrors, EmptyBufferRejected) {
  auto rle = MakeInt64Codec(CompressionKind::kRle);
  std::vector<int64_t> out;
  EXPECT_FALSE(rle->Decode({}, &out).ok());
}

TEST(CodecErrors, TruncatedPayloadRejected) {
  for (CompressionKind k :
       {CompressionKind::kNone, CompressionKind::kRle, CompressionKind::kDelta,
        CompressionKind::kFor}) {
    auto codec = MakeInt64Codec(k);
    std::vector<uint8_t> buf;
    ASSERT_TRUE(codec->Encode(MakePattern("negatives", 100), &buf).ok());
    buf.resize(buf.size() / 2);
    std::vector<int64_t> out;
    EXPECT_FALSE(codec->Decode(buf, &out).ok())
        << CompressionKindName(k);
  }
}

TEST(CodecErrors, DictionaryFactoryReturnsNull) {
  EXPECT_EQ(MakeInt64Codec(CompressionKind::kDictionary), nullptr);
}

// --- Dictionary codec -------------------------------------------------------

TEST(Dictionary, RoundTripsLowCardinality) {
  std::vector<std::string> values;
  const char* priorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW"};
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(priorities[rng.Uniform(0, 3)]);
  }
  StringDictionaryCodec codec;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec.Encode(values, &buf).ok());
  std::vector<std::string> out;
  ASSERT_TRUE(codec.Decode(buf, &out).ok());
  EXPECT_EQ(out, values);
  // 4 distinct values -> 2 bits/value + tiny dictionary.
  const size_t raw = 5000 * 8;  // avg string ~8 bytes
  EXPECT_LT(buf.size(), raw / 4);
}

TEST(Dictionary, RoundTripsEmptyAndSingle) {
  StringDictionaryCodec codec;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec.Encode({}, &buf).ok());
  std::vector<std::string> out;
  ASSERT_TRUE(codec.Decode(buf, &out).ok());
  EXPECT_TRUE(out.empty());

  ASSERT_TRUE(codec.Encode({"only"}, &buf).ok());
  ASSERT_TRUE(codec.Decode(buf, &out).ok());
  EXPECT_EQ(out, std::vector<std::string>{"only"});
}

TEST(Dictionary, HandlesEmptyStringsAndBinary) {
  StringDictionaryCodec codec;
  std::vector<std::string> values = {"", "a\0b", "", std::string(300, 'x')};
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec.Encode(values, &buf).ok());
  std::vector<std::string> out;
  ASSERT_TRUE(codec.Decode(buf, &out).ok());
  EXPECT_EQ(out, values);
}

TEST(Dictionary, AllDistinctStillLossless) {
  std::vector<std::string> values;
  for (int i = 0; i < 500; ++i) values.push_back("v" + std::to_string(i));
  StringDictionaryCodec codec;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec.Encode(values, &buf).ok());
  std::vector<std::string> out;
  ASSERT_TRUE(codec.Decode(buf, &out).ok());
  EXPECT_EQ(out, values);
}

TEST(Dictionary, TruncationRejected) {
  StringDictionaryCodec codec;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec.Encode({"aa", "bb", "aa"}, &buf).ok());
  buf.resize(buf.size() - 1);
  std::vector<std::string> out;
  EXPECT_FALSE(codec.Decode(buf, &out).ok());
}

TEST(Dictionary, ParseYieldsTheDictionaryAndCodes) {
  StringDictionaryCodec codec;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec.Encode({"R", "N", "R", "A", "N"}, &buf).ok());
  DictionaryColumn column;
  ASSERT_TRUE(codec.Parse(buf, &column).ok());
  EXPECT_EQ(column.dictionary, (std::vector<std::string>{"R", "N", "A"}));
  EXPECT_EQ(column.codes, (std::vector<uint64_t>{0, 1, 0, 2, 1}));
  ASSERT_TRUE(codec.Encode({}, &buf).ok());
  ASSERT_TRUE(codec.Parse(buf, &column).ok());
  EXPECT_TRUE(column.dictionary.empty());
  EXPECT_TRUE(column.codes.empty());
}

TEST(Dictionary, ParseAndDecodeRejectBadCodesWithDataLoss) {
  StringDictionaryCodec codec;
  // Three entries take 2-bit codes, so code 3 fits the width but names no
  // entry. The four codes fill the buffer's last byte, after the width.
  std::vector<uint8_t> buf;
  ASSERT_TRUE(codec.Encode({"a", "b", "c", "a"}, &buf).ok());
  ASSERT_GE(buf.size(), 2u);
  const std::vector<uint8_t> truncated(buf.begin(), buf.end() - 1);
  std::vector<uint8_t> past_end = truncated;
  past_end.push_back(0xff);  // every code 3
  std::vector<uint8_t> too_wide(buf.begin(), buf.end() - 2);
  too_wide.push_back(65);  // a code width no word holds
  too_wide.push_back(buf.back());
  for (const std::vector<uint8_t>& bad : {past_end, truncated, too_wide}) {
    DictionaryColumn column;
    EXPECT_EQ(codec.Parse(bad, &column).code(), StatusCode::kDataLoss);
    std::vector<std::string> out;
    EXPECT_EQ(codec.Decode(bad, &out).code(), StatusCode::kDataLoss);
  }
}

TEST(CostProfiles, CompressedCodecsCostMoreToDecodeThanTouch) {
  // The Figure 2 premise: decoding compressed data costs more CPU than
  // touching raw values.
  for (CompressionKind k : {CompressionKind::kRle, CompressionKind::kDelta,
                            CompressionKind::kFor}) {
    EXPECT_GT(DecodeInstructionsPerValue(k),
              DecodeInstructionsPerValue(CompressionKind::kNone));
  }
}

TEST(CompressionKindNames, AllDistinct) {
  EXPECT_STREQ(CompressionKindName(CompressionKind::kNone), "none");
  EXPECT_STREQ(CompressionKindName(CompressionKind::kRle), "rle");
  EXPECT_STREQ(CompressionKindName(CompressionKind::kDelta), "delta");
  EXPECT_STREQ(CompressionKindName(CompressionKind::kBitpack), "bitpack");
  EXPECT_STREQ(CompressionKindName(CompressionKind::kFor), "for");
  EXPECT_STREQ(CompressionKindName(CompressionKind::kDictionary),
               "dictionary");
}

}  // namespace
}  // namespace ecodb::storage
