#include "storage/compression.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <unordered_map>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ecodb::storage {

namespace {

// The word-at-a-time kernels assume unaligned little-endian 64-bit loads;
// big-endian targets take the scalar reference path instead.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

}  // namespace

const char* CompressionKindName(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kNone:
      return "none";
    case CompressionKind::kRle:
      return "rle";
    case CompressionKind::kDelta:
      return "delta";
    case CompressionKind::kBitpack:
      return "bitpack";
    case CompressionKind::kFor:
      return "for";
    case CompressionKind::kDictionary:
      return "dictionary";
  }
  return "unknown";
}

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint(const std::vector<uint8_t>& buf, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < buf.size() && shift <= 63) {
    const uint8_t byte = buf[*pos];
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

int BitsNeeded(uint64_t v) {
  int bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

void BitpackValues(const std::vector<uint64_t>& values, int bits,
                   std::vector<uint8_t>* out) {
  assert(bits >= 0 && bits <= 64);
  const size_t start = out->size();
  const size_t total_bits = values.size() * static_cast<size_t>(bits);
  out->resize(start + (total_bits + 7) / 8, 0);
  size_t bitpos = 0;
  for (uint64_t v : values) {
    for (int b = 0; b < bits; ++b) {
      if ((v >> b) & 1) {
        (*out)[start + bitpos / 8] |= static_cast<uint8_t>(1u << (bitpos % 8));
      }
      ++bitpos;
    }
  }
}

namespace {

// Shared bounds check for both unpack kernels. The multiplication guard
// matters: an adversarial varint count can make `count * bits` wrap and
// sneak past the byte-length comparison.
Status CheckBitpackBounds(const std::vector<uint8_t>& buf, size_t offset,
                          int bits, size_t count) {
  assert(bits >= 0 && bits <= 64);
  if (bits > 0 &&
      count > (std::numeric_limits<size_t>::max() - 7) /
                  static_cast<size_t>(bits)) {
    return Status::DataLoss("bitpacked count overflows");
  }
  const size_t packed = (count * static_cast<size_t>(bits) + 7) / 8;
  if (offset > buf.size() || packed > buf.size() - offset) {
    return Status::DataLoss("bitpacked buffer truncated");
  }
  return Status::OK();
}

// Loads up to `n` (< 8) little-endian bytes into a zero-extended word.
inline uint64_t LoadTail(const uint8_t* p, size_t n) {
  uint64_t w = 0;
  std::memcpy(&w, p, n);
  return w;
}

// Word-at-a-time unpack of `count` values of width `bits` from base[0..size).
// Bounds were validated by the caller; `size` may extend past the packed
// region, which lets most values use a full unaligned 8-byte load.
void BitunpackWords(const uint8_t* base, size_t size, int bits, size_t count,
                    uint64_t* out) {
  if (bits == 0) {
    std::fill_n(out, count, uint64_t{0});
    return;
  }
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  size_t i = 0;
#if defined(__AVX2__)
  if (bits <= 14) {
    // Four consecutive values span at most 7 + 4*14 = 63 bits, so a single
    // unaligned 64-bit load feeds a 4-lane variable shift.
    const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
    const __m256i lane = _mm256_set_epi64x(3LL * bits, 2LL * bits, bits, 0);
    while (i + 4 <= count) {
      const size_t bitpos = i * static_cast<size_t>(bits);
      const size_t byte = bitpos >> 3;
      if (byte + 8 > size) break;  // finish on the scalar tail below
      uint64_t w;
      std::memcpy(&w, base + byte, 8);
      const __m256i shifted = _mm256_srlv_epi64(
          _mm256_set1_epi64x(static_cast<long long>(w)),
          _mm256_add_epi64(
              lane, _mm256_set1_epi64x(static_cast<long long>(bitpos & 7))));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                          _mm256_and_si256(shifted, vmask));
      i += 4;
    }
  }
#endif
  if (bits <= 57) {
    // A value starting anywhere inside a byte spans at most 7 + 57 = 64
    // bits: one unaligned load per value.
    while (i < count) {
      const size_t bitpos = i * static_cast<size_t>(bits);
      const size_t byte = bitpos >> 3;
      if (byte + 8 > size) break;
      uint64_t w;
      std::memcpy(&w, base + byte, 8);
      out[i] = (w >> (bitpos & 7)) & mask;
      ++i;
    }
    // Tail values whose 8-byte window would run past the buffer.
    for (; i < count; ++i) {
      const size_t bitpos = i * static_cast<size_t>(bits);
      const size_t byte = bitpos >> 3;
      out[i] = (LoadTail(base + byte, size - byte) >> (bitpos & 7)) & mask;
    }
  } else {
    // 58..64-bit values can straddle nine bytes: stitch two loads.
    for (; i < count; ++i) {
      const size_t bitpos = i * static_cast<size_t>(bits);
      const size_t byte = bitpos >> 3;
      const int shift = static_cast<int>(bitpos & 7);
      uint64_t v = LoadTail(base + byte, std::min<size_t>(8, size - byte));
      v >>= shift;
      if (shift + bits > 64 && byte + 8 < size) {
        const uint64_t hi =
            LoadTail(base + byte + 8, std::min<size_t>(8, size - byte - 8));
        v |= hi << (64 - shift);
      }
      out[i] = v & mask;
    }
  }
}

// Unpacks into a raw output lane the caller has already sized. Used by the
// codec fast paths to decode straight into the destination vector.
void BitunpackRawUnchecked(const std::vector<uint8_t>& buf, size_t offset,
                           int bits, size_t count, uint64_t* out) {
  if (count == 0) return;
  if constexpr (kLittleEndian) {
    BitunpackWords(buf.data() + offset, buf.size() - offset, bits, count, out);
  } else {
    size_t bitpos = 0;
    for (size_t i = 0; i < count; ++i) {
      uint64_t v = 0;
      for (int b = 0; b < bits; ++b) {
        if ((buf[offset + bitpos / 8] >> (bitpos % 8)) & 1) {
          v |= 1ULL << b;
        }
        ++bitpos;
      }
      out[i] = v;
    }
  }
}

}  // namespace

Status BitunpackValues(const std::vector<uint8_t>& buf, size_t offset,
                       int bits, size_t count,
                       std::vector<uint64_t>* values) {
  ECODB_RETURN_IF_ERROR(CheckBitpackBounds(buf, offset, bits, count));
  values->resize(count);
  BitunpackRawUnchecked(buf, offset, bits, count, values->data());
  return Status::OK();
}

Status BitunpackValuesScalar(const std::vector<uint8_t>& buf, size_t offset,
                             int bits, size_t count,
                             std::vector<uint64_t>* values) {
  ECODB_RETURN_IF_ERROR(CheckBitpackBounds(buf, offset, bits, count));
  values->clear();
  values->reserve(count);
  size_t bitpos = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    for (int b = 0; b < bits; ++b) {
      if ((buf[offset + bitpos / 8] >> (bitpos % 8)) & 1) {
        v |= 1ULL << b;
      }
      ++bitpos;
    }
    values->push_back(v);
  }
  return Status::OK();
}

namespace {

// Each encoded buffer begins with [kind:1][count:varint] so decoders can
// sanity-check they were handed the right stream.
void PutHeader(CompressionKind kind, size_t count, std::vector<uint8_t>* out) {
  out->clear();
  out->push_back(static_cast<uint8_t>(kind));
  PutVarint(count, out);
}

Status GetHeader(const std::vector<uint8_t>& buf, CompressionKind expect,
                 size_t* pos, size_t* count) {
  *pos = 0;
  if (buf.empty()) return Status::DataLoss("empty compressed buffer");
  if (buf[0] != static_cast<uint8_t>(expect)) {
    return Status::InvalidArgument("buffer kind mismatch");
  }
  *pos = 1;
  uint64_t n = 0;
  if (!GetVarint(buf, pos, &n)) return Status::DataLoss("truncated header");
  *count = n;
  return Status::OK();
}

class NoneCodec final : public Int64Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kNone; }
  CpuCostProfile cost_profile() const override { return {1.0, 1.0}; }

  Status Encode(const std::vector<int64_t>& values,
                std::vector<uint8_t>* out) const override {
    PutHeader(kind(), values.size(), out);
    const size_t start = out->size();
    out->resize(start + values.size() * sizeof(int64_t));
    if (!values.empty()) {
      std::memcpy(out->data() + start, values.data(),
                  values.size() * sizeof(int64_t));
    }
    return Status::OK();
  }

  Status Decode(const std::vector<uint8_t>& buffer,
                std::vector<int64_t>* values) const override {
    size_t pos = 0, count = 0;
    ECODB_RETURN_IF_ERROR(GetHeader(buffer, kind(), &pos, &count));
    if (buffer.size() - pos < count * sizeof(int64_t)) {
      return Status::DataLoss("raw buffer truncated");
    }
    values->resize(count);
    if (count > 0) {
      std::memcpy(values->data(), buffer.data() + pos,
                  count * sizeof(int64_t));
    }
    return Status::OK();
  }
};

// `reference` selects the scalar value-at-a-time decoder kept as the
// differential oracle; the default decoder materializes run-at-a-time.
class RleCodec final : public Int64Codec {
 public:
  explicit RleCodec(bool reference) : reference_(reference) {}

  CompressionKind kind() const override { return CompressionKind::kRle; }
  CpuCostProfile cost_profile() const override {
    // Decode calibrated from bench/micro_codecs on the build host: the
    // run-at-a-time fill decodes at ~2.3x the uncompressed touch lane
    // (kNone's memcpy). The reference profile keeps the historical model
    // constant the scalar decoder shipped with.
    return reference_ ? CpuCostProfile{6.0, 3.0} : CpuCostProfile{6.0, 2.3};
  }

  Status Encode(const std::vector<int64_t>& values,
                std::vector<uint8_t>* out) const override {
    PutHeader(kind(), values.size(), out);
    size_t i = 0;
    while (i < values.size()) {
      size_t run = 1;
      while (i + run < values.size() && values[i + run] == values[i]) ++run;
      PutVarint(ZigzagEncode(values[i]), out);
      PutVarint(run, out);
      i += run;
    }
    return Status::OK();
  }

  Status Decode(const std::vector<uint8_t>& buffer,
                std::vector<int64_t>* values) const override {
    size_t pos = 0, count = 0;
    ECODB_RETURN_IF_ERROR(GetHeader(buffer, kind(), &pos, &count));
    // A run can legitimately cover far more values than the buffer has
    // bytes, so `count` cannot be validated against the payload size up
    // front. Capping the speculative reserve keeps a hostile header from
    // forcing a huge allocation before any payload is parsed; the output
    // then grows only as actual runs are decoded.
    values->clear();
    values->reserve(std::min<size_t>(count, 1 + buffer.size() * 64));
    if (reference_) {
      while (values->size() < count) {
        uint64_t zz = 0, run = 0;
        if (!GetVarint(buffer, &pos, &zz) || !GetVarint(buffer, &pos, &run)) {
          return Status::DataLoss("rle buffer truncated");
        }
        if (run == 0 || run > count - values->size()) {
          return Status::DataLoss("rle run overflows declared count");
        }
        values->insert(values->end(), run, ZigzagDecode(zz));
      }
      return Status::OK();
    }
    // Fast path: materialize each run with a single fill-style resize
    // (vectorizes to a splat-store loop).
    size_t filled = 0;
    while (filled < count) {
      uint64_t zz = 0, run = 0;
      if (!GetVarint(buffer, &pos, &zz) || !GetVarint(buffer, &pos, &run)) {
        return Status::DataLoss("rle buffer truncated");
      }
      if (run == 0 || run > count - filled) {
        return Status::DataLoss("rle run overflows declared count");
      }
      filled += run;
      values->resize(filled, ZigzagDecode(zz));
    }
    return Status::OK();
  }

 private:
  bool reference_;
};

class DeltaCodec final : public Int64Codec {
 public:
  explicit DeltaCodec(bool reference) : reference_(reference) {}

  CompressionKind kind() const override { return CompressionKind::kDelta; }
  CpuCostProfile cost_profile() const override {
    // Calibrated from bench/micro_codecs: group-of-8 varint decode runs at
    // ~4.6x the uncompressed touch lane (sequential data, one byte per
    // delta). Reference keeps the historical constant.
    return reference_ ? CpuCostProfile{5.0, 4.0} : CpuCostProfile{5.0, 4.6};
  }

  Status Encode(const std::vector<int64_t>& values,
                std::vector<uint8_t>* out) const override {
    PutHeader(kind(), values.size(), out);
    int64_t prev = 0;
    for (int64_t v : values) {
      // Wrapping subtraction via uint64 avoids signed-overflow UB on
      // adversarial inputs; decode adds back with the same wrap.
      const uint64_t diff =
          static_cast<uint64_t>(v) - static_cast<uint64_t>(prev);
      PutVarint(ZigzagEncode(static_cast<int64_t>(diff)), out);
      prev = v;
    }
    return Status::OK();
  }

  Status Decode(const std::vector<uint8_t>& buffer,
                std::vector<int64_t>* values) const override {
    size_t pos = 0, count = 0;
    ECODB_RETURN_IF_ERROR(GetHeader(buffer, kind(), &pos, &count));
    // Every delta is at least one payload byte, so a count the payload
    // cannot possibly satisfy is rejected before any allocation sized
    // from the (untrusted) header.
    if (count > buffer.size() - pos) {
      return Status::DataLoss("delta count exceeds payload");
    }
    if (reference_) {
      values->clear();
      values->reserve(count);
      int64_t prev = 0;
      for (size_t i = 0; i < count; ++i) {
        uint64_t zz = 0;
        if (!GetVarint(buffer, &pos, &zz)) {
          return Status::DataLoss("delta buffer truncated");
        }
        prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                    static_cast<uint64_t>(ZigzagDecode(zz)));
        values->push_back(prev);
      }
      return Status::OK();
    }
    values->resize(count);
    const uint8_t* data = buffer.data();
    const size_t size = buffer.size();
    int64_t prev = 0;
    size_t i = 0;
    while (i < count) {
      // Group fast path: when the next eight bytes are all terminal varint
      // bytes (high bit clear), one load decodes eight deltas at once.
      // Small deltas are the common case for sorted keys and dates.
      if (kLittleEndian && i + 8 <= count && pos + 8 <= size) {
        uint64_t w;
        std::memcpy(&w, data + pos, 8);
        if ((w & 0x8080808080808080ULL) == 0) {
          for (int j = 0; j < 8; ++j) {
            prev = static_cast<int64_t>(
                static_cast<uint64_t>(prev) +
                static_cast<uint64_t>(ZigzagDecode(w & 0x7f)));
            (*values)[i + static_cast<size_t>(j)] = prev;
            w >>= 8;
          }
          i += 8;
          pos += 8;
          continue;
        }
      }
      uint64_t zz = 0;
      if (!GetVarint(buffer, &pos, &zz)) {
        return Status::DataLoss("delta buffer truncated");
      }
      prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                  static_cast<uint64_t>(ZigzagDecode(zz)));
      (*values)[i++] = prev;
    }
    return Status::OK();
  }

 private:
  bool reference_;
};

// Bitpack and FOR share machinery; FOR subtracts the minimum first so that
// clustered-but-large values (e.g. order keys) pack into few bits.
class BitpackCodecImpl : public Int64Codec {
 public:
  BitpackCodecImpl(bool frame_of_reference, bool reference_impl)
      : frame_of_reference_(frame_of_reference),
        reference_impl_(reference_impl) {}

  CompressionKind kind() const override {
    return frame_of_reference_ ? CompressionKind::kFor
                               : CompressionKind::kBitpack;
  }
  CpuCostProfile cost_profile() const override {
    // Calibrated from bench/micro_codecs: the word-at-a-time unpack runs at
    // ~4.6-7.2x the uncompressed touch lane depending on bit width (narrow
    // widths amortize better); 4.8 is the sequential/runs midpoint.
    // Reference keeps the historical constant.
    return reference_impl_ ? CpuCostProfile{4.0, 3.5}
                           : CpuCostProfile{4.0, 4.8};
  }

  Status Encode(const std::vector<int64_t>& values,
                std::vector<uint8_t>* out) const override {
    PutHeader(kind(), values.size(), out);
    if (values.empty()) return Status::OK();
    int64_t reference = 0;
    if (frame_of_reference_) {
      reference = *std::min_element(values.begin(), values.end());
    } else {
      // Plain bitpack still needs non-negative inputs; fall back to zigzag.
      for (int64_t v : values) {
        if (v < 0) reference = std::min(reference, v);
      }
    }
    PutVarint(ZigzagEncode(reference), out);
    uint64_t max_off = 0;
    std::vector<uint64_t> offsets;
    offsets.reserve(values.size());
    for (int64_t v : values) {
      const uint64_t off =
          static_cast<uint64_t>(v) - static_cast<uint64_t>(reference);
      offsets.push_back(off);
      max_off = std::max(max_off, off);
    }
    const int bits = BitsNeeded(max_off);
    out->push_back(static_cast<uint8_t>(bits));
    BitpackValues(offsets, bits, out);
    return Status::OK();
  }

  Status Decode(const std::vector<uint8_t>& buffer,
                std::vector<int64_t>* values) const override {
    size_t pos = 0, count = 0;
    ECODB_RETURN_IF_ERROR(GetHeader(buffer, kind(), &pos, &count));
    values->clear();
    if (count == 0) return Status::OK();
    uint64_t ref_zz = 0;
    if (!GetVarint(buffer, &pos, &ref_zz)) {
      return Status::DataLoss("bitpack reference truncated");
    }
    const int64_t reference = ZigzagDecode(ref_zz);
    if (pos >= buffer.size()) return Status::DataLoss("bitpack width missing");
    const int bits = buffer[pos++];
    if (bits > 64) return Status::DataLoss("bitpack width out of range");
    if (reference_impl_) {
      std::vector<uint64_t> offsets;
      ECODB_RETURN_IF_ERROR(
          BitunpackValuesScalar(buffer, pos, bits, count, &offsets));
      values->reserve(count);
      for (uint64_t off : offsets) {
        values->push_back(
            static_cast<int64_t>(static_cast<uint64_t>(reference) + off));
      }
      return Status::OK();
    }
    // Fast path: unpack straight into the output lane (int64/uint64 alias
    // legally) and add the reference in place — no offsets temporary.
    ECODB_RETURN_IF_ERROR(CheckBitpackBounds(buffer, pos, bits, count));
    values->resize(count);
    uint64_t* raw = reinterpret_cast<uint64_t*>(values->data());
    BitunpackRawUnchecked(buffer, pos, bits, count, raw);
    if (reference != 0) {
      const uint64_t ref = static_cast<uint64_t>(reference);
      size_t i = 0;
#if defined(__AVX2__)
      const __m256i vref = _mm256_set1_epi64x(static_cast<long long>(ref));
      for (; i + 4 <= count; i += 4) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(raw + i),
                            _mm256_add_epi64(v, vref));
      }
#endif
      for (; i < count; ++i) raw[i] += ref;
    }
    return Status::OK();
  }

 private:
  bool frame_of_reference_;
  bool reference_impl_;
};

std::unique_ptr<Int64Codec> MakeCodec(CompressionKind kind, bool reference) {
  switch (kind) {
    case CompressionKind::kNone:
      return std::make_unique<NoneCodec>();
    case CompressionKind::kRle:
      return std::make_unique<RleCodec>(reference);
    case CompressionKind::kDelta:
      return std::make_unique<DeltaCodec>(reference);
    case CompressionKind::kBitpack:
      return std::make_unique<BitpackCodecImpl>(false, reference);
    case CompressionKind::kFor:
      return std::make_unique<BitpackCodecImpl>(true, reference);
    case CompressionKind::kDictionary:
      return nullptr;  // string-only
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Int64Codec> MakeInt64Codec(CompressionKind kind) {
  return MakeCodec(kind, /*reference=*/false);
}

std::unique_ptr<Int64Codec> MakeReferenceInt64Codec(CompressionKind kind) {
  return MakeCodec(kind, /*reference=*/true);
}

double DecodeInstructionsPerValue(CompressionKind kind) {
  if (kind == CompressionKind::kNone) return 1.0;  // touch cost
  if (kind == CompressionKind::kDictionary) {
    return StringDictionaryCodec().cost_profile().decode_instructions_per_value;
  }
  return MakeInt64Codec(kind)->cost_profile().decode_instructions_per_value;
}

CpuCostProfile StringDictionaryCodec::cost_profile() const {
  // Decode = fast code unpack + per-value string materialization; the
  // strings dominate, so the vectorized code unpack only trims the old
  // constant slightly.
  return {12.0, 3.5};
}

Status StringDictionaryCodec::Encode(const std::vector<std::string>& values,
                                     std::vector<uint8_t>* out) const {
  PutHeader(CompressionKind::kDictionary, values.size(), out);
  // Build dictionary in first-appearance order for determinism.
  std::unordered_map<std::string, uint64_t> index;
  std::vector<const std::string*> dict;
  std::vector<uint64_t> codes;
  codes.reserve(values.size());
  for (const std::string& s : values) {
    auto [it, inserted] = index.try_emplace(s, dict.size());
    if (inserted) dict.push_back(&it->first);
    codes.push_back(it->second);
  }
  PutVarint(dict.size(), out);
  for (const std::string* s : dict) {
    PutVarint(s->size(), out);
    out->insert(out->end(), s->begin(), s->end());
  }
  const int bits = BitsNeeded(dict.empty() ? 0 : dict.size() - 1);
  out->push_back(static_cast<uint8_t>(bits));
  BitpackValues(codes, bits, out);
  return Status::OK();
}

Status StringDictionaryCodec::Decode(const std::vector<uint8_t>& buffer,
                                     std::vector<std::string>* values) const {
  size_t pos = 0, count = 0;
  ECODB_RETURN_IF_ERROR(
      GetHeader(buffer, CompressionKind::kDictionary, &pos, &count));
  uint64_t dict_size = 0;
  if (!GetVarint(buffer, &pos, &dict_size)) {
    return Status::DataLoss("dictionary size truncated");
  }
  std::vector<std::string> dict;
  dict.reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    uint64_t len = 0;
    if (!GetVarint(buffer, &pos, &len) || pos + len > buffer.size()) {
      return Status::DataLoss("dictionary entry truncated");
    }
    dict.emplace_back(buffer.begin() + static_cast<long>(pos),
                      buffer.begin() + static_cast<long>(pos + len));
    pos += len;
  }
  if (pos >= buffer.size() && count > 0) {
    return Status::DataLoss("dictionary code width missing");
  }
  if (count == 0) {
    values->clear();
    return Status::OK();
  }
  const int bits = buffer[pos++];
  std::vector<uint64_t> codes;
  ECODB_RETURN_IF_ERROR(BitunpackValues(buffer, pos, bits, count, &codes));
  values->clear();
  values->reserve(count);
  for (uint64_t c : codes) {
    if (c >= dict.size()) return Status::DataLoss("dictionary code range");
    values->push_back(dict[c]);
  }
  return Status::OK();
}

double MeasureInt64Ratio(const Int64Codec& codec,
                         const std::vector<int64_t>& sample) {
  if (sample.empty()) return 1.0;
  std::vector<uint8_t> buf;
  if (!codec.Encode(sample, &buf).ok()) return 1.0;
  const double raw = static_cast<double>(sample.size() * sizeof(int64_t));
  return static_cast<double>(buf.size()) / raw;
}

}  // namespace ecodb::storage
