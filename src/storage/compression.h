// Column compression codecs.
//
// Figure 2 of the paper turns on the compression tradeoff: compressed scans
// exchange CPU cycles for disk bandwidth, which helps performance but can
// *hurt* energy efficiency when the CPU's power dwarfs the storage device's.
// EcoDB implements real codecs (these actually transform bytes and round-trip
// losslessly) so the engine can measure genuine compression ratios and charge
// genuine decode work:
//
//   * RLE                — run-length for repetitive int64 columns
//   * Delta              — consecutive differences + zigzag varint
//   * Bitpack            — fixed-width packing of bounded ints
//   * FOR                — frame-of-reference (min-offset) + bitpack
//   * Dictionary         — string columns with few distinct values
//
// Each codec reports a CpuCostProfile used by the optimizer's energy model:
// instructions per value to encode/decode, from which the CPU power model
// derives seconds and Joules.
//
// Decode is the scan hot path, so every codec ships two decoders with
// byte-identical output: a *reference* scalar kernel (value-at-a-time,
// bit-at-a-time — the differential-testing oracle and the calibration
// baseline for `bench/micro_codecs`) and a *fast* kernel (word-at-a-time
// bit unpacking with an AVX2 variant when compiled in, run-at-a-time RLE
// materialization, group-style varint delta decode). MakeInt64Codec
// returns the fast decoders; MakeReferenceInt64Codec the scalar ones.

#ifndef ECODB_STORAGE_COMPRESSION_H_
#define ECODB_STORAGE_COMPRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace ecodb::storage {

enum class CompressionKind {
  kNone,
  kRle,
  kDelta,
  kBitpack,
  kFor,
  kDictionary,
};

const char* CompressionKindName(CompressionKind kind);

/// CPU cost of a codec, in abstract instructions per value. The optimizer
/// multiplies by the platform CPU model's seconds-per-instruction.
struct CpuCostProfile {
  double encode_instructions_per_value = 0.0;
  double decode_instructions_per_value = 0.0;
};

/// Abstract codec for int64 columns. Implementations are stateless.
class Int64Codec {
 public:
  virtual ~Int64Codec() = default;

  virtual CompressionKind kind() const = 0;
  virtual CpuCostProfile cost_profile() const = 0;

  /// Encodes `values` into `out` (replacing its contents).
  virtual Status Encode(const std::vector<int64_t>& values,
                        std::vector<uint8_t>* out) const = 0;

  /// Decodes an Encode() buffer back into `values`.
  virtual Status Decode(const std::vector<uint8_t>& buffer,
                        std::vector<int64_t>* values) const = 0;
};

/// Factory. kDictionary is string-only and not valid here. Returns codecs
/// with the fast decode kernels (word-at-a-time / run-at-a-time / grouped
/// varint); this is what the engine uses.
std::unique_ptr<Int64Codec> MakeInt64Codec(CompressionKind kind);

/// Same encoded format, but decoding uses the reference scalar kernels
/// (value-at-a-time, bit-at-a-time). Kept as the differential-testing
/// oracle and the `bench/micro_codecs` calibration baseline; its
/// cost_profile() reports the pre-vectorization instruction rates.
std::unique_ptr<Int64Codec> MakeReferenceInt64Codec(CompressionKind kind);

/// Dictionary codec for string columns.
class StringDictionaryCodec {
 public:
  CpuCostProfile cost_profile() const;

  /// Encodes: dictionary of distinct strings + bitpacked codes.
  Status Encode(const std::vector<std::string>& values,
                std::vector<uint8_t>* out) const;

  Status Decode(const std::vector<uint8_t>& buffer,
                std::vector<std::string>* values) const;
};

/// Modeled instructions to decode one value stored as `kind`: the fast
/// codec's decode profile, or a touch of 1 for an uncompressed lane.
double DecodeInstructionsPerValue(CompressionKind kind);

/// Measures the codec's ratio on a sample: encoded_bytes / raw_bytes
/// (lower is better; > 1 means the codec inflates this data).
double MeasureInt64Ratio(const Int64Codec& codec,
                         const std::vector<int64_t>& sample);

// --- Low-level helpers (exposed for tests and the WAL) ------------------

/// Appends `v` to `out` as a LEB128 varint.
void PutVarint(uint64_t v, std::vector<uint8_t>* out);

/// Reads a varint at *pos, advancing it. Returns false on truncation.
bool GetVarint(const std::vector<uint8_t>& buf, size_t* pos, uint64_t* v);

/// Zigzag maps signed to unsigned preserving small magnitudes.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Number of bits needed to represent `v` (0 -> 0 bits).
int BitsNeeded(uint64_t v);

/// Packs each value's low `bits` bits contiguously.
void BitpackValues(const std::vector<uint64_t>& values, int bits,
                   std::vector<uint8_t>* out);

/// Inverse of BitpackValues for `count` values. Word-at-a-time fast kernel
/// (64-bit unaligned loads + shift/mask, AVX2 variant when compiled in);
/// falls back to the scalar kernel on big-endian targets.
Status BitunpackValues(const std::vector<uint8_t>& buf, size_t offset,
                       int bits, size_t count, std::vector<uint64_t>* values);

/// Reference scalar unpack: one bit at a time, byte-identical output to
/// BitunpackValues. Exposed for differential tests and calibration.
Status BitunpackValuesScalar(const std::vector<uint8_t>& buf, size_t offset,
                             int bits, size_t count,
                             std::vector<uint64_t>* values);

}  // namespace ecodb::storage

#endif  // ECODB_STORAGE_COMPRESSION_H_
