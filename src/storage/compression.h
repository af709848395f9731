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
// One table, DecodeInstructionsPerValue, holds the decode rate the engine
// bills per value of each kind; the CPU power model derives seconds and
// Joules from it. Scans and the planner both read it.
//
// Decode is the scan hot path, so each codec has one fast kernel, and the
// bit-packing and delta codecs keep a *reference* scalar kernel beside it
// with byte-identical output (value-at-a-time, bit-at-a-time — the
// differential-testing oracle, and the baseline `bench/perf_regress`
// measures the fast kernels' speedups against). The fast kernels unpack
// bits a word at a time and decode varint deltas in groups of eight.
// MakeInt64Codec returns the fast decoders; MakeReferenceInt64Codec the
// scalar ones. RLE has one decoder, which both factories return: a
// run-at-a-time fill measured no faster.

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

/// Abstract codec for int64 columns. Implementations are stateless.
class Int64Codec {
 public:
  virtual ~Int64Codec() = default;

  virtual CompressionKind kind() const = 0;

  /// Encodes `values` into `out` (replacing its contents).
  virtual Status Encode(const std::vector<int64_t>& values,
                        std::vector<uint8_t>* out) const = 0;

  /// Decodes an Encode() buffer back into `values`.
  virtual Status Decode(const std::vector<uint8_t>& buffer,
                        std::vector<int64_t>* values) const = 0;
};

/// Factory. kDictionary is string-only and not valid here. Returns codecs
/// with the fast decode kernels (word-at-a-time / grouped varint); this is
/// what the engine uses.
std::unique_ptr<Int64Codec> MakeInt64Codec(CompressionKind kind);

/// Same encoded format, but decoding uses the reference scalar kernels
/// (value-at-a-time, bit-at-a-time). Kept as the differential-testing
/// oracle and the baseline of `bench/perf_regress`'s decode speedups.
std::unique_ptr<Int64Codec> MakeReferenceInt64Codec(CompressionKind kind);

/// A dictionary-coded string column as stored: its distinct strings, and
/// per value the index of its string in `dictionary`.
struct DictionaryColumn {
  std::vector<std::string> dictionary;
  std::vector<uint64_t> codes;
};

/// Dictionary codec for string columns.
class StringDictionaryCodec {
 public:
  /// Encodes: dictionary of distinct strings + bitpacked codes.
  Status Encode(const std::vector<std::string>& values,
                std::vector<uint8_t>* out) const;

  /// Parses an Encode() buffer into its dictionary and codes. A truncated
  /// buffer, or a code past the end of the dictionary, is DataLoss.
  Status Parse(const std::vector<uint8_t>& buffer,
               DictionaryColumn* column) const;

  /// Parses `buffer` and expands every code into its string.
  Status Decode(const std::vector<uint8_t>& buffer,
                std::vector<std::string>* values) const;
};

/// Modeled instructions to decode one value stored as `kind` with its fast
/// kernel: the one rate table scans bill and the planner prices with, in
/// multiples of an uncompressed lane's touch (1).
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
/// (64-bit unaligned loads + shift/mask); falls back to the scalar kernel
/// on big-endian targets.
Status BitunpackValues(const std::vector<uint8_t>& buf, size_t offset,
                       int bits, size_t count, std::vector<uint64_t>* values);

/// Reference scalar unpack: one bit at a time, byte-identical output to
/// BitunpackValues. Exposed for differential tests and calibration.
Status BitunpackValuesScalar(const std::vector<uint8_t>& buf, size_t offset,
                             int bits, size_t count,
                             std::vector<uint64_t>* values);

}  // namespace ecodb::storage

#endif  // ECODB_STORAGE_COMPRESSION_H_
