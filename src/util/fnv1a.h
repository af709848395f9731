// FNV-1a, 64-bit: the one hash behind the WAL's record checksum and the
// serving and arrival-trace fingerprints. Each caller keeps its own start
// value, so every checksum and fingerprint stays what it was.

#ifndef ECODB_UTIL_FNV1A_H_
#define ECODB_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace ecodb {

/// FNV's standard 64-bit offset basis.
constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ULL;

/// Folds `len` bytes into `h`, one at a time.
inline uint64_t Fnv1a(const uint8_t* data, size_t len,
                      uint64_t h = kFnv1aOffsetBasis) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Folds the eight bytes of `v`, least significant first, into `h`.
inline uint64_t Fnv1a(uint64_t h, uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  return Fnv1a(bytes, sizeof(bytes), h);
}

}  // namespace ecodb

#endif  // ECODB_UTIL_FNV1A_H_
