// Unit helpers: bytes, time, power, and energy constants used throughout.
//
// EcoDB measures simulated time in double seconds, power in Watts, and
// energy in Joules (1 J = 1 W * 1 s), matching the paper's Section 2.1.

#ifndef ECODB_UTIL_UNITS_H_
#define ECODB_UTIL_UNITS_H_

#include <cstdint>
#include <string>

namespace ecodb {

constexpr uint64_t kKiB = 1024ULL;
constexpr uint64_t kMiB = 1024ULL * kKiB;
constexpr uint64_t kGiB = 1024ULL * kMiB;

constexpr double kMilli = 1e-3;
constexpr double kMicro = 1e-6;
constexpr double kNano = 1e-9;

/// Formats seconds adaptively, e.g. "12.3 ms", "4.56 s".
std::string FormatSeconds(double seconds);

/// Formats Joules adaptively, e.g. "338 J", "1.2 kJ".
std::string FormatJoules(double joules);

}  // namespace ecodb

#endif  // ECODB_UTIL_UNITS_H_
