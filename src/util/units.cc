#include "util/units.h"

#include <cstdio>

namespace ecodb {

std::string FormatSeconds(double seconds) {
  char buf[64];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
  } else if (seconds >= kMilli) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", seconds / kMilli);
  } else if (seconds >= kMicro) {
    std::snprintf(buf, sizeof(buf), "%.3f us", seconds / kMicro);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f ns", seconds / kNano);
  }
  return buf;
}

std::string FormatJoules(double joules) {
  char buf[64];
  if (joules >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3f MJ", joules / 1e6);
  } else if (joules >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.3f kJ", joules / 1e3);
  } else if (joules >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f J", joules);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f mJ", joules / kMilli);
  }
  return buf;
}

}  // namespace ecodb
