#include "util/flat_key_index.h"

#include <algorithm>

namespace ecodb {

void FlatKeyIndex::Reset() {
  slots_.assign(kMinSlots, Slot{});
  mask_ = kMinSlots - 1;
  dir_.clear();
  keys_ = 0;
  unique_ = false;
  run_begin_.clear();
  rows_.clear();
}

void FlatKeyIndex::Build(std::span<const int64_t> keys) {
  if (!keys.empty()) {
    const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
    // Unsigned, so no range overflows: one spanning all of int64 reads
    // 2^64 - 1 slots past the first and counts as sparse.
    const uint64_t last =
        static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
    if (last < kMaxDirectorySlotsPerRow * keys.size()) {
      BuildDirectory(keys, *lo, last + 1);
      return;
    }
  }
  Build(
      keys.size(),
      [&](size_t r) { return MixHash64(static_cast<uint64_t>(keys[r])); },
      [&](size_t a, size_t b) { return keys[a] == keys[b]; });
}

void FlatKeyIndex::BuildDirectory(std::span<const int64_t> keys, int64_t min,
                                  uint64_t span) {
  assert(keys.size() < UINT32_MAX);
  Reset();
  dir_min_ = min;
  dir_.assign(span, 0);
  const auto offset = [&](size_t r) {
    return static_cast<uint64_t>(keys[r]) - static_cast<uint64_t>(min);
  };
  std::vector<uint32_t> first_row(keys.size());
  uint32_t n = 0;  // keys so far; a slot holds its key's id + 1
  for (size_t r = 0; r < keys.size(); ++r) {
    uint32_t& slot = dir_[offset(r)];
    if (slot == 0) {
      first_row[n] = static_cast<uint32_t>(r);
      slot = ++n;
    }
  }
  first_row.resize(n);
  GroupRows(keys.size(), std::move(first_row),
            [&](size_t r) { return dir_[offset(r)] - 1; });
}

}  // namespace ecodb
