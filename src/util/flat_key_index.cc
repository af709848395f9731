#include "util/flat_key_index.h"

#include <algorithm>

namespace ecodb {

namespace {

// The hashed slots' view of an int64 lane: MixHash64 of each key, and ==.
auto LaneHash(std::span<const int64_t> keys) {
  return [keys](size_t r) {
    return MixHash64(static_cast<uint64_t>(keys[r]));
  };
}
auto LaneSame(std::span<const int64_t> keys) {
  return [keys](size_t a, size_t b) { return keys[a] == keys[b]; };
}

}  // namespace

void FlatKeyIndex::Reset() {
  slots_.assign(kMinSlots, Slot{});
  mask_ = kMinSlots - 1;
  std::fill_n(dir_.begin(), dir_slots_, 0);
  dir_slots_ = 0;
  keys_ = 0;
  unique_ = false;
  run_begin_.clear();
  rows_.clear();
}

bool FlatKeyIndex::DenseRange(std::span<const int64_t> keys, int64_t* min,
                              uint64_t* slots) {
  if (keys.empty()) return false;
  // Branch-free: std::minmax_element mispredicts on unordered keys.
  int64_t lo = keys[0];
  int64_t hi = keys[0];
  for (int64_t key : keys) {
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  // Unsigned, so no range overflows: one spanning all of int64 reads
  // 2^64 - 1 slots past the first and counts as sparse.
  const uint64_t last = Offset(hi, lo);
  if (last >= kMaxDirectorySlotsPerRow * keys.size()) return false;
  *min = lo;
  *slots = last + 1;
  return true;
}

template <typename OnRow>
void FlatKeyIndex::FillDirectory(std::span<const int64_t> keys, int64_t min,
                                 uint64_t slots,
                                 std::vector<uint32_t>* first_rows,
                                 OnRow on_row) {
  assert(keys.size() < UINT32_MAX);
  Reset();
  if (dir_.size() < slots) dir_.resize(slots);
  dir_min_ = min;
  dir_slots_ = slots;
  first_rows->clear();
  for (size_t r = 0; r < keys.size(); ++r) {
    uint32_t& slot = dir_[Offset(keys[r], min)];
    if (slot == 0) {
      first_rows->push_back(static_cast<uint32_t>(r));
      slot = static_cast<uint32_t>(first_rows->size());
    }
    on_row(r, slot - 1);
  }
}

void FlatKeyIndex::Build(std::span<const int64_t> keys) {
  int64_t min = 0;
  uint64_t slots = 0;
  if (!DenseRange(keys, &min, &slots)) {
    Build(keys.size(), LaneHash(keys), LaneSame(keys));
    return;
  }
  std::vector<uint32_t> first_row;
  first_row.reserve(keys.size());  // each row adds at most one key
  FillDirectory(keys, min, slots, &first_row, [](size_t, uint32_t) {});
  GroupRows(keys.size(), std::move(first_row),
            [&](size_t r) { return dir_[Offset(keys[r], min)] - 1; });
}

bool FlatKeyIndex::AssignKeyIds(std::span<const int64_t> keys,
                                std::vector<uint32_t>* ids,
                                std::vector<uint32_t>* first_rows) {
  int64_t min = 0;
  uint64_t slots = 0;
  if (!DenseRange(keys, &min, &slots)) {
    AssignKeyIds(keys.size(), LaneHash(keys), LaneSame(keys), ids,
                 first_rows);
    return false;
  }
  ids->resize(keys.size());
  uint32_t* out = ids->data();
  FillDirectory(keys, min, slots, first_rows,
                [out](size_t r, uint32_t k) { out[r] = k; });
  // Leave every slot 0 again, touching only the ones this call set.
  for (uint32_t r : *first_rows) dir_[Offset(keys[r], min)] = 0;
  dir_slots_ = 0;
  return true;
}

size_t FlatKeyIndex::CountDistinct(std::span<const int64_t> keys) {
  int64_t min = 0;
  uint64_t slots = 0;
  if (!DenseRange(keys, &min, &slots)) {
    return CountDistinct(keys.size(), LaneHash(keys), LaneSame(keys));
  }
  FlatKeyIndex index;
  std::vector<uint32_t> first_rows;
  index.FillDirectory(keys, min, slots, &first_rows, [](size_t, uint32_t) {});
  return first_rows.size();
}

}  // namespace ecodb
