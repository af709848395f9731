#include "util/flat_key_index.h"

namespace ecodb {

void FlatKeyIndex::Reset() {
  slots_.assign(kMinSlots, Slot{});
  mask_ = kMinSlots - 1;
  run_begin_.clear();
  rows_.clear();
}

void FlatKeyIndex::GroupRows(const std::vector<uint32_t>& row_key,
                             size_t keys) {
  run_begin_.assign(keys + 1, 0);
  for (uint32_t k : row_key) ++run_begin_[k + 1];
  for (size_t k = 0; k < keys; ++k) run_begin_[k + 1] += run_begin_[k];
  std::vector<uint32_t> next(run_begin_.begin(), run_begin_.end() - 1);
  rows_.resize(row_key.size());
  for (size_t r = 0; r < row_key.size(); ++r) {
    rows_[next[row_key[r]]++] = static_cast<uint32_t>(r);
  }
}

}  // namespace ecodb
