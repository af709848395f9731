// Flat key index: the rows of a key lane grouped by key, for hash-join
// build tables, distinct-value counts and aggregate group ids.
//
// Open addressing with linear probing over 64-bit hashes the caller
// supplies. The index stores row ids, never keys: equality is the caller's
// and is checked against a row of the key lane, so one index serves int64,
// double and string lanes alike. Each distinct key owns one contiguous run
// of row ids in ascending row order.
//
// Nothing a caller can observe depends on the hash function or the table
// capacity. Which rows share a run, and the order inside a run, follow from
// key equality and row order alone; a hash only decides where a key's slot
// sits, so a poor one (even a constant) costs time, never results.

#ifndef ECODB_UTIL_FLAT_KEY_INDEX_H_
#define ECODB_UTIL_FLAT_KEY_INDEX_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

namespace ecodb {

/// MurmurHash3's finalizer: every input bit reaches the low bits that pick
/// a slot, so dense integer keys do not cluster.
inline uint64_t MixHash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Hash of a byte string, embedded NULs included.
inline uint64_t HashBytes(std::string_view bytes) {
  return MixHash64(std::hash<std::string_view>{}(bytes));
}

class FlatKeyIndex {
 public:
  /// Rebuilds the index over rows [0, rows), dropping earlier contents.
  /// `hash(r)` is row r's key hash and `same(a, b)` says whether rows a and
  /// b hold equal keys. A key that equals nothing, not even itself (NaN),
  /// gets a run of its own per row.
  template <typename HashFn, typename SameFn>
  void Build(size_t rows, HashFn&& hash, SameFn&& same) {
    std::vector<uint32_t> row_key(rows);  // key id of each row
    std::vector<uint32_t> first_row;
    const size_t keys = Insert(rows, hash, same, &first_row,
                               [&](size_t r, uint32_t k) { row_key[r] = k; });
    GroupRows(row_key, keys);
  }

  /// Gives rows [0, rows) key ids 0, 1, ... in order of first appearance,
  /// with `hash` and `same` as in Build: `ids[r]` is row r's key id and
  /// `first_rows[k]` the first row holding key k. Drops the last Build;
  /// the slot table and both vectors keep their storage across calls.
  template <typename HashFn, typename SameFn>
  void AssignKeyIds(size_t rows, HashFn&& hash, SameFn&& same,
                    std::vector<uint32_t>* ids,
                    std::vector<uint32_t>* first_rows) {
    ids->resize(rows);
    uint32_t* out = ids->data();
    Insert(rows, hash, same, first_rows,
           [out](size_t r, uint32_t k) { out[r] = k; });
  }

  /// Distinct keys among rows [0, rows), with `hash` and `same` as in
  /// Build; the rows themselves are not kept.
  template <typename HashFn, typename SameFn>
  static size_t CountDistinct(size_t rows, HashFn&& hash, SameFn&& same) {
    FlatKeyIndex index;
    std::vector<uint32_t> first_row;
    return index.Insert(rows, hash, same, &first_row,
                        [](size_t, uint32_t) {});
  }

  /// Ids of the rows whose key equals the probe key, ascending; empty when
  /// none does. `hash` is the probe key's hash and `matches(r)` says
  /// whether row r holds the probe key. Read-only, so concurrent calls are
  /// safe.
  template <typename MatchFn>
  std::span<const uint32_t> Find(uint64_t hash, MatchFn&& matches) const {
    if (rows_.empty()) return {};
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const Slot s = slots_[pos];
      if (s.key == 0) return {};
      if (s.tag != tag) continue;
      const uint32_t begin = run_begin_[s.key - 1];
      if (matches(rows_[begin])) {
        return {rows_.data() + begin, run_begin_[s.key] - begin};
      }
    }
  }

  /// Distinct keys in the last Build.
  size_t distinct_keys() const {
    return run_begin_.empty() ? 0 : run_begin_.size() - 1;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint32_t tag = 0;  // high half of the key's hash
    uint32_t key = 0;  // key id + 1; 0 marks an empty slot
  };

  void Reset();

  /// Gives each row a key id (0, 1, ... in order of first appearance),
  /// reports it as `on_row(row, id)`, lists each key's first row in
  /// `first_rows` and returns the number of keys.
  template <typename HashFn, typename SameFn, typename OnRow>
  size_t Insert(size_t rows, HashFn& hash, SameFn& same,
                std::vector<uint32_t>* first_rows, OnRow on_row) {
    assert(rows < UINT32_MAX);
    Reset();
    std::vector<uint32_t>& first_row = *first_rows;
    first_row.clear();
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t h = hash(r);
      const uint32_t tag = static_cast<uint32_t>(h >> 32);
      for (size_t pos = h & mask_;; pos = (pos + 1) & mask_) {
        Slot& s = slots_[pos];
        if (s.key == 0) {
          first_row.push_back(static_cast<uint32_t>(r));
          s = Slot{tag, static_cast<uint32_t>(first_row.size())};
          on_row(r, s.key - 1);
          if (2 * first_row.size() > slots_.size()) Grow(first_row, hash);
          break;
        }
        if (s.tag == tag && same(first_row[s.key - 1], r)) {
          on_row(r, s.key - 1);
          break;
        }
      }
    }
    return first_row.size();
  }

  /// Doubles the slot table and re-places every key by its first row's
  /// hash, in key order (so the key lane is read front to back).
  template <typename HashFn>
  void Grow(const std::vector<uint32_t>& first_row, HashFn& hash) {
    slots_.assign(slots_.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (size_t k = 0; k < first_row.size(); ++k) {
      const uint64_t h = hash(first_row[k]);
      size_t pos = h & mask_;
      while (slots_[pos].key != 0) pos = (pos + 1) & mask_;
      slots_[pos] = Slot{static_cast<uint32_t>(h >> 32),
                         static_cast<uint32_t>(k + 1)};
    }
  }
  /// Lays the rows out key by key (a counting sort, stable in row order).
  void GroupRows(const std::vector<uint32_t>& row_key, size_t keys);

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::vector<uint32_t> run_begin_;  // per key, plus one end sentinel
  std::vector<uint32_t> rows_;       // row ids grouped by key
};

}  // namespace ecodb

#endif  // ECODB_UTIL_FLAT_KEY_INDEX_H_
