// Flat key index: the rows of a key lane grouped by key, for hash-join
// build tables, distinct-value counts and aggregate group ids.
//
// Two addressing modes share one contract. The hashed slots are open
// addressing with linear probing over 64-bit hashes the caller supplies;
// they store row ids, never keys, and equality is the caller's, checked
// against a row of the key lane, so they serve int64, double and string
// lanes alike. The directory serves an int64 lane whose keys are dense
// (their range spans at most kMaxDirectorySlotsPerRow slots per row): one
// slot per key offset `key - min`, so a lookup neither hashes nor compares.
// It serves builds, key ids and distinct counts alike. Its storage is kept
// across calls and AssignKeyIds clears only the slots it set, so a run of
// per-batch calls pays no range-sized allocation or clear.
//
// Either way, keys get ids 0, 1, ... in order of first appearance, and
// each distinct key owns one contiguous run of row ids in ascending row
// order. Nothing a caller can observe depends on the addressing, the hash
// function or the table capacity: which rows share a run, and the order
// inside a run, follow from key equality and row order alone. A hash only
// decides where a key's slot sits, so a poor one (even a constant) costs
// time, never results.

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
  /// The key id a lookup returns for a key the index does not hold.
  static constexpr uint32_t kNoKey = UINT32_MAX;
  /// An int64 lane whose key range spans at most this many slots per row
  /// is addressed by key offset. Slots are 4 bytes, so the directory takes
  /// at most 64 bytes per build row; sparser lanes use the hashed slots.
  static constexpr uint64_t kMaxDirectorySlotsPerRow = 16;

  /// Rebuilds the index over rows [0, rows) in the hashed slots, dropping
  /// earlier contents. `hash(r)` is row r's key hash and `same(a, b)` says
  /// whether rows a and b hold equal keys. A key that equals nothing, not
  /// even itself (NaN), gets a run of its own per row.
  template <typename HashFn, typename SameFn>
  void Build(size_t rows, HashFn&& hash, SameFn&& same) {
    std::vector<uint32_t> row_key(rows);  // key id of each row
    std::vector<uint32_t> first_row;
    Insert(rows, hash, same, &first_row,
           [&](size_t r, uint32_t k) { row_key[r] = k; });
    GroupRows(rows, std::move(first_row),
              [&](size_t r) { return row_key[r]; });
  }

  /// Rebuilds the index over an int64 key lane: through the directory when
  /// the keys are dense, else through the hashed slots with MixHash64 of
  /// each key and == (so look keys up with FindHashed and that hash).
  void Build(std::span<const int64_t> keys);

  /// Gives rows [0, rows) key ids 0, 1, ... in order of first appearance,
  /// with `hash` and `same` as in the hashed Build: `ids[r]` is row r's key
  /// id and `first_rows[k]` the first row holding key k. Drops the last
  /// Build; the slot table and both vectors keep their storage across
  /// calls.
  template <typename HashFn, typename SameFn>
  void AssignKeyIds(size_t rows, HashFn&& hash, SameFn&& same,
                    std::vector<uint32_t>* ids,
                    std::vector<uint32_t>* first_rows) {
    ids->resize(rows);
    uint32_t* out = ids->data();
    Insert(rows, hash, same, first_rows,
           [out](size_t r, uint32_t k) { out[r] = k; });
  }

  /// AssignKeyIds over an int64 key lane, addressed as Build(keys) would
  /// address it; the ids and first rows are the hashed call's either way.
  /// Only the directory slots the keys set are touched, and they are
  /// cleared again, so a dense call costs O(rows + keys) however often it
  /// runs. Returns whether the keys were addressed by offset.
  bool AssignKeyIds(std::span<const int64_t> keys, std::vector<uint32_t>* ids,
                    std::vector<uint32_t>* first_rows);

  /// Distinct keys among rows [0, rows), with `hash` and `same` as in the
  /// hashed Build; the rows themselves are not kept.
  template <typename HashFn, typename SameFn>
  static size_t CountDistinct(size_t rows, HashFn&& hash, SameFn&& same) {
    FlatKeyIndex index;
    std::vector<uint32_t> first_row;
    return index.Insert(rows, hash, same, &first_row,
                        [](size_t, uint32_t) {});
  }

  /// Distinct keys of an int64 lane, addressed as Build(keys) would
  /// address it.
  static size_t CountDistinct(std::span<const int64_t> keys);

  /// Whether the last Build addressed its keys by offset. Look keys up
  /// with FindDirect when it did and with FindHashed when it did not.
  bool direct() const { return dir_slots_ != 0; }

  /// Key id of `key` in a directory index, or kNoKey.
  uint32_t FindDirect(int64_t key) const {
    const uint64_t slot = Offset(key, dir_min_);
    return slot < dir_slots_ ? dir_[slot] - 1 : kNoKey;  // 0 - 1 = kNoKey
  }

  /// Key id of the probe key in a hashed index, or kNoKey. `hash` is the
  /// probe key's hash and `matches(r)` says whether row r holds the probe
  /// key.
  template <typename MatchFn>
  uint32_t FindHashed(uint64_t hash, MatchFn&& matches) const {
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const Slot s = slots_[pos];
      if (s.key == 0) return kNoKey;
      if (s.tag != tag) continue;
      const uint32_t k = s.key - 1;
      if (matches(unique_ ? k : rows_[run_begin_[k]])) return k;
    }
  }

  /// Whether every key of the last Build is held by one row. Then key id
  /// k is row k, and its run is just that row.
  bool unique_keys() const { return unique_; }

  /// Ids of the rows holding key id `key`, ascending.
  std::span<const uint32_t> Rows(uint32_t key) const {
    if (unique_) return {rows_.data() + key, 1};
    return {rows_.data() + run_begin_[key],
            run_begin_[key + 1] - run_begin_[key]};
  }

  /// Distinct keys in the last Build.
  size_t distinct_keys() const { return keys_; }

 private:
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint32_t tag = 0;  // high half of the key's hash
    uint32_t key = 0;  // key id + 1; 0 marks an empty slot
  };

  /// Empties the index, leaving the minimal hashed slot table.
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

  /// Lays rows [0, rows) out key by key, `first_row` listing each key's
  /// first row and `key_of(r)` being row r's key id: a counting sort,
  /// stable in row order. When every row holds a key of its own,
  /// `first_row` is 0, 1, 2, ... and already the layout, so no pass runs.
  template <typename KeyOf>
  void GroupRows(size_t rows, std::vector<uint32_t> first_row,
                 KeyOf key_of) {
    keys_ = first_row.size();
    unique_ = keys_ == rows;
    run_begin_.clear();
    if (unique_) {
      rows_ = std::move(first_row);
      return;
    }
    run_begin_.assign(keys_ + 1, 0);
    for (size_t r = 0; r < rows; ++r) ++run_begin_[key_of(r) + 1];
    for (size_t k = 0; k < keys_; ++k) run_begin_[k + 1] += run_begin_[k];
    std::vector<uint32_t>& next = first_row;  // each key's next position
    next.assign(run_begin_.begin(), run_begin_.end() - 1);
    rows_.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      rows_[next[key_of(r)]++] = static_cast<uint32_t>(r);
    }
  }

  /// Directory slot of `key` when the smallest key is `min`.
  static uint64_t Offset(int64_t key, int64_t min) {
    return static_cast<uint64_t>(key) - static_cast<uint64_t>(min);
  }

  /// Whether `keys` is dense enough for the directory; if so, sets `min`
  /// to its smallest key and `slots` to the slots its range spans.
  static bool DenseRange(std::span<const int64_t> keys, int64_t* min,
                         uint64_t* slots);

  /// Drops the last Build, then gives each key of `keys`, whose smallest
  /// key is `min` and whose range spans `slots` slots, its directory slot,
  /// as Insert does in the hashed slots. The slots stay set (a directory
  /// Build) until the next Reset.
  template <typename OnRow>
  void FillDirectory(std::span<const int64_t> keys, int64_t min,
                     uint64_t slots, std::vector<uint32_t>* first_rows,
                     OnRow on_row);

  std::vector<Slot> slots_ = std::vector<Slot>(kMinSlots);
  size_t mask_ = kMinSlots - 1;
  // Per key offset: key id + 1, 0 if absent. Only the first dir_slots_ are
  // live, and all others read 0, so a call reuses the storage as it is.
  std::vector<uint32_t> dir_;
  uint64_t dir_slots_ = 0;  // 0 when the last Build was hashed
  int64_t dir_min_ = 0;
  size_t keys_ = 0;
  bool unique_ = false;
  std::vector<uint32_t> run_begin_;  // per key, plus one end sentinel
  std::vector<uint32_t> rows_;       // row ids grouped by key
};

}  // namespace ecodb

#endif  // ECODB_UTIL_FLAT_KEY_INDEX_H_
