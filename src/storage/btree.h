// B+tree secondary index over int64 keys.
//
// A genuine B+tree — sorted internal separators, linked leaves, node
// splits — mapping key -> row ids (duplicates allowed). Query processing
// uses it as the alternative access path to a full scan: a lookup touches
// `height()` index pages plus the qualifying leaves, so the optimizer's
// old latency-based access-path rules gain an energy twin (Section 5.1 of
// the paper: re-evaluating access paths under the energy lens).
//
// The index is insert-only (tables are append-only); Validate() checks the
// ordering, uniform-depth, and leaf-chain invariants and is exercised by
// randomized property tests.

#ifndef ECODB_STORAGE_BTREE_H_
#define ECODB_STORAGE_BTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/status.h"

namespace ecodb::storage {

class BTreeIndex {
 public:
  /// `fanout` bounds entries per node (>= 4). A node splits when it would
  /// exceed the bound.
  explicit BTreeIndex(int fanout = 64);
  ~BTreeIndex();

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  void Insert(int64_t key, uint64_t row_id);

  /// Row ids with lo <= key <= hi, in key order (an equal key's row ids in
  /// insertion order). Empty when lo > hi.
  std::vector<uint64_t> RangeScan(int64_t lo, int64_t hi) const;

  size_t size() const { return size_; }
  int height() const;
  size_t node_count() const { return node_count_; }
  int fanout() const { return fanout_; }

  /// Index pages a point lookup touches (root-to-leaf path).
  size_t PagesForLookup() const { return static_cast<size_t>(height()); }

  /// Index pages a range scan touches: path + qualifying leaf chain.
  size_t PagesForRange(int64_t lo, int64_t hi) const;

  /// Verifies structural invariants; Internal error describing the first
  /// violation otherwise.
  Status Validate() const;

 private:
  struct Node;

  Node* FindLeaf(int64_t key) const;
  void InsertIntoParent(Node* node, int64_t separator, Node* sibling);
  Status ValidateNode(const Node* node, int depth, int leaf_depth,
                      int64_t lo_bound, bool has_lo, int64_t hi_bound,
                      bool has_hi) const;

  int fanout_;
  Node* root_;
  size_t size_ = 0;
  size_t node_count_ = 0;
};

}  // namespace ecodb::storage

#endif  // ECODB_STORAGE_BTREE_H_
