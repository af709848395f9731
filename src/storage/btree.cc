#include "storage/btree.h"

#include <algorithm>
#include <cassert>

namespace ecodb::storage {

struct BTreeIndex::Node {
  bool leaf = true;
  Node* parent = nullptr;
  std::vector<int64_t> keys;
  std::vector<Node*> children;   // internal nodes: keys.size() + 1 entries
  std::vector<uint64_t> values;  // leaves: parallel to keys
  Node* next = nullptr;          // leaf chain
};

BTreeIndex::BTreeIndex(int fanout) : fanout_(fanout) {
  assert(fanout_ >= 4);
  root_ = new Node();
  node_count_ = 1;
}

BTreeIndex::~BTreeIndex() {
  // Iterative post-order delete.
  std::vector<Node*> stack = {root_};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    for (Node* c : n->children) stack.push_back(c);
    delete n;
  }
}

int BTreeIndex::height() const {
  int h = 1;
  const Node* n = root_;
  while (!n->leaf) {
    n = n->children[0];
    ++h;
  }
  return h;
}

BTreeIndex::Node* BTreeIndex::FindLeaf(int64_t key) const {
  // Lower-bound descent: duplicates equal to a separator are reachable by
  // walking the leaf chain rightward from here.
  Node* n = root_;
  while (!n->leaf) {
    const size_t idx = static_cast<size_t>(
        std::lower_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    n = n->children[idx];
  }
  return n;
}

void BTreeIndex::Insert(int64_t key, uint64_t row_id) {
  // Upper-bound descent so new duplicates append after existing ones.
  Node* n = root_;
  while (!n->leaf) {
    const size_t idx = static_cast<size_t>(
        std::upper_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    n = n->children[idx];
  }
  const size_t pos = static_cast<size_t>(
      std::upper_bound(n->keys.begin(), n->keys.end(), key) -
      n->keys.begin());
  n->keys.insert(n->keys.begin() + static_cast<long>(pos), key);
  n->values.insert(n->values.begin() + static_cast<long>(pos), row_id);
  ++size_;

  if (static_cast<int>(n->keys.size()) <= fanout_) return;

  // Leaf split: right sibling takes the upper half.
  Node* right = new Node();
  ++node_count_;
  right->leaf = true;
  const size_t mid = n->keys.size() / 2;
  right->keys.assign(n->keys.begin() + static_cast<long>(mid), n->keys.end());
  right->values.assign(n->values.begin() + static_cast<long>(mid),
                       n->values.end());
  n->keys.resize(mid);
  n->values.resize(mid);
  right->next = n->next;
  n->next = right;
  InsertIntoParent(n, right->keys.front(), right);
}

void BTreeIndex::InsertIntoParent(Node* node, int64_t separator,
                                  Node* sibling) {
  if (node == root_) {
    Node* new_root = new Node();
    ++node_count_;
    new_root->leaf = false;
    new_root->keys = {separator};
    new_root->children = {node, sibling};
    node->parent = new_root;
    sibling->parent = new_root;
    root_ = new_root;
    return;
  }
  Node* parent = node->parent;
  const size_t pos = static_cast<size_t>(
      std::upper_bound(parent->keys.begin(), parent->keys.end(), separator) -
      parent->keys.begin());
  parent->keys.insert(parent->keys.begin() + static_cast<long>(pos),
                      separator);
  parent->children.insert(
      parent->children.begin() + static_cast<long>(pos) + 1, sibling);
  sibling->parent = parent;

  if (static_cast<int>(parent->keys.size()) <= fanout_) return;

  // Internal split: the middle separator moves up.
  Node* right = new Node();
  ++node_count_;
  right->leaf = false;
  const size_t mid = parent->keys.size() / 2;
  const int64_t promote = parent->keys[mid];
  right->keys.assign(parent->keys.begin() + static_cast<long>(mid) + 1,
                     parent->keys.end());
  right->children.assign(
      parent->children.begin() + static_cast<long>(mid) + 1,
      parent->children.end());
  for (Node* c : right->children) c->parent = right;
  parent->keys.resize(mid);
  parent->children.resize(mid + 1);
  InsertIntoParent(parent, promote, right);
}

std::vector<uint64_t> BTreeIndex::RangeScan(int64_t lo, int64_t hi) const {
  std::vector<uint64_t> out;
  if (lo > hi) return out;
  const Node* leaf = FindLeaf(lo);
  while (leaf != nullptr) {
    const size_t begin = static_cast<size_t>(
        std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo) -
        leaf->keys.begin());
    for (size_t i = begin; i < leaf->keys.size(); ++i) {
      if (leaf->keys[i] > hi) return out;
      out.push_back(leaf->values[i]);
    }
    leaf = leaf->next;
  }
  return out;
}

size_t BTreeIndex::PagesForRange(int64_t lo, int64_t hi) const {
  if (lo > hi) return PagesForLookup();
  size_t pages = PagesForLookup();  // root-to-first-leaf path
  const Node* leaf = FindLeaf(lo);
  // Count additional leaves the chain walk touches.
  while (leaf != nullptr) {
    const bool continues = !leaf->keys.empty() && leaf->keys.back() <= hi &&
                           leaf->next != nullptr;
    if (!continues) break;
    ++pages;
    leaf = leaf->next;
  }
  return pages;
}

Status BTreeIndex::ValidateNode(const Node* node, int depth, int leaf_depth,
                                int64_t lo_bound, bool has_lo,
                                int64_t hi_bound, bool has_hi) const {
  if (!std::is_sorted(node->keys.begin(), node->keys.end())) {
    return Status::Internal("node keys out of order");
  }
  for (int64_t k : node->keys) {
    if (has_lo && k < lo_bound) return Status::Internal("key below bound");
    if (has_hi && k > hi_bound) return Status::Internal("key above bound");
  }
  if (node->leaf) {
    if (depth != leaf_depth) {
      return Status::Internal("leaves at non-uniform depth");
    }
    if (node->keys.size() != node->values.size()) {
      return Status::Internal("leaf key/value arity mismatch");
    }
    return Status::OK();
  }
  if (node->children.size() != node->keys.size() + 1) {
    return Status::Internal("internal node child arity mismatch");
  }
  if (static_cast<int>(node->keys.size()) > fanout_) {
    return Status::Internal("node overflows fanout");
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    if (node->children[i]->parent != node) {
      return Status::Internal("broken parent pointer");
    }
    const bool child_has_lo = i > 0 || has_lo;
    const int64_t child_lo = i > 0 ? node->keys[i - 1] : lo_bound;
    const bool child_has_hi = i < node->keys.size() || has_hi;
    const int64_t child_hi =
        i < node->keys.size() ? node->keys[i] : hi_bound;
    ECODB_RETURN_IF_ERROR(ValidateNode(node->children[i], depth + 1,
                                       leaf_depth, child_lo, child_has_lo,
                                       child_hi, child_has_hi));
  }
  return Status::OK();
}

Status BTreeIndex::Validate() const {
  ECODB_RETURN_IF_ERROR(
      ValidateNode(root_, 1, height(), 0, false, 0, false));
  // The leaf chain visits every entry in non-decreasing key order.
  const Node* n = root_;
  while (!n->leaf) n = n->children[0];
  size_t counted = 0;
  int64_t prev = INT64_MIN;
  while (n != nullptr) {
    for (int64_t k : n->keys) {
      if (k < prev) return Status::Internal("leaf chain out of order");
      prev = k;
      ++counted;
    }
    n = n->next;
  }
  if (counted != size_) {
    return Status::Internal("leaf chain size mismatch");
  }
  return Status::OK();
}

}  // namespace ecodb::storage
