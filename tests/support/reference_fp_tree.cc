#include "support/reference_fp_tree.h"

#include "util/check.h"

namespace yver::mining {

FpTree::FpTree(uint32_t num_ranks)
    : headers_(num_ranks, nullptr), rank_support_(num_ranks, 0) {
  root_ = NewNode(kRootRank, nullptr);
}

FpTree::Node* FpTree::NewNode(uint32_t rank, Node* parent) {
  Node& n = nodes_.emplace_back();
  n.rank = rank;
  n.parent = parent;
  return &n;
}

void FpTree::Insert(const std::vector<uint32_t>& ranks, uint32_t count) {
  Node* cur = root_;
  for (uint32_t rank : ranks) {
    YVER_CHECK(rank < headers_.size());
    rank_support_[rank] += count;
    // Find a child with this rank. A found child moves to the front of
    // its sibling list: item frequencies are skewed, so the children a
    // path walk needs cluster near the front. Sibling order carries no
    // meaning — the tree's paths, counts and single-path shape do not
    // depend on it.
    Node* prev = nullptr;
    Node* child = cur->first_child;
    while (child != nullptr && child->rank != rank) {
      prev = child;
      child = child->next_sibling;
    }
    if (child == nullptr) {
      child = NewNode(rank, cur);
      child->next_sibling = cur->first_child;
      cur->first_child = child;
      child->next_in_header = headers_[rank];
      headers_[rank] = child;
    } else if (prev != nullptr) {
      prev->next_sibling = child->next_sibling;
      child->next_sibling = cur->first_child;
      cur->first_child = child;
    }
    child->count += count;
    cur = child;
  }
}

bool FpTree::IsSinglePath() const {
  const Node* cur = root_;
  while (cur != nullptr) {
    if (cur->first_child != nullptr && cur->first_child->next_sibling) {
      return false;
    }
    cur = cur->first_child;
  }
  return true;
}

std::vector<std::pair<uint32_t, uint32_t>> FpTree::SinglePath() const {
  YVER_CHECK(IsSinglePath());
  std::vector<std::pair<uint32_t, uint32_t>> path;
  const Node* cur = root_->first_child;
  while (cur != nullptr) {
    path.emplace_back(cur->rank, cur->count);
    cur = cur->first_child;
  }
  return path;
}

}  // namespace yver::mining
