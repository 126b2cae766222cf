#ifndef YVER_TESTS_SUPPORT_REFERENCE_FP_TREE_H_
#define YVER_TESTS_SUPPORT_REFERENCE_FP_TREE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "data/item_dictionary.h"

namespace yver::mining {

/// Frequent-pattern tree (Han et al.), the core data structure of Borgelt's
/// FP-Growth which the paper uses to mine maximal frequent itemsets (§4.1,
/// Fig. 9).
///
/// Items inside the tree are *ranks*: dense indices assigned by descending
/// frequency of the frequent items of the underlying transaction set. The
/// owner (FP-Growth) keeps the rank -> ItemId mapping.
///
/// Nodes live in an arena (a deque, so growing it never moves a node and
/// the links stay valid) instead of one heap allocation each; FP-Growth
/// builds one conditional tree per explored branch, so node allocation
/// is the tree's dominant cost.
class FpTree {
 public:
  struct Node {
    uint32_t rank;           // item rank; kRootRank for the root
    uint32_t count = 0;      // transactions through this node
    Node* parent = nullptr;  // nullptr for root
    Node* next_sibling = nullptr;   // first-child/next-sibling chain
    Node* first_child = nullptr;
    Node* next_in_header = nullptr;  // header-table chain for this rank
  };

  static constexpr uint32_t kRootRank = UINT32_MAX;

  /// Creates an empty tree with `num_ranks` distinct item ranks.
  explicit FpTree(uint32_t num_ranks);

  FpTree(const FpTree&) = delete;
  FpTree& operator=(const FpTree&) = delete;
  // Moving a deque keeps its elements in place, so root_ and every link
  // stay valid in the moved-to tree.
  FpTree(FpTree&&) = default;
  FpTree& operator=(FpTree&&) = default;

  /// Inserts a transaction given as ranks sorted ascending (most frequent
  /// first), with multiplicity `count`.
  void Insert(const std::vector<uint32_t>& ranks, uint32_t count);

  /// Root node (never null).
  const Node* root() const { return root_; }

  /// Head of the header chain for a rank (may be null).
  const Node* Header(uint32_t rank) const { return headers_[rank]; }

  /// Total support of a rank across the tree.
  uint32_t RankSupport(uint32_t rank) const { return rank_support_[rank]; }

  uint32_t num_ranks() const {
    return static_cast<uint32_t>(headers_.size());
  }

  /// True when the tree consists of a single downward path.
  bool IsSinglePath() const;

  /// The ranks along the single path, top-down. Requires IsSinglePath().
  /// Also outputs the count at each node.
  std::vector<std::pair<uint32_t, uint32_t>> SinglePath() const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  Node* NewNode(uint32_t rank, Node* parent);

  std::deque<Node> nodes_;  // owns all nodes incl. root
  Node* root_ = nullptr;
  std::vector<Node*> headers_;
  std::vector<uint32_t> rank_support_;
};

}  // namespace yver::mining

#endif  // YVER_TESTS_SUPPORT_REFERENCE_FP_TREE_H_
