#ifndef YVER_TESTS_SUPPORT_REFERENCE_INVERTED_INDEX_H_
#define YVER_TESTS_SUPPORT_REFERENCE_INVERTED_INDEX_H_

#include <vector>

#include "data/item_dictionary.h"

namespace yver::data {

/// Item -> sorted record postings, built from an encoded dataset: the
/// index of the preprocessing step of the system architecture (paper
/// Fig. 9). Test-only: blocking::GroupedSupports reads its postings, and
/// Support() is the one-itemset-at-a-time specification of both
/// GroupedSupports and the support sets mining::MineItemsets returns.
class InvertedIndex {
 public:
  /// Builds the index over the given bags; `num_items` is the dictionary
  /// size.
  InvertedIndex(const std::vector<ItemBag>& bags, size_t num_items);

  /// Sorted record indices containing the item.
  const std::vector<RecordIdx>& Postings(ItemId item) const {
    return postings_[item];
  }

  /// Records containing every item of `itemset` (sorted ascending). The
  /// intersection is evaluated smallest-posting-first. One itemset at a
  /// time; the reference blocking::GroupedSupports is tested against.
  std::vector<RecordIdx> Support(const std::vector<ItemId>& itemset) const;

  size_t num_items() const { return postings_.size(); }

 private:
  std::vector<std::vector<RecordIdx>> postings_;
};

}  // namespace yver::data

#endif  // YVER_TESTS_SUPPORT_REFERENCE_INVERTED_INDEX_H_
