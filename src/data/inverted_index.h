#ifndef YVER_DATA_INVERTED_INDEX_H_
#define YVER_DATA_INVERTED_INDEX_H_

#include <vector>

#include "data/item_dictionary.h"

namespace yver::data {

/// Item -> sorted record postings, built from an encoded dataset. This is
/// the index created by the preprocessing step of the system architecture
/// (paper Fig. 9); MFIBlocks reads its postings to find the support sets
/// of mined itemsets (blocking::GroupedSupports).
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

#endif  // YVER_DATA_INVERTED_INDEX_H_
