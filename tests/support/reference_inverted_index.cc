#include "support/reference_inverted_index.h"

#include <algorithm>

#include "util/check.h"

namespace yver::data {

InvertedIndex::InvertedIndex(const std::vector<ItemBag>& bags,
                             size_t num_items)
    : postings_(num_items) {
  for (size_t r = 0; r < bags.size(); ++r) {
    for (ItemId item : bags[r]) {
      YVER_CHECK(item < num_items);
      postings_[item].push_back(static_cast<RecordIdx>(r));
    }
  }
  // Bags are iterated in record order, so postings are already sorted.
}

std::vector<RecordIdx> InvertedIndex::Support(
    const std::vector<ItemId>& itemset) const {
  if (itemset.empty()) return {};
  // Intersect starting from the rarest item to keep the working set small.
  std::vector<ItemId> order = itemset;
  std::sort(order.begin(), order.end(), [this](ItemId a, ItemId b) {
    return postings_[a].size() < postings_[b].size();
  });
  std::vector<RecordIdx> result = postings_[order[0]];
  std::vector<RecordIdx> next;
  for (size_t k = 1; k < order.size() && !result.empty(); ++k) {
    const auto& plist = postings_[order[k]];
    next.clear();
    next.reserve(std::min(result.size(), plist.size()));
    std::set_intersection(result.begin(), result.end(), plist.begin(),
                          plist.end(), std::back_inserter(next));
    result.swap(next);
  }
  return result;
}

}  // namespace yver::data
