#include "mining/maximal_filter.h"

#include <algorithm>
#include <map>

namespace yver::mining {

bool IsSubsetOf(const std::vector<data::ItemId>& sub,
                const std::vector<data::ItemId>& super) {
  if (sub.size() > super.size()) return false;
  size_t i = 0;
  size_t j = 0;
  while (i < sub.size() && j < super.size()) {
    if (sub[i] == super[j]) {
      ++i;
      ++j;
    } else if (sub[i] > super[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == sub.size();
}

std::vector<FrequentItemset> FilterMaximal(
    std::vector<FrequentItemset> itemsets) {
  // Sort descending by size so potential supersets come first.
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items.size() > b.items.size();
            });
  std::vector<FrequentItemset> maximal;
  for (auto& candidate : itemsets) {
    bool subsumed = false;
    for (const auto& kept : maximal) {
      if (kept.items.size() > candidate.items.size() &&
          IsSubsetOf(candidate.items, kept.items)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) maximal.push_back(std::move(candidate));
  }
  return maximal;
}

std::vector<FrequentItemset> FilterClosed(
    std::vector<FrequentItemset> itemsets) {
  // Only itemsets of equal support can witness non-closedness.
  std::map<uint32_t, std::vector<size_t>> by_support;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    by_support[itemsets[i].support].push_back(i);
  }
  std::vector<size_t> kept;
  for (const auto& [support, group] : by_support) {
    for (size_t i : group) {
      bool subsumed = false;
      for (size_t j : group) {
        if (i == j) continue;
        if (itemsets[j].items.size() > itemsets[i].items.size() &&
            IsSubsetOf(itemsets[i].items, itemsets[j].items)) {
          subsumed = true;
          break;
        }
      }
      if (!subsumed) kept.push_back(i);
    }
  }
  std::vector<FrequentItemset> closed;
  closed.reserve(kept.size());
  for (size_t i : kept) closed.push_back(std::move(itemsets[i]));
  return closed;
}

}  // namespace yver::mining
