#include "blocking/block_scoring.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory_resource>
#include <unordered_set>
#include <vector>

#include "util/check.h"

namespace yver::blocking {

namespace {

// Stack space for ClusterJaccardScore's union set: room for a few
// thousand items before the arena spills to the heap.
constexpr size_t kUnionArenaBytes = 64 * 1024;

double ItemWeight(const data::ItemDictionary& dict,
                  const AttributeWeights& weights, data::ItemId id) {
  return weights[static_cast<size_t>(dict.attribute(id))];
}

// Greedy soft-Jaccard between two bags under fsim: every item of each bag
// is matched to its best counterpart in the other bag; the normalized sum
// plays the role of |A ∩ B| / |A ∪ B| with partial credit.
double SoftBagSimilarity(const data::EncodedDataset& encoded,
                         const data::ItemBag& a, const data::ItemBag& b,
                         const AttributeWeights& weights) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const auto& dict = encoded.dictionary;
  double total_weight = 0.0;
  double matched = 0.0;
  for (data::ItemId ia : a) {
    double best = 0.0;
    for (data::ItemId ib : b) {
      best = std::max(best, ExpertItemSimilarity(dict, ia, ib));
    }
    double w = ItemWeight(dict, weights, ia);
    matched += best * w;
    total_weight += w;
  }
  for (data::ItemId ib : b) {
    double best = 0.0;
    for (data::ItemId ia : a) {
      best = std::max(best, ExpertItemSimilarity(dict, ia, ib));
    }
    double w = ItemWeight(dict, weights, ib);
    matched += best * w;
    total_weight += w;
  }
  if (total_weight <= 0.0) return 0.0;
  return matched / total_weight;
}

}  // namespace

double ClusterJaccardScore(const data::EncodedDataset& encoded,
                           const Block& block,
                           const AttributeWeights& weights) {
  YVER_CHECK(!block.records.empty());
  const auto& dict = encoded.dictionary;
  double key_weight = 0.0;
  for (data::ItemId id : block.key) key_weight += ItemWeight(dict, weights, id);
  // The union sum is taken in the set's iteration order, so the container,
  // its hash and its rehash policy are those of std::unordered_set; only
  // the nodes and bucket arrays come from a bump arena on the stack that
  // spills to the heap and is released in one go when the call returns.
  std::array<std::byte, kUnionArenaBytes> arena;
  std::pmr::monotonic_buffer_resource resource(arena.data(), arena.size());
  std::pmr::unordered_set<data::ItemId> uni(&resource);
  for (data::RecordIdx r : block.records) {
    for (data::ItemId id : encoded.bags[r]) uni.insert(id);
  }
  double union_weight = 0.0;
  for (data::ItemId id : uni) union_weight += ItemWeight(dict, weights, id);
  if (union_weight <= 0.0) return 0.0;
  return key_weight / union_weight;
}

double ExpertSimScore(const data::EncodedDataset& encoded, const Block& block,
                      const AttributeWeights& weights) {
  YVER_CHECK(!block.records.empty());
  if (block.records.size() < 2) return 0.0;
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < block.records.size(); ++i) {
    for (size_t j = i + 1; j < block.records.size(); ++j) {
      sum += SoftBagSimilarity(encoded, encoded.bags[block.records[i]],
                               encoded.bags[block.records[j]], weights);
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

}  // namespace yver::blocking
