#include "blocking/block_scoring.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "util/check.h"

namespace yver::blocking {

namespace {

using AttributeCounts = std::array<uint32_t, data::kNumAttributes>;

// Σ_a w_a · n_a in AttributeId order.
double WeightedCount(const AttributeCounts& counts,
                     const AttributeWeights& weights) {
  double sum = 0.0;
  for (size_t a = 0; a < counts.size(); ++a) {
    sum += weights[a] * static_cast<double>(counts[a]);
  }
  return sum;
}

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
                           const Block& block, const AttributeWeights& weights,
                           std::span<uint32_t> stamp, uint32_t mark) {
  YVER_CHECK(!block.records.empty());
  YVER_CHECK(mark != 0);
  const auto& dict = encoded.dictionary;
  YVER_CHECK(stamp.size() >= dict.size());
  // Key items are distinct (an itemset), so each counts once.
  AttributeCounts key_counts{};
  for (data::ItemId id : block.key) {
    ++key_counts[static_cast<size_t>(dict.attribute(id))];
  }
  AttributeCounts union_counts{};
  for (data::RecordIdx r : block.records) {
    for (data::ItemId id : encoded.bags[r]) {
      if (stamp[id] == mark) continue;
      stamp[id] = mark;
      ++union_counts[static_cast<size_t>(dict.attribute(id))];
    }
  }
  const double union_weight = WeightedCount(union_counts, weights);
  if (union_weight <= 0.0) return 0.0;
  return WeightedCount(key_counts, weights) / union_weight;
}

double ClusterJaccardScore(const data::EncodedDataset& encoded,
                           const Block& block,
                           const AttributeWeights& weights) {
  std::vector<uint32_t> stamp(encoded.dictionary.size(), 0);
  return ClusterJaccardScore(encoded, block, weights, stamp, 1);
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
