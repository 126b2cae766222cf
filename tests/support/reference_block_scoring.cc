#include "support/reference_block_scoring.h"

#include <array>
#include <set>
#include <unordered_set>

#include "util/check.h"

namespace yver::blocking {

namespace {

// Σ_a w_a · n_a over `items`, in AttributeId order.
template <typename Items>
double AttributeOrderWeight(const data::ItemDictionary& dict,
                            const Items& items,
                            const AttributeWeights& weights) {
  std::array<size_t, data::kNumAttributes> counts{};
  for (data::ItemId id : items) {
    ++counts[static_cast<size_t>(dict.attribute(id))];
  }
  double sum = 0.0;
  for (size_t a = 0; a < counts.size(); ++a) {
    sum += weights[a] * static_cast<double>(counts[a]);
  }
  return sum;
}

}  // namespace

double ReferenceClusterJaccardScore(const data::EncodedDataset& encoded,
                                    const Block& block,
                                    const AttributeWeights& weights) {
  YVER_CHECK(!block.records.empty());
  const auto& dict = encoded.dictionary;
  const std::set<data::ItemId> key(block.key.begin(), block.key.end());
  std::set<data::ItemId> uni;
  for (data::RecordIdx r : block.records) {
    uni.insert(encoded.bags[r].begin(), encoded.bags[r].end());
  }
  const double union_weight = AttributeOrderWeight(dict, uni, weights);
  if (union_weight <= 0.0) return 0.0;
  return AttributeOrderWeight(dict, key, weights) / union_weight;
}

double UnorderedSetClusterJaccardScore(const data::EncodedDataset& encoded,
                                       const Block& block,
                                       const AttributeWeights& weights) {
  YVER_CHECK(!block.records.empty());
  const auto& dict = encoded.dictionary;
  auto item_weight = [&](data::ItemId id) {
    return weights[static_cast<size_t>(dict.attribute(id))];
  };
  double key_weight = 0.0;
  for (data::ItemId id : block.key) key_weight += item_weight(id);
  std::unordered_set<data::ItemId> uni;
  for (data::RecordIdx r : block.records) {
    for (data::ItemId id : encoded.bags[r]) uni.insert(id);
  }
  double union_weight = 0.0;
  for (data::ItemId id : uni) union_weight += item_weight(id);
  if (union_weight <= 0.0) return 0.0;
  return key_weight / union_weight;
}

}  // namespace yver::blocking
