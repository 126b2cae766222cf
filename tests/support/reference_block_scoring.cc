#include "support/reference_block_scoring.h"

#include <unordered_set>

#include "util/check.h"

namespace yver::blocking {

double ReferenceClusterJaccardScore(const data::EncodedDataset& encoded,
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
