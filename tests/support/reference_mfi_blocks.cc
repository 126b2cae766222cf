#include "support/reference_mfi_blocks.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "blocking/block_scoring.h"
#include "blocking/neighborhood.h"
#include "support/reference_fp_growth.h"
#include "support/reference_grouped_supports.h"
#include "support/reference_inverted_index.h"
#include "util/check.h"

namespace yver::blocking {

namespace {

struct RecordsHash {
  size_t operator()(const std::vector<data::RecordIdx>& records) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (data::RecordIdx r : records) {
      h ^= r;
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

MfiBlocksResult ReferenceRunMfiBlocks(const data::EncodedDataset& encoded,
                                      const MfiBlocksConfig& config) {
  YVER_CHECK(config.max_minsup >= 2);
  MfiBlocksResult result;
  const size_t n = encoded.bags.size();
  const AttributeWeights weights = config.expert_weighting
                                       ? DefaultExpertWeights()
                                       : UniformWeights();
  const std::vector<data::ItemBag> mining_bags =
      config.prune_frequent_fraction > 0.0
          ? encoded.PruneMostFrequent(config.prune_frequent_fraction)
          : encoded.bags;

  std::vector<bool> covered(n, false);
  std::unordered_map<data::RecordPair, CandidatePair, data::RecordPairHash>
      pair_map;
  for (uint32_t minsup = config.max_minsup; minsup >= 2; --minsup) {
    std::vector<data::RecordIdx> local_to_global;
    std::vector<data::ItemBag> local_bags;
    for (size_t r = 0; r < n; ++r) {
      if (covered[r]) continue;
      local_to_global.push_back(static_cast<data::RecordIdx>(r));
      local_bags.push_back(mining_bags[r]);
    }
    if (local_to_global.size() < minsup) continue;

    mining::FpMinerOptions miner_options;
    miner_options.minsup = minsup;
    std::vector<mining::FrequentItemset> itemsets =
        config.itemset_kind == ItemsetKind::kMaximal
            ? mining::MineMaximalItemsets(local_bags, miner_options)
            : mining::MineClosedItemsets(local_bags, miner_options);
    result.num_mfis_mined += itemsets.size();
    data::InvertedIndex index(local_bags, encoded.dictionary.size());
    std::vector<std::vector<data::RecordIdx>> supports =
        GroupedSupports(index, local_bags, itemsets);

    const size_t max_block_size = NgCap(config.ng, minsup);
    std::vector<Block> blocks;
    std::unordered_map<std::vector<data::RecordIdx>, size_t, RecordsHash>
        block_of;
    for (size_t i = 0; i < itemsets.size(); ++i) {
      std::vector<data::RecordIdx>& support = supports[i];
      if (support.size() < 2 || support.size() > max_block_size) continue;
      for (auto& r : support) r = local_to_global[r];
      auto [it, inserted] = block_of.emplace(support, blocks.size());
      if (!inserted) {
        Block& existing = blocks[it->second];
        if (itemsets[i].items.size() > existing.key.size()) {
          existing.key = std::move(itemsets[i].items);
        }
        continue;
      }
      blocks.push_back(
          Block{std::move(itemsets[i].items), std::move(support), 0.0, minsup});
    }
    result.num_blocks_considered += blocks.size();

    for (Block& b : blocks) {
      b.score = config.score_kind == BlockScoreKind::kClusterJaccard
                    ? ClusterJaccardScore(encoded, b, weights)
                    : ExpertSimScore(encoded, b, weights);
    }
    const double min_th = ComputeMinThreshold(blocks, n, config.ng, minsup);
    for (Block& b : blocks) {
      if (b.score <= min_th) continue;
      for (size_t i = 0; i < b.records.size(); ++i) {
        for (size_t j = i + 1; j < b.records.size(); ++j) {
          data::RecordPair rp(b.records[i], b.records[j]);
          auto it = pair_map.find(rp);
          if (it == pair_map.end()) {
            pair_map.emplace(rp, CandidatePair{rp, b.score, minsup});
          } else if (b.score > it->second.block_score) {
            it->second.block_score = b.score;
            it->second.minsup_level = minsup;
          }
        }
      }
      for (data::RecordIdx r : b.records) covered[r] = true;
      result.blocks.push_back(std::move(b));
    }
    if (std::all_of(covered.begin(), covered.end(), [](bool c) { return c; })) {
      break;
    }
  }

  for (auto& [rp, cp] : pair_map) result.pairs.push_back(cp);
  std::sort(result.pairs.begin(), result.pairs.end(),
            [](const CandidatePair& a, const CandidatePair& b) {
              if (a.block_score != b.block_score) {
                return a.block_score > b.block_score;
              }
              return a.pair < b.pair;
            });
  for (bool c : covered) result.num_records_covered += c ? 1 : 0;
  return result;
}

}  // namespace yver::blocking
