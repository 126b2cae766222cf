#include "blocking/mfi_blocks.h"

#include <algorithm>
#include <unordered_map>

#include "blocking/block_scoring.h"
#include "blocking/neighborhood.h"
#include "util/check.h"
#include "util/timer.h"

namespace yver::blocking {

namespace {

using PairMap =
    std::unordered_map<data::RecordPair, CandidatePair, data::RecordPairHash>;

// Folds one (pair, score, minsup) observation into a pair map with the
// serial emission rule: first block wins, a strictly better score
// overwrites. The rule is "max score, earliest block on ties", which is
// associative over an ordered partition of the block list — that is what
// makes the chunked emission below merge-order-invariant.
void FoldPair(PairMap& map, const data::RecordPair& rp, double score,
              uint32_t minsup) {
  auto it = map.find(rp);
  if (it == map.end()) {
    map.emplace(rp, CandidatePair{rp, score, minsup});
  } else if (score > it->second.block_score) {
    it->second.block_score = score;
    it->second.minsup_level = minsup;
  }
}

}  // namespace

MfiBlocksResult RunMfiBlocks(const data::EncodedDataset& encoded,
                             const MfiBlocksConfig& config,
                             util::ThreadPool* pool) {
  YVER_CHECK(config.max_minsup >= 2);
  YVER_CHECK(config.ng > 0.0);
  MfiBlocksResult result;
  const size_t n = encoded.bags.size();

  const AttributeWeights weights = config.expert_weighting
                                       ? DefaultExpertWeights()
                                       : UniformWeights();

  // Optional frequent-item pruning applies to the mining input only; the
  // scores still see full bags.
  std::vector<data::ItemBag> pruned_bags;
  if (config.prune_frequent_fraction > 0.0) {
    pruned_bags = encoded.PruneMostFrequent(config.prune_frequent_fraction);
  }
  const std::vector<data::ItemBag>& mining_bags =
      config.prune_frequent_fraction > 0.0 ? pruned_bags : encoded.bags;

  std::vector<bool> covered(n, false);
  PairMap pair_map;
  util::Timer timer;

  for (uint32_t minsup = config.max_minsup; minsup >= 2; --minsup) {
    // Mine the uncovered records (D \ P) only.
    std::vector<data::RecordIdx> uncovered;
    for (size_t r = 0; r < n; ++r) {
      if (!covered[r]) uncovered.push_back(static_cast<data::RecordIdx>(r));
    }
    if (uncovered.size() < minsup) continue;

    // FindSupport comes with the itemsets: the miner returns each one's
    // support set, materialised only up to the block-size cap
    // NgCap(ng, minsup), the cap the sparse-neighborhood condition uses.
    // Supports are >= minsup >= 2, so every returned set is a block.
    const size_t max_block_size = NgCap(config.ng, minsup);
    mining::MinerOptions miner_options;
    miner_options.minsup = minsup;
    miner_options.kind = config.itemset_kind;
    miner_options.max_support = static_cast<uint32_t>(
        std::min<size_t>(max_block_size, UINT32_MAX));
    timer.Reset();
    mining::MinedItemsets mined =
        mining::MineItemsets(mining_bags, uncovered, miner_options, pool);
    result.num_mfis_mined += mined.num_mined;
    result.timings.mine_seconds += timer.ElapsedSeconds();

    // Two distinct maximal (or closed) itemsets never share a support
    // set — their union would be frequent on it — so every block has its
    // own record set and needs no deduplication. Each slot is freed as
    // soon as its itemsets have moved into blocks.
    timer.Reset();
    size_t num_blocks = 0;
    for (const auto& slot : mined.by_root) num_blocks += slot.size();
    std::vector<Block> blocks;
    blocks.reserve(num_blocks);
    for (auto& slot : mined.by_root) {
      for (mining::SupportedItemset& set : slot) {
        Block& block = blocks.emplace_back();
        block.key = std::move(set.items);
        block.records = std::move(set.tids);
        block.minsup_level = minsup;
      }
      std::vector<mining::SupportedItemset>().swap(slot);
    }
    result.num_blocks_considered += blocks.size();
    result.timings.support_seconds += timer.ElapsedSeconds();

    // Score blocks (parallelized; this is the paper's Spark stage). Each
    // score lands in its own slot, so scheduling never reorders anything.
    timer.Reset();
    auto score_one = [&](size_t i) {
      Block& b = blocks[i];
      b.score = config.score_kind == BlockScoreKind::kClusterJaccard
                    ? ClusterJaccardScore(encoded, b, weights)
                    : ExpertSimScore(encoded, b, weights);
    };
    if (pool != nullptr) {
      pool->ParallelFor(blocks.size(), score_one);
    } else {
      for (size_t i = 0; i < blocks.size(); ++i) score_one(i);
    }
    result.timings.score_seconds += timer.ElapsedSeconds();

    // Sparse-neighborhood condition: derive minTh and filter. Blocks come
    // in the miner's (root, depth-first) order; minTh does not depend on
    // the order of equal-score blocks (a tie group overflows a record's
    // cap iff their union does), and neither does the pair fold below
    // (ties within an iteration share their minsup).
    timer.Reset();
    double min_th = ComputeMinThreshold(blocks, n, config.ng, minsup);
    std::vector<Block> kept;
    kept.reserve(blocks.size());
    for (auto& b : blocks) {
      if (b.score > min_th) kept.push_back(std::move(b));
    }
    result.timings.threshold_seconds += timer.ElapsedSeconds();

    // Emit candidate pairs: per-chunk local pair maps built in parallel,
    // merged into the cross-iteration map serially in chunk order. The
    // fold rule is associative over the ordered block partition (see
    // FoldPair), so the merged map matches the serial single-map result
    // for every chunking — i.e. every thread count.
    timer.Reset();
    size_t num_chunks = pool != nullptr ? pool->NumChunks(kept.size())
                                        : (kept.empty() ? 0 : 1);
    std::vector<PairMap> chunk_maps(num_chunks);
    auto emit_chunk = [&](size_t chunk, size_t begin, size_t end) {
      PairMap& local = chunk_maps[chunk];
      for (size_t k = begin; k < end; ++k) {
        const Block& b = kept[k];
        for (size_t i = 0; i < b.records.size(); ++i) {
          for (size_t j = i + 1; j < b.records.size(); ++j) {
            FoldPair(local, data::RecordPair(b.records[i], b.records[j]),
                     b.score, minsup);
          }
        }
      }
    };
    if (pool != nullptr) {
      pool->ParallelForChunkedIndexed(kept.size(), emit_chunk);
    } else if (!kept.empty()) {
      emit_chunk(0, 0, kept.size());
    }
    for (const PairMap& local : chunk_maps) {
      for (const auto& [rp, cp] : local) {
        FoldPair(pair_map, rp, cp.block_score, cp.minsup_level);
      }
    }
    // Coverage: every record of a kept block (all have >= 2 records)
    // participates in at least one emitted pair.
    for (const Block& b : kept) {
      for (data::RecordIdx r : b.records) covered[r] = true;
    }
    for (auto& b : kept) result.blocks.push_back(std::move(b));
    result.timings.emit_seconds += timer.ElapsedSeconds();

    bool all_covered = true;
    for (size_t r = 0; r < n; ++r) {
      if (!covered[r]) {
        all_covered = false;
        break;
      }
    }
    if (all_covered) break;
  }

  timer.Reset();
  result.pairs.reserve(pair_map.size());
  for (auto& [rp, cp] : pair_map) result.pairs.push_back(cp);
  std::sort(result.pairs.begin(), result.pairs.end(),
            [](const CandidatePair& a, const CandidatePair& b) {
              if (a.block_score != b.block_score) {
                return a.block_score > b.block_score;
              }
              return a.pair < b.pair;
            });
  for (bool c : covered) result.num_records_covered += c ? 1 : 0;
  result.timings.emit_seconds += timer.ElapsedSeconds();
  return result;
}

}  // namespace yver::blocking
