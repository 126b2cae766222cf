#ifndef YVER_BLOCKING_MFI_BLOCKS_H_
#define YVER_BLOCKING_MFI_BLOCKS_H_

#include <cstdint>
#include <vector>

#include "blocking/block.h"
#include "blocking/item_similarity.h"
#include "data/item_dictionary.h"
#include "util/thread_pool.h"

namespace yver::blocking {

/// Which block-score function MFIBlocks uses.
enum class BlockScoreKind : uint8_t {
  kClusterJaccard = 0,  // set-monotone score of the MFIBlocks paper
  kExpertSim,           // Eq. 1-based soft similarity (ExpertSim condition)
};

/// Which itemset family supplies the blocking keys. The paper's MFIBlocks
/// uses maximal frequent itemsets; closed itemsets are the lossless
/// alternative (every distinct support set gets a key) at a steep mining
/// cost — the A6 ablation quantifies the trade.
enum class ItemsetKind : uint8_t { kMaximal = 0, kClosed };

/// Configuration of Algorithm 1.
struct MfiBlocksConfig {
  /// Starting (maximal) minsup; iterations run MaxMinSup, ..., 2.
  uint32_t max_minsup = 5;

  /// Neighborhood-growth parameter (the paper's NG / p). Caps block sizes
  /// at minsup * ng and caps per-record neighborhoods (sparse
  /// neighborhood).
  double ng = 3.0;

  /// Block score function.
  BlockScoreKind score_kind = BlockScoreKind::kClusterJaccard;

  /// Blocking-key itemset family (maximal, per the paper, by default).
  ItemsetKind itemset_kind = ItemsetKind::kMaximal;

  /// Expert attribute weighting for the score (Expert Weighting
  /// condition); uniform when false.
  bool expert_weighting = false;

  /// Fraction of most frequent distinct items pruned before mining
  /// (paper §6.3 prunes 0.03% = 0.0003).
  double prune_frequent_fraction = 0.0;

  /// Safety cap on MFIs mined per iteration (0 = unlimited).
  size_t max_mfis_per_iteration = 0;
};

/// Wall-clock breakdown of one RunMfiBlocks call, summed across minsup
/// iterations. Surfaced through core::StageTimings so `resolve --profile`
/// can show where the blocking stage spends its time.
struct BlockingTimings {
  /// FP-Growth itemset mining (MineMaximalItemsets / MineClosedItemsets).
  double mine_seconds = 0.0;
  /// Support recomputation (the local inverted index plus grouped-bitset
  /// intersections, GroupedSupports) + block build/dedup.
  double support_seconds = 0.0;
  /// Block scoring (ClusterJaccard / ExpertSim).
  double score_seconds = 0.0;
  /// Sparse-neighborhood minTh derivation + block filtering.
  double threshold_seconds = 0.0;
  /// Candidate-pair emission + coverage bookkeeping.
  double emit_seconds = 0.0;

  double TotalSeconds() const {
    return mine_seconds + support_seconds + score_seconds +
           threshold_seconds + emit_seconds;
  }
};

/// Outcome of a full MFIBlocks run.
struct MfiBlocksResult {
  /// All blocks that survived filtering, across iterations.
  std::vector<Block> blocks;

  /// Deduplicated candidate pairs; each keeps the best block score seen.
  std::vector<CandidatePair> pairs;

  /// Diagnostics.
  size_t num_mfis_mined = 0;
  size_t num_blocks_considered = 0;
  size_t num_records_covered = 0;

  /// Per-substage wall time of this run.
  BlockingTimings timings;
};

/// Runs the (simplified) MFIBlocks algorithm of the paper (Algorithm 1):
/// iteratively mines maximal frequent itemsets over still-uncovered
/// records with decreasing minsup, turns their supports into blocks,
/// filters by size (<= NgCap(ng, minsup)), scores, enforces the
/// sparse-neighborhood condition via a derived minimum score threshold,
/// and emits candidate pairs.
///
/// `pool` parallelizes the whole stage (it stands in for the paper's
/// Spark cluster): MFI mining runs per conditional-tree rank, support
/// recomputation per group of MFIs sharing their rarest item, block
/// scoring per block, and candidate-pair emission builds per-chunk local
/// pair maps that are merged in chunk order. Per-minsup iterations stay
/// serial, as Algorithm 1's coverage loop requires. Determinism contract:
/// the returned MfiBlocksResult is byte-identical for every pool size
/// including nullptr — every parallel substage writes into
/// index-addressed slots or merges in a scheduling-invariant order
/// (tests/determinism_test.cc enforces this).
MfiBlocksResult RunMfiBlocks(const data::EncodedDataset& encoded,
                             const MfiBlocksConfig& config,
                             util::ThreadPool* pool = nullptr);

}  // namespace yver::blocking

#endif  // YVER_BLOCKING_MFI_BLOCKS_H_
