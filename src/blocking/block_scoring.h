#ifndef YVER_BLOCKING_BLOCK_SCORING_H_
#define YVER_BLOCKING_BLOCK_SCORING_H_

#include <cstdint>
#include <span>

#include "blocking/block.h"
#include "blocking/item_similarity.h"
#include "data/item_dictionary.h"

namespace yver::blocking {

/// ClusterJaccard block score (Kenig & Gal's set-monotone score): the
/// weighted size of the block key divided by the weighted size of the
/// union of the member records' item bags —
///   score(B) = w(key) / w(∪_{r ∈ B} items(r)).
/// A block whose members share most of their content scores near 1
/// (compact set); members with much non-shared content dilute the score.
/// With uniform weights this is exactly |key| / |union|.
///
/// Both weights are Σ_a w_a · n_a, summed over attributes a in AttributeId
/// order, where n_a counts the distinct items of attribute a in the key
/// or in the union. The counts are integers, so the score depends only
/// on the two item sets: not on the order of the records or of their
/// items, nor on the ids the dictionary gave the items (DESIGN.md §9).
/// tests/support/reference_block_scoring.h spells the same sums out over
/// a std::set as the executable specification.
///
/// `stamp` is the caller's scratch, one entry per dictionary item: the
/// call marks the union's items with `mark`, so every block scored on
/// the same array needs its own nonzero mark and the array must start
/// out holding none of them (RunMfiBlocks gives each pool worker its own
/// zeroed array and marks block i with i + 1).
double ClusterJaccardScore(const data::EncodedDataset& encoded,
                           const Block& block, const AttributeWeights& weights,
                           std::span<uint32_t> stamp, uint32_t mark);

/// The same score on a stamp array of its own, for one-off calls.
double ClusterJaccardScore(const data::EncodedDataset& encoded,
                           const Block& block,
                           const AttributeWeights& weights);

/// Expert-similarity block score (the ExpertSim condition, §6.5): the mean
/// over member record pairs of a greedy soft-Jaccard between their bags,
/// where item affinity is fsim of Eq. 1. NOT set-monotone — the paper
/// found that losing monotonicity hurts quality (Table 9), which the
/// ablation bench reproduces.
double ExpertSimScore(const data::EncodedDataset& encoded, const Block& block,
                      const AttributeWeights& weights);

}  // namespace yver::blocking

#endif  // YVER_BLOCKING_BLOCK_SCORING_H_
