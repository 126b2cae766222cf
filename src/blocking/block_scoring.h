#ifndef YVER_BLOCKING_BLOCK_SCORING_H_
#define YVER_BLOCKING_BLOCK_SCORING_H_

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
/// The union weight is summed in the iteration order of a
/// std::unordered_set of the members' items, so the score's last bits
/// depend on that order; the set draws its memory from a call-local
/// arena (64 KB on the stack, then the heap), which changes its cost but
/// not its order (DESIGN.md §9). tests/support/reference_block_scoring.h
/// keeps the plain std::unordered_set version as the oracle.
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
