#ifndef YVER_TESTS_SUPPORT_REFERENCE_BLOCK_SCORING_H_
#define YVER_TESTS_SUPPORT_REFERENCE_BLOCK_SCORING_H_

#include "blocking/block.h"
#include "blocking/item_similarity.h"
#include "data/item_dictionary.h"

namespace yver::blocking {

/// The ClusterJaccard score as it ran before the arena-backed union set:
/// w(key) / w(union) with the union built in a heap-allocating
/// std::unordered_set and summed in its iteration order. Preserved as the
/// executable specification of blocking::ClusterJaccardScore.
///
/// Test-only: tests/block_scoring_equivalence_test.cc checks that the
/// production scorer returns the same bits, and the reference MFIBlocks
/// run (reference_mfi_blocks.h) scores with it. Never link this into
/// production code.
double ReferenceClusterJaccardScore(const data::EncodedDataset& encoded,
                                    const Block& block,
                                    const AttributeWeights& weights);

}  // namespace yver::blocking

#endif  // YVER_TESTS_SUPPORT_REFERENCE_BLOCK_SCORING_H_
