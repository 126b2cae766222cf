#ifndef YVER_TESTS_SUPPORT_REFERENCE_BLOCK_SCORING_H_
#define YVER_TESTS_SUPPORT_REFERENCE_BLOCK_SCORING_H_

#include "blocking/block.h"
#include "blocking/item_similarity.h"
#include "data/item_dictionary.h"

namespace yver::blocking {

/// The executable specification of blocking::ClusterJaccardScore:
/// w(key) / w(union), where the union of the members' bags is a
/// std::set, and each weight is Σ_a w_a · n_a with n_a the number of
/// distinct items of attribute a, summed in AttributeId order starting
/// from 0.0.
///
/// Test-only: tests/block_scoring_equivalence_test.cc checks that the
/// production scorer returns the same bits, and the reference MFIBlocks
/// run (reference_mfi_blocks.h) scores with it. Never link this into
/// production code.
double ReferenceClusterJaccardScore(const data::EncodedDataset& encoded,
                                    const Block& block,
                                    const AttributeWeights& weights);

/// The score as it was computed before the per-attribute counts: the key
/// weight summed item by item in key order, the union weight item by item
/// in the iteration order of a std::unordered_set, so its last bits
/// depend on the hash table. Kept to bound the change (relative error)
/// and to show that the order-independence test catches a hash-ordered
/// sum. Never link this into production code.
double UnorderedSetClusterJaccardScore(const data::EncodedDataset& encoded,
                                       const Block& block,
                                       const AttributeWeights& weights);

}  // namespace yver::blocking

#endif  // YVER_TESTS_SUPPORT_REFERENCE_BLOCK_SCORING_H_
