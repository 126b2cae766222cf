#ifndef YVER_TESTS_SUPPORT_REFERENCE_MFI_MERGE_H_
#define YVER_TESTS_SUPPORT_REFERENCE_MFI_MERGE_H_

#include <vector>

#include "mining/itemset.h"

namespace yver::mining {

/// The original serial cross-rank merge of MineMaximalItemsets, preserved
/// as the executable specification of mining::FilterRankOrderedMaximal: a
/// store inserts every candidate of the rank-ordered concatenation in
/// order, refusing each one that is a subset (or duplicate) of a set it
/// already holds, and then harvests, in insertion order, the stored sets
/// that no other stored set strictly contains.
///
/// Test-only: tests/mining_equivalence_test.cc checks that the parallel
/// filter returns the same vector, contents and order. Never link this
/// into production code.
std::vector<FrequentItemset> ReferenceMergeRankOrdered(
    std::vector<std::vector<FrequentItemset>> tasks);

}  // namespace yver::mining

#endif  // YVER_TESTS_SUPPORT_REFERENCE_MFI_MERGE_H_
