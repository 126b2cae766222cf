#ifndef YVER_TESTS_SUPPORT_REFERENCE_MFI_BLOCKS_H_
#define YVER_TESTS_SUPPORT_REFERENCE_MFI_BLOCKS_H_

#include "blocking/mfi_blocks.h"
#include "data/item_dictionary.h"

namespace yver::blocking {

/// MFIBlocks as it ran before mining::MineItemsets, preserved as the
/// oracle of RunMfiBlocks: per minsup iteration it copies the uncovered
/// bags, mines them with FPMax (or FPClose for ItemsetKind::kClosed),
/// recomputes every support set with GroupedSupports over a fresh
/// InvertedIndex, drops blocks outside [2, NgCap(ng, minsup)],
/// deduplicates record sets in mining order keeping the longer key, and
/// then scores, thresholds and emits exactly as RunMfiBlocks does.
/// Serial; timings are left zero.
///
/// Test-only: tests/blocking_equivalence_test.cc checks that RunMfiBlocks
/// returns the same pairs, bit for bit, and the same blocks as a
/// multiset. Never link this into production code.
MfiBlocksResult ReferenceRunMfiBlocks(const data::EncodedDataset& encoded,
                                      const MfiBlocksConfig& config);

}  // namespace yver::blocking

#endif  // YVER_TESTS_SUPPORT_REFERENCE_MFI_BLOCKS_H_
