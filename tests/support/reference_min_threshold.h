#ifndef YVER_TESTS_SUPPORT_REFERENCE_MIN_THRESHOLD_H_
#define YVER_TESTS_SUPPORT_REFERENCE_MIN_THRESHOLD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blocking/block.h"

namespace yver::blocking {

/// The original sparse-neighborhood threshold derivation, preserved as
/// the executable specification of blocking::ComputeMinThreshold: a
/// vector of block indices per record and an unordered_set of neighbors
/// rebuilt for every record.
///
/// Test-only: tests/blocking_equivalence_test.cc checks that the
/// production stamp-array version returns the same threshold, bit for
/// bit, and the reference MFIBlocks run (reference_mfi_blocks.h)
/// thresholds with it. Never link this into production code.
double ReferenceComputeMinThreshold(const std::vector<Block>& blocks,
                                    size_t num_records, double ng,
                                    uint32_t minsup);

}  // namespace yver::blocking

#endif  // YVER_TESTS_SUPPORT_REFERENCE_MIN_THRESHOLD_H_
