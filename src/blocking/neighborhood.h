#ifndef YVER_BLOCKING_NEIGHBORHOOD_H_
#define YVER_BLOCKING_NEIGHBORHOOD_H_

#include <cstddef>
#include <vector>

#include "blocking/block.h"
#include "util/thread_pool.h"

namespace yver::blocking {

/// The NG cap shared by the MFIBlocks block-size filter and the
/// sparse-neighborhood condition: ceil(ng * minsup) per the paper, clamped
/// to >= 2 because a block needs at least two records to emit a pair.
/// Both call sites MUST use this helper — they once drifted apart
/// (truncation in the size filter vs ceil in the neighborhood cap), so for
/// fractional ng * minsup a block could pass one cap and fail the other.
size_t NgCap(double ng, uint32_t minsup);

/// Sparse-neighborhood (SN) enforcement — Algorithm 1 lines 9-14.
///
/// The NG (neighborhood growth) parameter caps how many candidate
/// neighbors a single record may accumulate across the (possibly
/// overlapping) blocks of one iteration: a record's neighborhood may not
/// exceed ceil(NG * minsup). ComputeMinThreshold scans each record's
/// blocks in descending score order and, where the accumulated distinct
/// neighbor count would exceed the cap, raises the global minTh to the
/// score of the offending block so that the subsequent filter
/// (score > minTh) restores sparsity.
///
/// Returns the minimal threshold; blocks with score <= threshold violate
/// the SN condition for at least one record.
///
/// With a pool the per-record scans run over fixed record ranges claimed
/// by the workers, each with its own neighbor-stamp array and running
/// maximum (DESIGN.md §9). A record's result depends only on its own
/// blocks, and the maximum of the per-record results does not depend on
/// their order, so the threshold is bit-identical for every pool size,
/// including none.
double ComputeMinThreshold(const std::vector<Block>& blocks,
                           size_t num_records, double ng, uint32_t minsup,
                           util::ThreadPool* pool = nullptr);

/// Neighborhood size helper: number of distinct records co-blocked with
/// each record across `blocks` (only counting blocks with score >
/// threshold). Exposed for tests and diagnostics.
std::vector<size_t> NeighborhoodSizes(const std::vector<Block>& blocks,
                                      size_t num_records, double threshold);

}  // namespace yver::blocking

#endif  // YVER_BLOCKING_NEIGHBORHOOD_H_
