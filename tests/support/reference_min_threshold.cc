#include "support/reference_min_threshold.h"

#include <algorithm>
#include <unordered_set>

#include "blocking/neighborhood.h"
#include "util/check.h"

namespace yver::blocking {

double ReferenceComputeMinThreshold(const std::vector<Block>& blocks,
                                    size_t num_records, double ng,
                                    uint32_t minsup) {
  size_t cap = NgCap(ng, minsup);
  // Per-record list of block indices.
  std::vector<std::vector<uint32_t>> record_blocks(num_records);
  for (uint32_t b = 0; b < blocks.size(); ++b) {
    for (data::RecordIdx r : blocks[b].records) {
      YVER_CHECK(r < num_records);
      record_blocks[r].push_back(b);
    }
  }
  double min_th = 0.0;
  std::unordered_set<data::RecordIdx> neighbors;
  for (size_t r = 0; r < num_records; ++r) {
    auto& bs = record_blocks[r];
    if (bs.size() <= 1) continue;
    // Score descending, ties broken by ascending block index.
    std::sort(bs.begin(), bs.end(), [&blocks](uint32_t a, uint32_t b) {
      if (blocks[a].score != blocks[b].score) {
        return blocks[a].score > blocks[b].score;
      }
      return a < b;
    });
    neighbors.clear();
    for (uint32_t bi : bs) {
      size_t added = 0;
      for (data::RecordIdx other : blocks[bi].records) {
        if (other == r) continue;
        if (!neighbors.count(other)) ++added;
      }
      if (neighbors.size() + added > cap) {
        // This block (and all lower-scoring ones for r) must go.
        min_th = std::max(min_th, blocks[bi].score);
        break;
      }
      for (data::RecordIdx other : blocks[bi].records) {
        if (other != r) neighbors.insert(other);
      }
    }
  }
  return min_th;
}

}  // namespace yver::blocking
