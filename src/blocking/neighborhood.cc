#include "blocking/neighborhood.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"

namespace yver::blocking {

size_t NgCap(double ng, uint32_t minsup) {
  YVER_CHECK(ng > 0.0);
  return std::max<size_t>(
      2, static_cast<size_t>(std::ceil(ng * static_cast<double>(minsup))));
}

double ComputeMinThreshold(const std::vector<Block>& blocks,
                           size_t num_records, double ng, uint32_t minsup) {
  size_t cap = NgCap(ng, minsup);
  // Per-record block indices, ascending, as one flat array.
  std::vector<uint32_t> offsets(num_records + 1, 0);
  for (const Block& block : blocks) {
    for (data::RecordIdx r : block.records) {
      YVER_CHECK(r < num_records);
      ++offsets[r + 1];
    }
  }
  for (size_t r = 0; r < num_records; ++r) offsets[r + 1] += offsets[r];
  std::vector<uint32_t> record_blocks(offsets.back());
  {
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (uint32_t b = 0; b < blocks.size(); ++b) {
      for (data::RecordIdx r : blocks[b].records) record_blocks[fill[r]++] = b;
    }
  }
  double min_th = 0.0;
  // Record r's neighbor set is {x : stamp[x] == r + 1}; moving on to the
  // next record empties it without touching it.
  std::vector<uint32_t> stamp(num_records, 0);
  for (size_t r = 0; r < num_records; ++r) {
    auto bs_begin = record_blocks.begin() + offsets[r];
    auto bs_end = record_blocks.begin() + offsets[r + 1];
    if (bs_end - bs_begin <= 1) continue;
    // Score descending, ties broken by ascending block index: equal-score
    // blocks must be visited in a specified order or the derived min_th
    // would hinge on std::sort's unspecified equal-element placement.
    std::sort(bs_begin, bs_end, [&blocks](uint32_t a, uint32_t b) {
      if (blocks[a].score != blocks[b].score) {
        return blocks[a].score > blocks[b].score;
      }
      return a < b;
    });
    const uint32_t mark = static_cast<uint32_t>(r) + 1;
    size_t num_neighbors = 0;
    for (auto it = bs_begin; it != bs_end; ++it) {
      const Block& block = blocks[*it];
      size_t added = 0;
      for (data::RecordIdx other : block.records) {
        if (other != r && stamp[other] != mark) ++added;
      }
      if (num_neighbors + added > cap) {
        // This block (and all lower-scoring ones for r) must go.
        min_th = std::max(min_th, block.score);
        break;
      }
      for (data::RecordIdx other : block.records) {
        if (other != r && stamp[other] != mark) {
          stamp[other] = mark;
          ++num_neighbors;
        }
      }
    }
  }
  return min_th;
}

std::vector<size_t> NeighborhoodSizes(const std::vector<Block>& blocks,
                                      size_t num_records, double threshold) {
  std::vector<std::unordered_set<data::RecordIdx>> neighbor_sets(num_records);
  for (const Block& block : blocks) {
    if (block.score <= threshold) continue;
    for (data::RecordIdx r : block.records) {
      for (data::RecordIdx other : block.records) {
        if (other != r) neighbor_sets[r].insert(other);
      }
    }
  }
  std::vector<size_t> sizes(num_records);
  for (size_t r = 0; r < num_records; ++r) sizes[r] = neighbor_sets[r].size();
  return sizes;
}

}  // namespace yver::blocking
