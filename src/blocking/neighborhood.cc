#include "blocking/neighborhood.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"
#include "util/thread_pool.h"

namespace yver::blocking {

size_t NgCap(double ng, uint32_t minsup) {
  YVER_CHECK(ng > 0.0);
  return std::max<size_t>(
      2, static_cast<size_t>(std::ceil(ng * static_cast<double>(minsup))));
}

namespace {

// Record ranges per worker in the parallel scan: enough that a
// hub-heavy range does not hold back the tail, few enough that claiming
// one is noise next to scanning it.
constexpr size_t kTasksPerWorker = 16;

// Block chunks of the parallel CSR fill. Each chunk keeps one counter
// per record, so the cap bounds that memory on wide pools; the fill is
// bound by memory traffic well before eight workers.
constexpr size_t kMaxFillChunks = 8;

// The scan of one record: its blocks in descending score order until
// its neighborhood would outgrow `cap`. Returns the score of the block
// that would overflow it, or 0.0 if none does. Sorts the record's own
// CSR range in place (reading `scores`, the block scores copied into one
// contiguous array) and marks its neighbors in `stamp` with r + 1, so
// records can be scanned in any order and on any thread as long as each
// thread has its own stamp array.
double RecordThreshold(const std::vector<Block>& blocks,
                       const double* scores, size_t r,
                       uint32_t* bs_begin, uint32_t* bs_end, size_t cap,
                       uint32_t* stamp) {
  if (bs_end - bs_begin <= 1) return 0.0;
  // Score descending, ties broken by ascending block index: equal-score
  // blocks must be visited in a specified order or the derived min_th
  // would hinge on std::sort's unspecified equal-element placement.
  std::sort(bs_begin, bs_end, [scores](uint32_t a, uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  const uint32_t mark = static_cast<uint32_t>(r) + 1;
  size_t num_neighbors = 0;
  for (const uint32_t* it = bs_begin; it != bs_end; ++it) {
    const Block& block = blocks[*it];
    size_t added = 0;
    for (data::RecordIdx other : block.records) {
      if (other != r && stamp[other] != mark) ++added;
    }
    if (num_neighbors + added > cap) {
      // This block (and all lower-scoring ones for r) must go.
      return block.score;
    }
    for (data::RecordIdx other : block.records) {
      if (other != r && stamp[other] != mark) {
        stamp[other] = mark;
        ++num_neighbors;
      }
    }
  }
  return 0.0;
}

}  // namespace

double ComputeMinThreshold(const std::vector<Block>& blocks,
                           size_t num_records, double ng, uint32_t minsup,
                           util::ThreadPool* pool) {
  size_t cap = NgCap(ng, minsup);
  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && num_records > 1;
  // Per-record block indices, ascending, as one flat array. The blocks
  // are cut into contiguous chunks, one per worker up to kMaxFillChunks:
  // each chunk counts its own members per record, a serial pass over the
  // records turns the counts into every chunk's first slot in each
  // record's range, and each chunk fills its own slots. A record's range
  // thus holds chunk 0's blocks, then chunk 1's, and so on, each run
  // ascending: the array is the serial one for every pool size.
  const size_t num_chunks =
      parallel ? std::min(pool->num_threads(), kMaxFillChunks) : 1;
  const size_t per_chunk = (blocks.size() + num_chunks - 1) / num_chunks;
  auto for_chunks = [&](const auto& fn) {
    if (num_chunks == 1) {
      fn(size_t{0}, size_t{0}, blocks.size());
      return;
    }
    pool->ParallelForDynamic(num_chunks, [&](size_t c) {
      const size_t begin = std::min(blocks.size(), c * per_chunk);
      fn(c, begin, std::min(blocks.size(), begin + per_chunk));
    });
  };
  // slots[c * num_records + r]: chunk c's member count of record r, then
  // chunk c's next free slot in r's range.
  std::vector<uint32_t> slots(num_chunks * num_records, 0);
  for_chunks([&](size_t c, size_t begin, size_t end) {
    uint32_t* count = slots.data() + c * num_records;
    for (size_t b = begin; b < end; ++b) {
      for (data::RecordIdx r : blocks[b].records) {
        YVER_CHECK(r < num_records);
        ++count[r];
      }
    }
  });
  std::vector<uint32_t> offsets(num_records + 1);
  uint32_t next = 0;
  for (size_t r = 0; r < num_records; ++r) {
    offsets[r] = next;
    for (size_t c = 0; c < num_chunks; ++c) {
      uint32_t& slot = slots[c * num_records + r];
      const uint32_t count = slot;
      slot = next;
      next += count;
    }
  }
  offsets[num_records] = next;
  std::vector<uint32_t> record_blocks(next);
  std::vector<double> scores(blocks.size());  // read by every record's sort
  for_chunks([&](size_t c, size_t begin, size_t end) {
    uint32_t* slot = slots.data() + c * num_records;
    for (size_t b = begin; b < end; ++b) {
      scores[b] = blocks[b].score;
      for (data::RecordIdx r : blocks[b].records) {
        record_blocks[slot[r]++] = static_cast<uint32_t>(b);
      }
    }
  });
  // Record r's neighbor set is {x : stamp[x] == r + 1}; moving on to the
  // next record empties it without touching it. std::max keeps 0.0 when
  // a score is NaN or negative, so the maximum does not depend on the
  // order records are scanned in.
  auto scan = [&](size_t begin, size_t end, uint32_t* stamp, double* max) {
    uint32_t* bs = record_blocks.data();
    for (size_t r = begin; r < end; ++r) {
      *max = std::max(*max, RecordThreshold(blocks, scores.data(), r,
                                            bs + offsets[r],
                                            bs + offsets[r + 1], cap, stamp));
    }
  };
  if (!parallel) {
    std::vector<uint32_t> stamp(num_records, 0);
    double min_th = 0.0;
    scan(0, num_records, stamp.data(), &min_th);
    return min_th;
  }
  // Fixed ranges of `per_task` records, claimed by the workers. Each
  // worker keeps its own stamp array and running maximum; a record only
  // ever sorts its own CSR range, so tasks share nothing writable.
  const size_t num_tasks =
      std::min(num_records, pool->num_threads() * kTasksPerWorker);
  const size_t per_task = (num_records + num_tasks - 1) / num_tasks;
  std::vector<std::vector<uint32_t>> stamps(pool->num_threads());
  std::vector<double> maxima(pool->num_threads(), 0.0);
  pool->ParallelForDynamicWorkers(num_tasks, [&](size_t worker, size_t task) {
    const size_t begin = std::min(num_records, task * per_task);
    const size_t end = std::min(num_records, begin + per_task);
    std::vector<uint32_t>& stamp = stamps[worker];
    if (stamp.empty()) stamp.assign(num_records, 0);
    scan(begin, end, stamp.data(), &maxima[worker]);
  });
  double min_th = 0.0;
  for (double m : maxima) min_th = std::max(min_th, m);
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
