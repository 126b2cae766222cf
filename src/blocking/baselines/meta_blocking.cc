#include "blocking/baselines/meta_blocking.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/check.h"

namespace yver::blocking::baselines {

namespace {

uint64_t PairKey(data::RecordIdx a, data::RecordIdx b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<data::RecordPair> CleanComparisons(
    const std::vector<BaselineBlock>& blocks, size_t num_records,
    const MetaBlockingOptions& options) {
  // Blocks-per-record (for ECBS / Jaccard) and pairwise co-occurrence.
  std::vector<uint32_t> blocks_of(num_records, 0);
  for (const auto& block : blocks) {
    for (data::RecordIdx r : block) {
      YVER_CHECK(r < num_records);
      ++blocks_of[r];
    }
  }
  std::unordered_map<uint64_t, uint32_t> common;
  for (const auto& block : blocks) {
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = i + 1; j < block.size(); ++j) {
        if (block[i] != block[j]) ++common[PairKey(block[i], block[j])];
      }
    }
  }
  const double num_blocks = static_cast<double>(blocks.size());
  auto weight_of = [&](uint64_t key, uint32_t cbs) {
    data::RecordIdx a = static_cast<data::RecordIdx>(key >> 32);
    data::RecordIdx b = static_cast<data::RecordIdx>(key & 0xffffffffu);
    switch (options.weights) {
      case WeightScheme::kCommonBlocks:
        return static_cast<double>(cbs);
      case WeightScheme::kEcbs:
        return static_cast<double>(cbs) *
               std::log(num_blocks / static_cast<double>(blocks_of[a])) *
               std::log(num_blocks / static_cast<double>(blocks_of[b]));
      case WeightScheme::kJaccard:
        return static_cast<double>(cbs) /
               static_cast<double>(blocks_of[a] + blocks_of[b] - cbs);
    }
    return 0.0;
  };

  // Edges in pair-key order: the weight sum below and the top-k ties are
  // taken in this order, never in the hash table's.
  std::vector<std::pair<uint64_t, uint32_t>> edges(common.begin(),
                                                   common.end());
  std::sort(edges.begin(), edges.end());

  std::vector<data::RecordPair> kept;
  if (options.pruning == PruningScheme::kWeightedEdge) {
    // WEP: global mean weight threshold.
    double sum = 0.0;
    for (const auto& [key, cbs] : edges) sum += weight_of(key, cbs);
    double mean = edges.empty() ? 0.0 : sum / static_cast<double>(
                                                  edges.size());
    for (const auto& [key, cbs] : edges) {
      if (weight_of(key, cbs) > mean) {
        kept.emplace_back(static_cast<data::RecordIdx>(key >> 32),
                          static_cast<data::RecordIdx>(key & 0xffffffffu));
      }
    }
  } else {
    // CNP: keep each record's top-k edges; an edge survives when either
    // endpoint retains it.
    struct Edge {
      double weight;
      uint64_t key;
    };
    std::vector<std::vector<Edge>> per_record(num_records);
    for (const auto& [key, cbs] : edges) {
      double w = weight_of(key, cbs);
      per_record[key >> 32].push_back(Edge{w, key});
      per_record[key & 0xffffffffu].push_back(Edge{w, key});
    }
    std::unordered_map<uint64_t, bool> retained;
    for (auto& record_edges : per_record) {
      size_t k = std::min(options.node_top_k, record_edges.size());
      std::partial_sort(record_edges.begin(),
                        record_edges.begin() + static_cast<long>(k),
                        record_edges.end(), [](const Edge& x, const Edge& y) {
                          if (x.weight != y.weight) return x.weight > y.weight;
                          return x.key < y.key;
                        });
      for (size_t i = 0; i < k; ++i) retained[record_edges[i].key] = true;
    }
    kept.reserve(retained.size());
    for (const auto& [key, keep] : retained) {
      kept.emplace_back(static_cast<data::RecordIdx>(key >> 32),
                        static_cast<data::RecordIdx>(key & 0xffffffffu));
    }
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace yver::blocking::baselines
