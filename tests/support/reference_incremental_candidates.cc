#include "support/reference_incremental_candidates.h"

#include <algorithm>
#include <unordered_map>

namespace yver::core {

std::vector<std::pair<size_t, data::RecordIdx>> ReferenceIncrementalCandidates(
    const std::vector<std::vector<data::RecordIdx>>& postings,
    const data::ItemBag& bag, size_t min_shared_items, size_t max_candidates) {
  std::unordered_map<data::RecordIdx, size_t> shared_counts;
  for (data::ItemId item : bag) {
    for (data::RecordIdx other : postings[item]) {
      ++shared_counts[other];
    }
  }
  std::vector<std::pair<size_t, data::RecordIdx>> candidates;
  for (const auto& [other, count] : shared_counts) {
    if (count >= min_shared_items) {
      candidates.emplace_back(count, other);
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());
  if (candidates.size() > max_candidates) {
    candidates.resize(max_candidates);
  }
  return candidates;
}

void ReferenceCandidateResolver::SelectCandidates(
    const data::ItemBag& bag, std::vector<Candidate>* out) {
  out->clear();
  for (const auto& [count, other] : ReferenceIncrementalCandidates(
           postings(), bag, options().min_shared_items,
           options().max_candidates)) {
    out->emplace_back(static_cast<uint32_t>(count), other);
  }
}

}  // namespace yver::core
