#include "core/ranked_resolution.h"

#include <algorithm>

#include "util/check.h"

namespace yver::core {

MatchAdjacency::MatchAdjacency(const std::vector<RankedMatch>& sorted_matches,
                               size_t num_records) {
  if (num_records == 0) {
    for (const auto& m : sorted_matches) {
      num_records = std::max<size_t>(num_records, m.pair.b + 1);
    }
  }
  if (num_records == 0) return;
  offsets_.assign(num_records + 1, 0);
  for (const auto& m : sorted_matches) {
    YVER_CHECK(m.pair.a < num_records && m.pair.b < num_records);
    ++offsets_[m.pair.a + 1];
    ++offsets_[m.pair.b + 1];
  }
  for (size_t r = 1; r <= num_records; ++r) offsets_[r] += offsets_[r - 1];
  neighbors_.resize(sorted_matches.size() * 2);
  // Filling in arena order keeps each per-record list ascending by match
  // index, i.e. confidence-descending — the invariant Neighbors() promises.
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (uint32_t i = 0; i < sorted_matches.size(); ++i) {
    const auto& m = sorted_matches[i];
    neighbors_[cursor[m.pair.a]++] = i;
    neighbors_[cursor[m.pair.b]++] = i;
  }
}

RankedResolution::RankedResolution(std::vector<RankedMatch> matches)
    : matches_(std::move(matches)) {
  // Stable sort plus a total tie-break on pair ids: the ordering contract
  // documented in the header. stable_sort keeps the result well-defined
  // even if a future RankedMatch field makes the comparator a partial
  // order over equal-confidence, equal-pair entries.
  std::stable_sort(matches_.begin(), matches_.end(), RankedBefore);
  adjacency_ = MatchAdjacency(matches_);
}

size_t RankedResolution::CountAboveThreshold(double certainty) const {
  // Sorted descending, so the qualifying prefix ends at the first match
  // with confidence <= certainty.
  auto it = std::partition_point(
      matches_.begin(), matches_.end(),
      [certainty](const RankedMatch& m) { return m.confidence > certainty; });
  return static_cast<size_t>(it - matches_.begin());
}

std::vector<RankedMatch> RankedResolution::AboveThreshold(
    double certainty) const {
  size_t n = CountAboveThreshold(certainty);
  return std::vector<RankedMatch>(matches_.begin(), matches_.begin() + n);
}

std::vector<RankedMatch> RankedResolution::TopK(size_t k) const {
  k = std::min(k, matches_.size());
  if (k == 0) return {};
  std::vector<RankedMatch> out;
  out.reserve(k);
  out.assign(matches_.begin(), matches_.begin() + k);
  return out;
}

std::vector<RankedMatch> RankedResolution::ForRecord(data::RecordIdx r,
                                                     double certainty) const {
  std::vector<RankedMatch> out;
  auto neighbors = adjacency_.Neighbors(r);
  if (neighbors.empty()) return out;
  out.reserve(std::min<size_t>(neighbors.size(), 8));
  for (uint32_t idx : neighbors) {
    const RankedMatch& m = matches_[idx];
    if (!(m.confidence > certainty)) break;  // confidence-descending
    out.push_back(m);
  }
  return out;
}

}  // namespace yver::core
