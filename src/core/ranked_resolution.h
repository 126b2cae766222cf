#ifndef YVER_CORE_RANKED_RESOLUTION_H_
#define YVER_CORE_RANKED_RESOLUTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace yver::core {

/// One ranked match: a record pair with a confidence score. Confidence is
/// the ADTree prediction score when classification is enabled, otherwise
/// the block score.
struct RankedMatch {
  data::RecordPair pair;
  double confidence = 0.0;
  double block_score = 0.0;

  friend bool operator==(const RankedMatch&, const RankedMatch&) = default;
};

/// The RankedResolution ordering contract as a comparator: confidence
/// descending, ties broken by ascending (pair.a, pair.b). A strict total
/// order over matches with distinct pairs and non-NaN confidences. A
/// function object, not a function, so the sorts that take it inline it.
inline constexpr auto RankedBefore = [](const RankedMatch& a,
                                        const RankedMatch& b) {
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.pair < b.pair;
};

/// Record-keyed CSR adjacency over a confidence-sorted match list: for each
/// record, the indices (into that list) of the matches it participates in.
/// Because the underlying list is sorted best-first and each per-record
/// neighbor list is stored in ascending match-index order, every neighbor
/// list is itself confidence-descending — per-record queries walk their own
/// neighbors and stop at the certainty threshold instead of scanning all
/// matches.
class MatchAdjacency {
 public:
  MatchAdjacency() = default;

  /// Builds from `sorted_matches` (must already follow the
  /// RankedResolution ordering contract). `num_records` sizes the offset
  /// table; 0 means "infer as 1 + max record index seen".
  explicit MatchAdjacency(const std::vector<RankedMatch>& sorted_matches,
                          size_t num_records = 0);

  /// Match indices involving record r, confidence-descending. Empty span
  /// for records beyond the offset table (they have no matches).
  std::span<const uint32_t> Neighbors(data::RecordIdx r) const {
    if (static_cast<size_t>(r) + 1 >= offsets_.size()) return {};
    return std::span<const uint32_t>(neighbors_).subspan(
        offsets_[r], offsets_[r + 1] - offsets_[r]);
  }

  /// Number of records covered by the offset table.
  size_t num_records() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

 private:
  std::vector<uint32_t> offsets_;    // size num_records + 1
  std::vector<uint32_t> neighbors_;  // match indices, 2 entries per match
};

/// The output of uncertain entity resolution: "a ranked list of results,
/// associating a similarity value for each match, rather than a binary
/// match / non-match decision" (§3.2). Entities are disambiguated only at
/// query time, by certainty threshold.
///
/// Ordering contract: matches() is stable-sorted by confidence descending,
/// ties broken by ascending (pair.a, pair.b). The order is therefore a
/// deterministic function of the match *set* alone — independent of input
/// order, platform, or sort implementation — so serve::ResolutionIndex
/// construction and TopK are reproducible across runs and machines.
/// Mutating matches through any non-const path is unsupported; build a new
/// RankedResolution instead.
class RankedResolution {
 public:
  RankedResolution() = default;

  /// Takes ownership of matches and establishes the ordering contract
  /// above; also builds the per-record adjacency index.
  explicit RankedResolution(std::vector<RankedMatch> matches);

  /// All matches, best first (see ordering contract).
  const std::vector<RankedMatch>& matches() const { return matches_; }

  /// Per-record adjacency over matches(), shared with the serving layer.
  const MatchAdjacency& adjacency() const { return adjacency_; }

  size_t size() const { return matches_.size(); }
  bool empty() const { return matches_.empty(); }

  /// Matches with confidence > certainty — the Web-query-style tunable
  /// response (§4.2). Binary-searches the sorted list; never scans.
  std::vector<RankedMatch> AboveThreshold(double certainty) const;

  /// Number of matches with confidence > certainty (no copy).
  size_t CountAboveThreshold(double certainty) const;

  /// The k best matches.
  std::vector<RankedMatch> TopK(size_t k) const;

  /// Matches involving a specific record, best first, above certainty.
  /// Delegates to the adjacency index: cost is proportional to the
  /// record's own match count, not the total match count.
  std::vector<RankedMatch> ForRecord(data::RecordIdx r,
                                     double certainty) const;

 private:
  std::vector<RankedMatch> matches_;
  MatchAdjacency adjacency_;
};

}  // namespace yver::core

#endif  // YVER_CORE_RANKED_RESOLUTION_H_
