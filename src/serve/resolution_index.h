#ifndef YVER_SERVE_RESOLUTION_INDEX_H_
#define YVER_SERVE_RESOLUTION_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/entity_clusters.h"
#include "core/ranked_resolution.h"
#include "data/dataset.h"
#include "util/retry.h"
#include "util/status.h"

namespace yver::serve {

/// An immutable, servable snapshot of a pipeline run: the confidence-sorted
/// match arena (RankedResolution ordering contract) plus a record-keyed
/// CSR adjacency into it. Built once from a RankedResolution — or loaded
/// from the binary artifact `Save` writes — and then queried concurrently
/// without locks: every accessor is const and the structure never mutates
/// after construction.
///
/// This is what makes §4.2's query-time uncertain resolution servable at
/// scale: `yver_cli resolve` output becomes an on-disk artifact that a
/// ResolutionService maps back in and answers from, instead of re-running
/// the pipeline or re-scanning a CSV per query.
class ResolutionIndex {
 public:
  ResolutionIndex() = default;

  /// Snapshots `resolution` over a corpus of `num_records` records. All
  /// match record indices must be < num_records — this ctor CHECK-fails
  /// otherwise and is for trusted, in-process pipeline output. Untrusted
  /// input (anything read off disk) goes through Build instead.
  ResolutionIndex(const core::RankedResolution& resolution,
                  size_t num_records);

  /// Validating factory for untrusted resolutions (e.g. matches loaded
  /// from a CSV): DATA_LOSS, naming the offending row, for exactly what
  /// Load rejects in an artifact — a self-pair, a match referencing a
  /// record beyond the corpus, or a NaN confidence — instead of aborting
  /// the process or serving a match twice.
  static util::StatusOr<ResolutionIndex> Build(
      const core::RankedResolution& resolution, size_t num_records);

  /// The next generation of `base`: its matches plus `added`, over a
  /// corpus grown to `num_records` (>= base.num_records()). Only `added`
  /// is sorted (under the RankedResolution ordering contract); it is then
  /// merged into base's already-sorted arena, with base's matches first
  /// among equals, and the adjacency is built once. That is exactly the
  /// arena `stable_sort(base matches ++ added)` gives, so the result
  /// equals — Checksum() and all — ResolutionIndex(RankedResolution(all
  /// matches), num_records), at O(M + k log k) instead of O(M log M).
  /// With `added` empty the result shares base's arena and adjacency and
  /// only its corpus grows: O(1), and exact, because records past the
  /// adjacency's offset table have no neighbors either way.
  /// Trusted like the constructor: CHECK-fails when an added match
  /// references a record beyond num_records.
  static ResolutionIndex Extend(const ResolutionIndex& base,
                                std::span<const core::RankedMatch> added,
                                size_t num_records);

  /// Records in the indexed corpus.
  size_t num_records() const { return num_records_; }
  /// Total matches in the arena.
  size_t num_matches() const { return arena_->matches.size(); }
  bool empty() const { return arena_->matches.empty(); }

  /// The match arena, best first (RankedResolution ordering contract).
  const std::vector<core::RankedMatch>& matches() const {
    return arena_->matches;
  }

  /// Arena indices of record r's matches, confidence-descending.
  std::span<const uint32_t> Neighbors(data::RecordIdx r) const {
    return arena_->adjacency.Neighbors(r);
  }

  /// Record r's matches with confidence > certainty, best first, truncated
  /// to k entries (0 = unlimited). Cost is O(answer), not O(num_matches).
  std::vector<core::RankedMatch> ForRecord(data::RecordIdx r,
                                           double certainty,
                                           size_t k = 0) const;

  /// Number of arena matches with confidence > certainty (binary search).
  size_t CountAbove(double certainty) const;

  /// The qualifying arena prefix with confidence > certainty, best first.
  std::vector<core::RankedMatch> AboveThreshold(double certainty) const;

  /// The k best matches overall.
  std::vector<core::RankedMatch> TopK(size_t k) const;

  /// Entity clusters at a certainty threshold — connected components of
  /// the match graph restricted to confidence > certainty (§4.1
  /// granularity dial). O(num_matches α(num_records)).
  core::EntityClusters ClustersAt(double certainty) const;

  /// Record r's entity at a certainty threshold: exactly
  /// ClustersAt(certainty).Members(r), ascending, found by walking r's
  /// component over the adjacency instead of clustering the corpus. Cost
  /// grows with the entity, not with num_matches, so every entity query
  /// can afford it.
  std::vector<data::RecordIdx> EntityOf(data::RecordIdx r,
                                        double certainty) const;

  /// FNV-1a digest of the index content (num_records, match count, raw
  /// arena bytes) — exactly the checksum `Save` embeds in the artifact,
  /// so two indexes with equal checksums serve identical bytes and an
  /// in-memory index can be compared against an on-disk artifact without
  /// re-serializing. The determinism harness compares these across
  /// thread counts.
  uint64_t Checksum() const;

  /// Serializes the index to a binary artifact (magic, version, counts,
  /// raw match arena). The adjacency is rebuilt on load — it is a pure
  /// function of the arena, so round-tripping preserves query results
  /// bit-for-bit.
  util::Status Save(const std::string& path) const;

  /// Loads an artifact written by Save. NOT_FOUND when the file cannot be
  /// opened, DATA_LOSS on bad magic / version / truncation / malformed
  /// pairs. Fault-injection points: serve.index_load.open,
  /// serve.index_load.read (util::FaultInjector).
  static util::StatusOr<ResolutionIndex> Load(const std::string& path);

  /// Load wrapped in util::RetryWithPolicy: transient failures
  /// (UNAVAILABLE, DATA_LOSS — a torn concurrent write looks like
  /// corruption) are retried with jittered exponential backoff; permanent
  /// ones (NOT_FOUND) are returned immediately. `stats`, when non-null,
  /// receives the attempt count and total backoff for observability.
  static util::StatusOr<ResolutionIndex> LoadWithRetry(
      const std::string& path, const util::RetryPolicy& policy = {},
      util::RetryStats* stats = nullptr,
      const util::Deadline& deadline = util::Deadline());

 private:
  /// The sorted matches and the record-keyed adjacency into them. Never
  /// mutated once built, so generations that differ only in their corpus
  /// size share one (Extend with no added matches).
  struct Arena {
    std::vector<core::RankedMatch> matches;
    core::MatchAdjacency adjacency;
  };

  /// Builds the adjacency over `matches` and wraps both.
  static std::shared_ptr<const Arena> MakeArena(
      std::vector<core::RankedMatch> matches, size_t num_records);

  size_t num_records_ = 0;
  std::shared_ptr<const Arena> arena_ = MakeArena({}, 0);  // never null
};

}  // namespace yver::serve

#endif  // YVER_SERVE_RESOLUTION_INDEX_H_
