#ifndef YVER_SERVE_QUERY_H_
#define YVER_SERVE_QUERY_H_

#include <cstddef>
#include <vector>

#include "core/ranked_resolution.h"
#include "data/dataset.h"
#include "util/deadline.h"
#include "util/status.h"

namespace yver::serve {

/// What a query resolves to: the raw ranked matches of a record, or the
/// entity (connected component above the certainty threshold) the record
/// belongs to — §4.1's "multiple levels of granularity" dial.
enum class Granularity {
  kMatches = 0,
  kEntity = 1,
};

/// One typed query against a served resolution. This is the single
/// interface shared by serve::ResolutionService, the CLI subcommands, and
/// tests — replacing per-call ad-hoc flag plumbing.
struct Query {
  /// Record whose matches / entity are requested.
  data::RecordIdx record = 0;
  /// Only matches with confidence strictly above this count (§4.2's
  /// tunable certainty threshold). Must be finite; NaN is rejected.
  double certainty = 0.0;
  /// Truncate the response to the k best matches (or the first k entity
  /// members). 0 means unlimited.
  size_t k = 0;
  Granularity granularity = Granularity::kMatches;
  /// When to stop trying: the service checks before and after compute,
  /// answering DEADLINE_EXCEEDED once expired. Default is infinite.
  util::Deadline deadline;

  /// Semantic equality: the deadline is delivery metadata, not part of
  /// what is being asked, so it is excluded.
  friend bool operator==(const Query& a, const Query& b) {
    return a.record == b.record && a.certainty == b.certainty &&
           a.k == b.k && a.granularity == b.granularity;
  }
};

/// The response to a Query.
struct QueryResult {
  Query query;
  /// Granularity::kMatches — the record's matches above the threshold,
  /// best first (RankedResolution ordering contract).
  std::vector<core::RankedMatch> matches;
  /// Granularity::kEntity — sorted members of the record's entity cluster,
  /// including the record itself.
  std::vector<data::RecordIdx> entity;
  /// Index generation this answer was computed against (IndexManager's
  /// monotonic snapshot counter; 1 is the initially served index). Every
  /// answer is internally consistent with exactly this generation; the
  /// swap-under-load chaos harness compares each answer against the
  /// serial baseline of its generation.
  uint64_t generation = 1;
};

/// Validates a query against a corpus of `num_records` records: rejects
/// NaN certainty (INVALID_ARGUMENT) and out-of-corpus records
/// (OUT_OF_RANGE).
util::Status ValidateQuery(const Query& query, size_t num_records);

}  // namespace yver::serve

#endif  // YVER_SERVE_QUERY_H_
