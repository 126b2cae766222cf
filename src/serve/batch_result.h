#ifndef YVER_SERVE_BATCH_RESULT_H_
#define YVER_SERVE_BATCH_RESULT_H_

#include <cstdint>
#include <vector>

#include "serve/query.h"
#include "util/status.h"

namespace yver::serve {

/// The typed answer to a batch of queries: per-query statuses in request
/// order plus the aggregate counters an in-process batch caller would
/// otherwise recompute by hand. Replaces the bare
/// std::vector<StatusOr<QueryResult>> QueryBatch used to return.
///
/// The vector interface (size / operator[] / iteration) is preserved so a
/// BatchResult reads like the list it contains; the counters are derived
/// from the statuses by Tally() and satisfy:
///   ok + failed == size(), and deadline_exceeded <= failed
struct BatchResult {
  std::vector<util::StatusOr<QueryResult>> results;

  /// Aggregate counters over `results` (valid after Tally).
  uint64_t ok = 0;                 // OK answers
  uint64_t failed = 0;             // non-OK statuses of any code
  uint64_t deadline_exceeded = 0;  // DEADLINE_EXCEEDED

  size_t size() const { return results.size(); }
  bool empty() const { return results.empty(); }
  util::StatusOr<QueryResult>& operator[](size_t i) { return results[i]; }
  const util::StatusOr<QueryResult>& operator[](size_t i) const {
    return results[i];
  }
  auto begin() { return results.begin(); }
  auto end() { return results.end(); }
  auto begin() const { return results.begin(); }
  auto end() const { return results.end(); }

  /// True when every query in the batch was answered OK.
  bool all_ok() const { return failed == 0; }

  /// Recomputes the counters from `results`. Idempotent.
  void Tally() {
    ok = failed = deadline_exceeded = 0;
    for (const auto& r : results) {
      if (r.ok()) {
        ++ok;
      } else {
        ++failed;
        if (r.status().code() == util::StatusCode::kDeadlineExceeded) {
          ++deadline_exceeded;
        }
      }
    }
  }
};

}  // namespace yver::serve

#endif  // YVER_SERVE_BATCH_RESULT_H_
