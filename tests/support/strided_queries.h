#ifndef YVER_TESTS_SUPPORT_STRIDED_QUERIES_H_
#define YVER_TESTS_SUPPORT_STRIDED_QUERIES_H_

#include <cstddef>
#include <thread>
#include <vector>

#include "serve/query.h"
#include "serve/resolution_service.h"
#include "util/status.h"

namespace yver::serve {

/// Answers `workload` on `threads` plain std::thread workers sharing one
/// service: worker t calls QueryRecord on queries t, t + threads,
/// t + 2 * threads, ... The result at i is the answer to workload[i], so
/// the thread-count matrices compare it with a serial baseline.
inline std::vector<util::StatusOr<QueryResult>> QueryStrided(
    ResolutionService& service, const std::vector<Query>& workload,
    size_t threads) {
  std::vector<util::StatusOr<QueryResult>> results(
      workload.size(), util::Status::Internal("unanswered"));
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < workload.size(); i += threads) {
        results[i] = service.QueryRecord(workload[i]);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return results;
}

}  // namespace yver::serve

#endif  // YVER_TESTS_SUPPORT_STRIDED_QUERIES_H_
