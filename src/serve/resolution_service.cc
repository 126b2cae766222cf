#include "serve/resolution_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/fault_injector.h"

namespace yver::serve {

double LatencyPercentileMs(const std::vector<uint64_t>& histogram_ns,
                           double p) {
  uint64_t total = 0;
  for (uint64_t c : histogram_ns) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(std::ceil(p * total));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < histogram_ns.size(); ++i) {
    seen += histogram_ns[i];
    if (seen >= target) {
      // Upper bound of bucket i is 2^i ns.
      return std::ldexp(1.0, static_cast<int>(i)) / 1e6;
    }
  }
  return std::ldexp(1.0, static_cast<int>(histogram_ns.size())) / 1e6;
}

ResolutionService::ResolutionService(
    std::shared_ptr<const ResolutionIndex> index, ServiceOptions)
    : manager_(std::move(index)) {}

util::StatusOr<uint64_t> ResolutionService::PublishIndex(
    std::shared_ptr<const ResolutionIndex> next) {
  return manager_.Publish(std::move(next));
}

util::Status ResolutionService::Fail(util::Status status) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  if (status.code() == util::StatusCode::kDeadlineExceeded) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void ResolutionService::RecordLatency(
    std::chrono::steady_clock::time_point start) {
  auto elapsed = std::chrono::steady_clock::now() - start;
  uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  latency_hist_[LatencyBucket(ns)].fetch_add(1, std::memory_order_relaxed);
}

util::StatusOr<QueryResult> ResolutionService::QueryRecord(
    const Query& query) {
  auto start = std::chrono::steady_clock::now();
  queries_.fetch_add(1, std::memory_order_relaxed);
  // Pin the current snapshot for the whole query: validation and compute
  // see one generation, even if a publish lands mid-flight.
  PinnedIndex pin = manager_.Acquire();
  util::Status status = ValidateQuery(query, pin->num_records());
  if (!status.ok()) return Fail(std::move(status));
  // Deadline check #1 — entry: zero and already-expired deadlines never
  // reach the compute path.
  if (query.deadline.HasExpired()) {
    return Fail(query.deadline.Exceeded("query start"));
  }
  // Chaos seam: an injected latency spike stalls the compute (driving the
  // deadline check after it); an injected I/O error models a failing
  // backing store and surfaces as a typed UNAVAILABLE / DATA_LOSS.
  status =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kServiceCompute);
  if (!status.ok()) return Fail(std::move(status));
  QueryResult result;
  result.query = query;
  result.generation = pin.generation();
  switch (query.granularity) {
    case Granularity::kMatches:
      result.matches = pin->ForRecord(query.record, query.certainty, query.k);
      break;
    case Granularity::kEntity:
      result.entity = pin->EntityOf(query.record, query.certainty);
      if (query.k != 0 && query.k < result.entity.size()) {
        result.entity.resize(query.k);
      }
      break;
  }
  // Deadline check #2 — delivery boundary: the answer is computed, but
  // this caller's budget is gone.
  if (query.deadline.HasExpired()) {
    return Fail(query.deadline.Exceeded("compute"));
  }
  RecordLatency(start);
  return result;
}

ServiceMetrics ResolutionService::metrics() const {
  ServiceMetrics m;
  m.queries = queries_.load(std::memory_order_relaxed);
  m.errors = errors_.load(std::memory_order_relaxed);
  m.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  m.generation = manager_.generation();
  m.publishes = manager_.publishes();
  m.pinned_readers = manager_.pinned_readers();
  m.latency_histogram_ns.resize(kServiceLatencyBuckets);
  for (size_t i = 0; i < kServiceLatencyBuckets; ++i) {
    m.latency_histogram_ns[i] =
        latency_hist_[i].load(std::memory_order_relaxed);
  }
  return m;
}

void ResolutionService::ResetMetrics() {
  queries_.store(0, std::memory_order_relaxed);
  errors_.store(0, std::memory_order_relaxed);
  deadline_exceeded_.store(0, std::memory_order_relaxed);
  for (auto& bucket : latency_hist_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

}  // namespace yver::serve
