#include "serve/resolution_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <latch>

#include "util/check.h"
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
    std::shared_ptr<const ResolutionIndex> index, ServiceOptions options)
    : manager_(std::move(index)),
      options_(options),
      pool_(util::ResolveNumThreads(options.num_threads)),
      cache_(options.cache_capacity, options.cache_shards) {}

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
  latency_ns_.fetch_add(ns, std::memory_order_relaxed);
  latency_hist_[LatencyBucket(ns)].fetch_add(1, std::memory_order_relaxed);
}

util::StatusOr<QueryResult> ResolutionService::QueryRecord(
    const Query& query) {
  auto start = std::chrono::steady_clock::now();
  queries_.fetch_add(1, std::memory_order_relaxed);
  // Pin the current snapshot for the whole query: validation, cache, and
  // compute all see one generation, even if a publish lands mid-flight.
  PinnedIndex pin = manager_.Acquire();
  util::Status status = ValidateQuery(query, pin->num_records());
  if (!status.ok()) return Fail(std::move(status));
  // Deadline check #1 — entry: zero and already-expired deadlines never
  // reach the cache or the compute path.
  if (query.deadline.HasExpired()) {
    return Fail(query.deadline.Exceeded("query start"));
  }
  std::shared_ptr<const QueryResult> cached =
      cache_.Get(query, pin.generation());
  QueryResult result;
  if (cached != nullptr) {
    result = *cached;
    result.from_cache = true;
  } else {
    // Deadline check #2 — compute boundary: don't start work the caller
    // has already abandoned (a stalled cache lookup, e.g. a latency fault
    // at serve.cache.get, may have eaten the rest of the budget).
    if (query.deadline.HasExpired()) {
      return Fail(query.deadline.Exceeded("compute start"));
    }
    auto computed = Compute(query, pin);
    if (!computed.ok()) return Fail(computed.status());
    result = **computed;
    // Deadline check #3 — delivery boundary: the answer is computed (and
    // cached for the next caller), but this caller's budget is gone.
    if (query.deadline.HasExpired()) {
      return Fail(query.deadline.Exceeded("compute"));
    }
  }
  RecordLatency(start);
  return result;
}

BatchResult ResolutionService::QueryBatch(
    const std::vector<Query>& queries) {
  BatchResult batch;
  batch.results.assign(queries.size(), util::Status::Internal("unanswered"));
  QueryStream(queries,
              [&batch](size_t i, util::StatusOr<QueryResult> result) {
                // Each i is written by exactly one worker; the latch inside
                // QueryStream orders these writes before the return.
                batch.results[i] = std::move(result);
              });
  batch.Tally();
  return batch;
}

void ResolutionService::QueryStream(
    const std::vector<Query>& queries,
    const std::function<void(size_t, util::StatusOr<QueryResult>)>& sink) {
  if (queries.empty()) return;
  // Chunked fan-out with a local latch, so concurrent QueryStream calls
  // from different threads never wait on each other's tasks (as a global
  // ThreadPool::Wait would).
  size_t num_chunks =
      std::min(queries.size(), pool_.num_threads() * 4);
  size_t chunk = (queries.size() + num_chunks - 1) / num_chunks;
  num_chunks = (queries.size() + chunk - 1) / chunk;
  std::latch done(static_cast<ptrdiff_t>(num_chunks));
  for (size_t begin = 0; begin < queries.size(); begin += chunk) {
    size_t end = std::min(queries.size(), begin + chunk);
    pool_.Submit([this, &queries, &sink, &done, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        // Per-chunk deadline boundary: an expired query is answered
        // DEADLINE_EXCEEDED (with counters) by QueryRecord's entry check
        // without touching the cache or compute paths, so a slow
        // chunk cannot make later queries burn work nobody is awaiting.
        sink(i, QueryRecord(queries[i]));
      }
      done.count_down();
    });
  }
  done.wait();
}

util::StatusOr<std::shared_ptr<const QueryResult>> ResolutionService::Compute(
    const Query& query, const PinnedIndex& pin) {
  // Chaos seam: an injected latency spike stalls the compute (driving the
  // deadline checks around it); an injected I/O error models a failing
  // backing store and surfaces as a typed UNAVAILABLE / DATA_LOSS.
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kServiceCompute);
  if (!injected.ok()) return injected;
  auto result = std::make_shared<QueryResult>();
  result->query = query;
  result->generation = pin.generation();
  switch (query.granularity) {
    case Granularity::kMatches:
      result->matches = pin->ForRecord(query.record, query.certainty,
                                       query.k);
      break;
    case Granularity::kEntity: {
      result->entity = pin->EntityOf(query.record, query.certainty);
      if (query.k != 0 && query.k < result->entity.size()) {
        result->entity.resize(query.k);
      }
      break;
    }
  }
  cache_.Put(query, pin.generation(), result);
  return std::shared_ptr<const QueryResult>(std::move(result));
}

ServiceMetrics ResolutionService::metrics() const {
  ServiceMetrics m;
  m.queries = queries_.load(std::memory_order_relaxed);
  m.errors = errors_.load(std::memory_order_relaxed);
  m.cache_hits = cache_.hits();
  m.cache_misses = cache_.misses();
  m.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  m.generation = manager_.generation();
  m.publishes = manager_.publishes();
  m.pinned_readers = manager_.pinned_readers();
  m.total_latency_ms =
      static_cast<double>(latency_ns_.load(std::memory_order_relaxed)) / 1e6;
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
  latency_ns_.store(0, std::memory_order_relaxed);
  for (auto& bucket : latency_hist_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  // Cache hit/miss counters live in the cache; recreate-level reset is not
  // needed for the benches, which read deltas via metrics() snapshots.
}

}  // namespace yver::serve
