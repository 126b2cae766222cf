#ifndef YVER_SERVE_RESOLUTION_SERVICE_H_
#define YVER_SERVE_RESOLUTION_SERVICE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/batch_result.h"
#include "serve/index_manager.h"
#include "serve/lru_cache.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace yver::serve {

/// Tuning knobs for a ResolutionService.
struct ServiceOptions {
  /// Worker threads for QueryBatch / QueryStream fan-out
  /// (0 = one per hardware thread, via util::ResolveNumThreads).
  size_t num_threads = 0;
  /// Total LRU entries across shards; 0 disables result caching.
  size_t cache_capacity = 1 << 16;
  /// LRU shards (rounded up to a power of two).
  size_t cache_shards = 16;
};

/// Number of power-of-two latency-histogram buckets a ResolutionService
/// keeps (bucket i counts answers with latency in [2^(i-1), 2^i) ns).
inline constexpr size_t kServiceLatencyBuckets = 48;

/// The log2 histogram bucket of a `ns` latency: bit_width(ns), with the
/// last bucket absorbing everything beyond it.
inline size_t LatencyBucket(uint64_t ns) {
  return std::min(static_cast<size_t>(std::bit_width(ns)),
                  kServiceLatencyBuckets - 1);
}

/// Approximate latency percentile (p in [0, 1], e.g. 0.99) of a log2
/// histogram: the upper bound of the bucket holding the p-th sample, in
/// milliseconds. 0 when the histogram is empty.
double LatencyPercentileMs(const std::vector<uint64_t>& histogram_ns,
                           double p);

/// Point-in-time service counters. Latency covers cache hits and misses
/// alike; hit rate is hits / (hits + misses) of the result cache.
struct ServiceMetrics {
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Frames the wire front end's rate limiter answered
  /// RESOURCE_EXHAUSTED. net::Server fills this in; the service itself
  /// never sheds.
  uint64_t shed = 0;
  /// Queries answered DEADLINE_EXCEEDED at one of the service's three
  /// deadline checks.
  uint64_t deadline_exceeded = 0;
  /// Live-index counters (IndexManager): generation currently served,
  /// successful publishes since construction, and the point-in-time
  /// pinned-reader gauge (0 when no query holds a snapshot).
  uint64_t generation = 1;
  uint64_t publishes = 0;
  uint64_t pinned_readers = 0;
  double total_latency_ms = 0.0;
  /// Log2-bucketed latency histogram of answered queries (see
  /// kServiceLatencyBuckets); feeds the percentile estimates below.
  std::vector<uint64_t> latency_histogram_ns;

  double HitRate() const {
    uint64_t looked = cache_hits + cache_misses;
    return looked == 0 ? 0.0 : static_cast<double>(cache_hits) / looked;
  }
  double MeanLatencyMs() const {
    return queries == 0 ? 0.0 : total_latency_ms / static_cast<double>(queries);
  }
  /// Approximate latency percentile (p in [0, 1]) of the answered
  /// queries; see serve::LatencyPercentileMs.
  double LatencyPercentileMs(double p) const {
    return serve::LatencyPercentileMs(latency_histogram_ns, p);
  }
};

/// Thread-safe query front end over an immutable ResolutionIndex: the
/// paper's query-time uncertain resolution (§4.2) packaged for serving.
/// Single (`QueryRecord`), batch (`QueryBatch`, fanned out over a
/// util::ThreadPool), and streaming-style (`QueryStream`, results pushed to
/// a sink as they complete) APIs all answer through one code path, so a
/// batch answer is always identical to the per-query answer.
///
/// Failure model (DESIGN.md §11): every query resolves to OK or a typed
/// util::Status — never an abort. Per-query deadlines are honoured before
/// the cache lookup, before compute, and after compute
/// (DEADLINE_EXCEEDED).
///
/// Live updates (DESIGN.md §13): the served index lives in an
/// IndexManager. Every query pins the current snapshot for its whole
/// execution — validation, cache lookup, compute, and cache fill all see
/// one generation, so an in-flight query never observes a torn swap.
/// `PublishIndex` installs a new generation atomically; cache entries are
/// keyed by generation, so a retired answer can never be served; old
/// entries leave the cache under LRU pressure.
///
/// Repeated (record, certainty, k, granularity) lookups are served from a
/// sharded LRU cache. A missed entity-granularity query walks only the
/// record's own component (ResolutionIndex::EntityOf), so neither a new
/// threshold nor a publish costs a clustering of the corpus.
///
/// All public methods may be called concurrently from any thread.
class ResolutionService {
 public:
  explicit ResolutionService(std::shared_ptr<const ResolutionIndex> index,
                             ServiceOptions options = {});

  ResolutionService(const ResolutionService&) = delete;
  ResolutionService& operator=(const ResolutionService&) = delete;

  /// Answers one query. INVALID_ARGUMENT for NaN certainty, OUT_OF_RANGE
  /// for a record beyond the indexed corpus.
  util::StatusOr<QueryResult> QueryRecord(const Query& query);

  /// Answers a batch concurrently; results[i] corresponds to queries[i]
  /// and equals what QueryRecord(queries[i]) would return. Blocks until
  /// the whole batch is done. The returned BatchResult carries the tallied
  /// per-batch counters (ok / failed / deadline) alongside the per-query
  /// statuses.
  BatchResult QueryBatch(const std::vector<Query>& queries);

  /// Streaming-style variant: `sink(i, result)` is invoked once per query,
  /// from worker threads, as each result becomes ready (order is not
  /// deterministic). The sink must be thread-safe. Blocks until all sinks
  /// have returned.
  void QueryStream(
      const std::vector<Query>& queries,
      const std::function<void(size_t, util::StatusOr<QueryResult>)>& sink);

  /// Atomically installs `next` as the new served snapshot and returns
  /// its generation. In-flight queries finish on whatever generation they
  /// pinned; queries that start after the publish see the new one. Typed
  /// UNAVAILABLE (nothing installed) under an injected fault at
  /// serve.index.publish — safe to retry.
  util::StatusOr<uint64_t> PublishIndex(
      std::shared_ptr<const ResolutionIndex> next);

  /// Pins and returns the currently served snapshot — the only way to
  /// look at the index from outside a query. Hold the pin only as long
  /// as needed; a live pin keeps its whole generation in memory.
  PinnedIndex PinIndex() const { return manager_.Acquire(); }

  /// The snapshot-swap machinery itself (generation / publish / pin
  /// gauges beyond what metrics() snapshots).
  const IndexManager& index_manager() const { return manager_; }

  const ServiceOptions& options() const { return options_; }

  /// Actual worker count (options().num_threads resolved against the
  /// hardware).
  size_t num_threads() const { return pool_.num_threads(); }

  /// Snapshot of the counters (monotonic since construction or the last
  /// ResetMetrics).
  ServiceMetrics metrics() const;
  void ResetMetrics();

 private:
  /// Cache-miss path: computes the result against the pinned snapshot and
  /// inserts it under the pin's generation. UNAVAILABLE / DATA_LOSS only
  /// under fault injection (util::FaultInjector).
  util::StatusOr<std::shared_ptr<const QueryResult>> Compute(
      const Query& query, const PinnedIndex& pin);

  /// Books a non-OK answer: bumps errors_ (and deadline_exceeded_ for a
  /// DEADLINE_EXCEEDED), and returns the status unchanged.
  util::Status Fail(util::Status status);

  /// Records the latency of an answered query into the total and the
  /// log2 histogram.
  void RecordLatency(std::chrono::steady_clock::time_point start);

  IndexManager manager_;
  ServiceOptions options_;
  util::ThreadPool pool_;
  ShardedQueryCache cache_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> latency_ns_{0};
  std::array<std::atomic<uint64_t>, kServiceLatencyBuckets> latency_hist_{};
};

}  // namespace yver::serve

#endif  // YVER_SERVE_RESOLUTION_SERVICE_H_
