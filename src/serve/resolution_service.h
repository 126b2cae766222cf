#ifndef YVER_SERVE_RESOLUTION_SERVICE_H_
#define YVER_SERVE_RESOLUTION_SERVICE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/index_manager.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "util/status.h"

namespace yver::serve {

/// Construction options of a ResolutionService. None changes behaviour.
struct ServiceOptions {
  /// Ignored: the service has no worker pool. Kept only because
  /// perfbench's ServiceOpts still assigns it.
  size_t num_threads = 0;
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

/// Point-in-time service counters.
struct ServiceMetrics {
  uint64_t queries = 0;
  uint64_t errors = 0;
  /// Frames the wire front end's rate limiter answered
  /// RESOURCE_EXHAUSTED. net::Server fills this in; the service itself
  /// never sheds.
  uint64_t shed = 0;
  /// Queries answered DEADLINE_EXCEEDED at one of the service's two
  /// deadline checks.
  uint64_t deadline_exceeded = 0;
  /// Live-index counters (IndexManager): generation currently served,
  /// successful publishes since construction, and the point-in-time
  /// pinned-reader gauge (0 when no query holds a snapshot).
  uint64_t generation = 1;
  uint64_t publishes = 0;
  uint64_t pinned_readers = 0;
  /// Log2-bucketed latency histogram of answered queries (see
  /// kServiceLatencyBuckets); feeds the percentile estimates below.
  std::vector<uint64_t> latency_histogram_ns;

  /// Always 0: there is no result cache. Kept only because perfbench's
  /// serve.cache_hit_ratio still reads it.
  double HitRate() const { return 0.0; }
  /// Approximate latency percentile (p in [0, 1]) of the answered
  /// queries; see serve::LatencyPercentileMs.
  double LatencyPercentileMs(double p) const {
    return serve::LatencyPercentileMs(latency_histogram_ns, p);
  }
};

/// Thread-safe query front end over a ResolutionIndex: the paper's
/// query-time uncertain resolution (§4.2) packaged for serving. Every
/// query is answered by `QueryRecord` on the caller's thread: pin the
/// current snapshot, validate, check the deadline, slice the record's
/// matches (ResolutionIndex::ForRecord) or walk its component
/// (ResolutionIndex::EntityOf), check the deadline again.
///
/// Failure model (DESIGN.md §11): every query resolves to OK or a typed
/// util::Status — never an abort. Per-query deadlines are honoured before
/// and after compute (DEADLINE_EXCEEDED).
///
/// Live updates (DESIGN.md §13): the served index lives in an
/// IndexManager. Every query pins the current snapshot for its whole
/// execution, so validation and compute see one generation and an
/// in-flight query never observes a torn swap. `PublishIndex` installs a
/// new generation atomically.
///
/// All public methods may be called concurrently from any thread.
class ResolutionService {
 public:
  explicit ResolutionService(std::shared_ptr<const ResolutionIndex> index,
                             ServiceOptions options = {});

  ResolutionService(const ResolutionService&) = delete;
  ResolutionService& operator=(const ResolutionService&) = delete;

  /// Answers one query. INVALID_ARGUMENT for NaN certainty, OUT_OF_RANGE
  /// for a record beyond the indexed corpus; UNAVAILABLE / DATA_LOSS only
  /// under fault injection at serve.service.compute.
  util::StatusOr<QueryResult> QueryRecord(const Query& query);

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

  /// Snapshot of the counters (monotonic since construction or the last
  /// ResetMetrics).
  ServiceMetrics metrics() const;
  void ResetMetrics();

 private:
  /// Books a non-OK answer: bumps errors_ (and deadline_exceeded_ for a
  /// DEADLINE_EXCEEDED), and returns the status unchanged.
  util::Status Fail(util::Status status);

  /// Records the latency of an answered query into the log2 histogram.
  void RecordLatency(std::chrono::steady_clock::time_point start);

  IndexManager manager_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::array<std::atomic<uint64_t>, kServiceLatencyBuckets> latency_hist_{};
};

}  // namespace yver::serve

#endif  // YVER_SERVE_RESOLUTION_SERVICE_H_
