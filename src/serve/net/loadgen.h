#ifndef YVER_SERVE_NET_LOADGEN_H_
#define YVER_SERVE_NET_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/resolution_service.h"
#include "util/status.h"

namespace yver::serve::net {

/// Workload shape and pacing for RunLoadGen. The synthetic workload is
/// record lookups drawn uniformly from a hot subset of the corpus (sized
/// by Info from the server), with an optional slice of entity-granularity
/// queries mixed in.
struct LoadGenOptions {
  uint16_t port = 0;
  size_t connections = 1;
  /// Total queries across all connections (synthetic mode; replay mode
  /// sends exactly what the capture holds).
  size_t num_queries = 1000;
  /// Total target queries/second across all connections. 0 = closed loop
  /// (each connection sends, waits for the response, sends the next);
  /// > 0 = open loop (sends are paced on schedule regardless of
  /// responses, so queueing delay shows up in the latencies).
  double qps = 0;
  // Synthetic workload shape:
  double certainty = 0.0;
  size_t k = 0;
  double deadline_ms = 0;       // per-query wire budget; 0 = none
  size_t hot_set = 1024;        // distinct hot records (clamped to corpus)
  double entity_fraction = 0;   // fraction at entity granularity
  uint64_t seed = 17;
  /// Client-side I/O budget per blocking read: a stalled or hostile
  /// server surfaces as a typed DEADLINE_EXCEEDED instead of hanging the
  /// load generator forever. 0 = block indefinitely (historical
  /// behaviour).
  double read_timeout_ms = 30000;
  /// Record mode: write every query frame sent (per-connection streams
  /// concatenated in connection order) to this capture file.
  std::string record_path;
  /// Replay mode: ignore the synthetic knobs and send the frames from
  /// this capture, byte-identically. The capture is split across
  /// connections contiguously and deterministically, so a replay with the
  /// same --connections reproduces the recorded per-connection streams.
  std::string replay_path;
};

/// What one load-generator run measured.
struct LoadGenReport {
  uint64_t queries_sent = 0;
  uint64_t ok = 0;        // kResult responses
  uint64_t errors = 0;    // kError responses (rate limit, deadline, ...)
  double wall_seconds = 0;
  double qps_achieved = 0;
  /// FNV-1a over each connection's raw response bytes in receive order,
  /// combined across connections in connection order. Two runs that got
  /// byte-identical answers — the determinism contract — report equal
  /// hashes; any single differing byte changes it.
  uint64_t response_hash = 0;
  /// Client-observed latency (send to last response byte), log2-bucketed
  /// exactly like ServiceMetrics (bucket i counts [2^(i-1), 2^i) ns).
  std::vector<uint64_t> latency_histogram_ns;
  /// The server's own ServiceMetrics snapshot, fetched via a kInfoRequest
  /// after the run: server-side percentiles without a side channel.
  ServiceMetrics server_metrics;

  /// Client-side percentile from the histogram (upper bucket bound).
  double LatencyPercentileMs(double p) const;
};

/// Runs the workload against a serve::net::Server on 127.0.0.1 and blocks
/// until every response arrived. Per-query failures (typed kError frames)
/// are counted, not fatal; connect/capture/socket failures are.
util::StatusOr<LoadGenReport> RunLoadGen(const LoadGenOptions& options);

}  // namespace yver::serve::net

#endif  // YVER_SERVE_NET_LOADGEN_H_
