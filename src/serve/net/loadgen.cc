#include "serve/net/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "serve/net/client.h"
#include "serve/net/replay.h"
#include "serve/query.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/timer.h"

namespace yver::serve::net {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t hash, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// What one connection worker accumulates; merged in connection order
/// after join, so the totals are deterministic.
struct ConnStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t hash = kFnvOffset;  // FNV-1a over raw response frames, in order
  std::vector<uint64_t> hist =
      std::vector<uint64_t>(kServiceLatencyBuckets, 0);
  util::Status status = util::Status::Ok();  // first hard failure
};

void RecordLatencyNs(ConnStats& stats, uint64_t ns) {
  stats.hist[LatencyBucket(ns)]++;
}

/// Classifies a raw response frame by its type byte and folds it into the
/// per-connection hash and counters.
void BookResponse(ConnStats& stats, const std::string& frame) {
  stats.hash = FnvMix(stats.hash, frame.data(), frame.size());
  if (frame.size() > 3 &&
      static_cast<uint8_t>(frame[3]) ==
          static_cast<uint8_t>(wire::FrameType::kError)) {
    stats.errors++;
  } else {
    stats.ok++;
  }
}

/// Closed loop: one round trip at a time; latency is the full round trip.
void RunClosedLoop(Client& client, const std::vector<std::string>& frames,
                   ConnStats& stats) {
  for (const std::string& frame : frames) {
    auto start = std::chrono::steady_clock::now();
    util::Status sent = client.SendBytes(frame);
    if (!sent.ok()) {
      stats.status = std::move(sent);
      return;
    }
    stats.sent++;
    auto response = client.ReadFrameBytes();
    if (!response.ok()) {
      stats.status = response.status();
      return;
    }
    auto elapsed = std::chrono::steady_clock::now() - start;
    RecordLatencyNs(stats,
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            elapsed)
                            .count()));
    BookResponse(stats, *response);
  }
}

/// Open loop: a sender thread puts queries on the wire on schedule while
/// this thread reads responses, so server-side queueing delay lands in
/// the measured latency instead of throttling the offered load.
void RunOpenLoop(Client& client, const std::vector<std::string>& frames,
                 double interval_ns, ConnStats& stats) {
  std::vector<std::chrono::steady_clock::time_point> send_times(
      frames.size());
  std::atomic<size_t> sent_count{0};
  util::Status send_status = util::Status::Ok();  // read after join
  std::thread sender([&] {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < frames.size(); ++i) {
      auto due = t0 + std::chrono::nanoseconds(static_cast<int64_t>(
                          interval_ns * static_cast<double>(i)));
      std::this_thread::sleep_until(due);
      send_times[i] = std::chrono::steady_clock::now();
      // Publish the timestamp before the bytes can generate a response.
      sent_count.store(i + 1, std::memory_order_release);
      util::Status sent = client.SendBytes(frames[i]);
      if (!sent.ok()) {
        send_status = std::move(sent);
        // The server answers what it got, then closes: the reader sees
        // the end of the stream instead of waiting for the rest.
        (void)client.FinishSending();
        return;
      }
    }
  });
  for (size_t i = 0; i < frames.size(); ++i) {
    auto response = client.ReadFrameBytes();
    if (!response.ok()) {
      stats.status = response.status();
      break;
    }
    // Answer i cannot arrive before request i went out, so its send
    // time is published by now; the acquire makes it visible.
    (void)sent_count.load(std::memory_order_acquire);
    auto elapsed = std::chrono::steady_clock::now() - send_times[i];
    RecordLatencyNs(stats,
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            elapsed)
                            .count()));
    BookResponse(stats, *response);
  }
  sender.join();
  stats.sent = sent_count.load(std::memory_order_acquire);
  // A failed send is the cause; the read error it led to is not.
  if (!send_status.ok()) {
    stats.status = util::Status::Unavailable("load generator send failed: " +
                                             send_status.message());
  }
}

/// Splits `frames` into `parts` contiguous blocks, sizes as equal as
/// possible (the first `n % parts` blocks get one extra). Deterministic,
/// so record and replay agree on per-connection streams.
std::vector<std::vector<std::string>> Partition(
    std::vector<std::string> frames, size_t parts) {
  std::vector<std::vector<std::string>> out(parts);
  size_t n = frames.size();
  size_t base = n / parts;
  size_t extra = n % parts;
  size_t pos = 0;
  for (size_t c = 0; c < parts; ++c) {
    size_t take = base + (c < extra ? 1 : 0);
    out[c].reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out[c].push_back(std::move(frames[pos++]));
    }
  }
  return out;
}

}  // namespace

double LoadGenReport::LatencyPercentileMs(double p) const {
  return serve::LatencyPercentileMs(latency_histogram_ns, p);
}

util::StatusOr<LoadGenReport> RunLoadGen(const LoadGenOptions& options) {
  size_t connections = std::max<size_t>(1, options.connections);

  // The query stream, as raw frames.
  std::vector<std::string> frames;
  if (!options.replay_path.empty()) {
    auto loaded = LoadCapture(options.replay_path);
    if (!loaded.ok()) return loaded.status();
    frames = std::move(*loaded);
  } else {
    // Shape the synthetic workload from the server's own corpus size.
    auto info_client = Client::Connect(options.port);
    if (!info_client.ok()) return info_client.status();
    info_client->set_read_timeout_ms(options.read_timeout_ms);
    auto info = info_client->Info();
    if (!info.ok()) return info.status();
    if (info->num_records == 0) {
      return util::Status::InvalidArgument("server corpus is empty");
    }
    size_t hot = std::min<size_t>(std::max<size_t>(1, options.hot_set),
                                  info->num_records);
    util::Rng rng(options.seed);
    frames.reserve(options.num_queries);
    for (size_t i = 0; i < options.num_queries; ++i) {
      Query query;
      query.record = static_cast<data::RecordIdx>(
          rng.UniformInt(0, static_cast<int64_t>(hot) - 1));
      query.certainty = options.certainty;
      query.k = options.k;
      query.granularity = rng.Bernoulli(options.entity_fraction)
                              ? Granularity::kEntity
                              : Granularity::kMatches;
      std::string frame;
      wire::EncodeQuery(query, options.deadline_ms, &frame);
      frames.push_back(std::move(frame));
    }
  }
  if (frames.empty()) {
    return util::Status::InvalidArgument("load generator has no queries");
  }

  auto per_conn = Partition(std::move(frames), connections);

  if (!options.record_path.empty()) {
    auto writer = CaptureWriter::Open(options.record_path);
    if (!writer.ok()) return writer.status();
    for (const auto& conn_frames : per_conn) {
      for (const auto& frame : conn_frames) {
        util::Status appended = writer->Append(frame);
        if (!appended.ok()) return appended;
      }
    }
    util::Status closed = writer->Close();
    if (!closed.ok()) return closed;
  }

  // Connect everything before the clock starts.
  std::vector<Client> clients;
  clients.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    auto client = Client::Connect(options.port);
    if (!client.ok()) return client.status();
    client->set_read_timeout_ms(options.read_timeout_ms);
    clients.push_back(std::move(*client));
  }

  std::vector<ConnStats> stats(connections);
  double interval_ns =
      options.qps > 0
          ? 1e9 * static_cast<double>(connections) / options.qps
          : 0;
  util::Timer timer;
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      if (options.qps > 0) {
        RunOpenLoop(clients[c], per_conn[c], interval_ns, stats[c]);
      } else {
        RunClosedLoop(clients[c], per_conn[c], stats[c]);
      }
    });
  }
  for (auto& w : workers) w.join();
  double wall_seconds = timer.ElapsedSeconds();

  LoadGenReport report;
  report.wall_seconds = wall_seconds;
  report.latency_histogram_ns.assign(kServiceLatencyBuckets, 0);
  report.response_hash = kFnvOffset;
  for (size_t c = 0; c < connections; ++c) {
    if (!stats[c].status.ok()) return stats[c].status;
    report.queries_sent += stats[c].sent;
    report.ok += stats[c].ok;
    report.errors += stats[c].errors;
    for (size_t b = 0; b < kServiceLatencyBuckets; ++b) {
      report.latency_histogram_ns[b] += stats[c].hist[b];
    }
    // Connection-order combine: scheduling cannot reorder it.
    report.response_hash =
        FnvMix(report.response_hash, &stats[c].hash, sizeof(stats[c].hash));
  }
  report.qps_achieved =
      wall_seconds > 0
          ? static_cast<double>(report.queries_sent) / wall_seconds
          : 0;

  // Server-side view, over the same wire.
  auto info_client = Client::Connect(options.port);
  if (info_client.ok()) {
    info_client->set_read_timeout_ms(options.read_timeout_ms);
    auto info = info_client->Info();
    if (info.ok()) report.server_metrics = std::move(info->metrics);
  }
  return report;
}

}  // namespace yver::serve::net
