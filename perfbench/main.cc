// yver_perfbench — the repository's end-to-end benchmark.
//
//   yver_perfbench --workload offline_resolve|query_read
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Every workload generates its inputs from --seed inside this process,
// resolves them, serves the result on loopback, and drives it from the
// benchmark's own load generator; README.md says why each workload exists
// and which layer metric should move which end-to-end metric. The run
// checks its outputs against in-process references before printing
// anything, and fails (exit 1, no result) when a check does not hold.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 prints the end-to-end metrics; --trace 1
// records spans in memory, writes them under DIR/traces, and prints the
// per-layer metrics instead. Provenance (host, build, filesystem, seed)
// goes on the line before and into DIR/results.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/evaluation.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "driver.h"
#include "ml/adtree_trainer.h"
#include "ml/instances.h"
#include "serve/ingest.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "stats.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace yver;
namespace fs = std::filesystem;
namespace wire = serve::wire;

// ---------------------------------------------------------------------------
// Workloads

/// What one workload runs. Phase lengths are shares of --seconds.
struct Spec {
  const char* name;
  /// The ~22K-report sample corpus (12K persons, MV submitter on) instead
  /// of the Italy-like preset (~8K reports).
  bool sample_corpus;
  /// The resolve is what this workload measures, so set-up time leaves it
  /// out; otherwise it is set-up for the serving phases.
  bool resolve_measured;
  double closed_share;  // closed-loop capacity phase
  double open_share;    // open-loop query phase
  double append_share;  // append phase
  double query_rate;    // open-loop queries/s over both query connections
  double append_rate;   // appends/s, after the query phases
  /// Rounds per run; each sets up from scratch and runs every phase.
  int rounds;
};

constexpr Spec kSpecs[] = {
    {"offline_resolve", true, true, 0.35, 0.40, 1.00, 5000, 150, 3},
    {"query_read", false, false, 0.35, 0.40, 0.85, 5000, 300, 4},
};

constexpr size_t kQueryConnections = 2;
/// Requests each closed-loop connection keeps in flight: enough that the
/// server, not the round trip of a single request, bounds throughput.
constexpr size_t kClosedDepth = 64;
constexpr double kCertainties[] = {0.0, 1.0, 2.0, 3.0};
constexpr double kEntityShare = 0.10;
constexpr double kReadTimeoutMs = 20000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  std::exit(1);
}

void Check(bool ok, const std::string& why) {
  if (!ok) Fail(why);
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

synth::GeneratorConfig CorpusConfig(const Spec& spec) {
  synth::GeneratorConfig config = synth::ItalyConfig();
  if (spec.sample_corpus) {
    config = synth::GeneratorConfig{};
    config.num_persons = 12000;
    config.include_mv = true;
  }
  return config;
}

/// The archive a workload resolves: a fixed synthetic corpus (the
/// generator's own preset seed), its reports submitted in an order drawn
/// from the workload seed. Every seed thus resolves the same amount of
/// work, which keeps run-to-run spread down to the machine's own, while
/// the order still changes mining, tagging and training.
data::Dataset Archive(const Spec& spec, uint64_t seed) {
  auto generated = synth::Generate(CorpusConfig(spec));
  std::vector<data::Record> records = generated.dataset.records();
  util::Rng rng(seed);
  rng.Shuffle(records);
  data::Dataset out;
  for (data::Record& r : records) out.Add(std::move(r));
  return out;
}

/// Reports never seen by the archive: the same generator on a seed drawn
/// from the workload seed, trimmed to what the append phase needs.
std::vector<data::Record> HeldOutReports(const Spec& spec, uint64_t seed,
                                         size_t count) {
  synth::GeneratorConfig config = CorpusConfig(spec);
  config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  config.num_persons = count / 2 + 200;
  auto generated = synth::Generate(config);
  Check(generated.dataset.size() >= count, "held-out corpus too small");
  return std::vector<data::Record>(
      generated.dataset.records().begin(),
      generated.dataset.records().begin() + static_cast<std::ptrdiff_t>(count));
}

// ---------------------------------------------------------------------------
// Offline resolve

struct Resolved {
  core::PipelineResult result;
  uint64_t checksum = 0;
  double seconds = 0;  // pipeline construction (encode) + Run
  double f1 = 0;
};

core::PipelineConfig ResolveConfig(size_t threads) {
  core::PipelineConfig config = core::RecommendedConfig();
  config.num_threads = threads;
  return config;
}

Resolved Finish(const data::Dataset& dataset, core::PipelineResult result,
                double seconds) {
  Resolved out;
  out.checksum =
      serve::ResolutionIndex(result.resolution, dataset.size()).Checksum();
  out.f1 = core::EvaluateMatches(dataset, result.resolution.matches()).F1();
  out.seconds = seconds;
  out.result = std::move(result);
  return out;
}

/// The program's own entry point, untraced.
Resolved ResolveRun(const data::Dataset& dataset,
                    const data::GeoResolver& geo, size_t threads) {
  int64_t start = NowNs();
  core::UncertainErPipeline pipeline(dataset, geo);
  synth::TagOracle oracle(&dataset);
  core::PipelineResult result = pipeline.Run(
      ResolveConfig(threads),
      [&oracle](data::RecordIdx a, data::RecordIdx b) {
        return oracle.Tag(a, b);
      });
  return Finish(dataset, std::move(result), Seconds(start, NowNs()));
}

/// Run rebuilt from its public calls, with a span around each. Expert
/// tagging runs inside MakeInstances, once per candidate pair; its time
/// comes from MakeInstances' own StageTimings, in `make_instances`.
Resolved ResolveTraced(const data::Dataset& dataset,
                       const data::GeoResolver& geo, size_t threads,
                       Tracer& tracer, core::StageTimings* make_instances) {
  int64_t start = NowNs();
  int32_t root = tracer.Open("bench.resolve");
  core::PipelineConfig config = ResolveConfig(threads);
  std::unique_ptr<core::UncertainErPipeline> pipeline;
  {
    ScopedSpan span(tracer, "data.encode", root);
    pipeline = std::make_unique<core::UncertainErPipeline>(dataset, geo);
  }
  util::ThreadPool pool(threads);
  util::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  core::PipelineResult result;
  {
    ScopedSpan span(tracer, "blocking.run", root);
    result.blocking = pipeline->RunBlocking(config.blocking, pool_ptr);
    result.candidates = config.discard_same_source
                            ? pipeline->DiscardSameSource(result.blocking.pairs)
                            : result.blocking.pairs;
  }
  synth::TagOracle oracle(&dataset);
  std::vector<ml::Instance> instances;
  {
    ScopedSpan span(tracer, "core.make_instances", root);
    instances = pipeline->MakeInstances(
        result.candidates,
        [&oracle](data::RecordIdx a, data::RecordIdx b) {
          return oracle.Tag(a, b);
        },
        pool_ptr, make_instances);
  }
  {
    ScopedSpan span(tracer, "ml.train", root);
    result.training_instances =
        ml::ApplyMaybePolicy(std::move(instances), ml::MaybePolicy::kOmit);
    result.model = ml::TrainAdTree(result.training_instances, config.trainer);
  }
  constexpr size_t kScoreBlock = 1 << 16;  // as in UncertainErPipeline::Run
  std::vector<data::RecordPair> pairs;
  pairs.reserve(result.candidates.size());
  for (const auto& cp : result.candidates) pairs.push_back(cp.pair);
  std::vector<core::RankedMatch> matches;
  for (size_t begin = 0; begin < pairs.size(); begin += kScoreBlock) {
    size_t end = std::min(pairs.size(), begin + kScoreBlock);
    std::vector<features::FeatureVector> features;
    {
      ScopedSpan span(tracer, "features.extract", root);
      features = pipeline->extractor().ExtractBatch(
          std::span<const data::RecordPair>(pairs).subspan(begin, end - begin),
          pool_ptr);
    }
    std::vector<double> scores;
    {
      ScopedSpan span(tracer, "ml.score", root);
      scores = result.model.ScoreBatch(features, pool_ptr);
    }
    ScopedSpan span(tracer, "core.merge", root);
    for (size_t i = begin; i < end; ++i) {
      double score = scores[i - begin];
      if (score <= 0.0) continue;
      matches.push_back(core::RankedMatch{result.candidates[i].pair, score,
                                          result.candidates[i].block_score});
    }
  }
  {
    ScopedSpan span(tracer, "core.merge", root);
    result.resolution = core::RankedResolution(std::move(matches));
  }
  result.num_records = dataset.size();
  tracer.Close(root);
  return Finish(dataset, std::move(result), Seconds(start, NowNs()));
}

// ---------------------------------------------------------------------------
// Serving stack: index, service, WAL-backed live builder, TCP server.

struct Stack {
  std::string wal_dir;
  std::shared_ptr<const serve::ResolutionIndex> index0;
  std::unique_ptr<serve::WriteAheadLog> wal;
  std::shared_ptr<serve::ResolutionService> service;
  std::shared_ptr<serve::LiveIndexBuilder> builder;
  std::unique_ptr<serve::net::Server> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Close(); }

  void Close() {
    if (server) server->Shutdown();
    if (builder) builder->Stop();
    server.reset();
    builder.reset();
    service.reset();
    wal.reset();
    if (!wal_dir.empty()) {
      std::error_code ec;
      fs::remove_all(wal_dir, ec);
      wal_dir.clear();
    }
  }
};

serve::ServiceOptions ServiceOpts(size_t threads) {
  serve::ServiceOptions options;
  options.num_threads = threads;
  return options;
}

std::unique_ptr<Stack> BuildStack(const data::Dataset& dataset,
                                  const core::PipelineResult& resolved,
                                  const std::string& wal_dir,
                                  size_t threads) {
  auto stack = std::make_unique<Stack>();
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  stack->wal_dir = wal_dir;
  stack->index0 = std::make_shared<const serve::ResolutionIndex>(
      resolved.resolution, dataset.size());
  stack->service = std::make_shared<serve::ResolutionService>(
      stack->index0, ServiceOpts(threads));
  std::vector<serve::WalRecoveredRecord> recovered;
  auto wal = serve::WriteAheadLog::Open(wal_dir, serve::WalOptions{},
                                        &recovered);
  Check(wal.ok(), "wal open: " + wal.status().ToString());
  Check(recovered.empty(), "fresh wal directory replayed records");
  stack->wal = std::move(wal).value();
  auto resolver = std::make_unique<core::IncrementalResolver>(
      dataset, core::RankedResolution(stack->index0->matches()),
      resolved.model, synth::Gazetteer::MakeOwnedGeoResolver());
  serve::IngestOptions ingest;
  ingest.publish_batch = 1;  // the CLI's per-record publish
  ingest.wal = stack->wal.get();
  ingest.wal_base_records = dataset.size();
  stack->builder = std::make_shared<serve::LiveIndexBuilder>(
      stack->service, std::move(resolver), ingest);
  stack->server = std::make_unique<serve::net::Server>(
      stack->service, serve::net::ServerOptions{}, stack->builder);
  util::Status started = stack->server->Start();
  Check(started.ok(), "server start: " + started.ToString());
  return stack;
}

serve::net::Client Connect(uint16_t port) {
  auto client = serve::net::Client::Connect(port);
  Check(client.ok(), "connect: " + client.status().ToString());
  client->set_read_timeout_ms(kReadTimeoutMs);
  return std::move(client).value();
}

// ---------------------------------------------------------------------------
// Query phases

/// One drawn query, packed: a record drawn uniformly over the archive, a
/// certainty level and, now and then, entity granularity. Kept with each
/// open-loop answer for the in-process comparison.
struct Draw {
  uint32_t record = 0;
  uint8_t certainty = 0;  // index into kCertainties
  bool entity = false;

  serve::Query query() const {
    serve::Query q;
    q.record = static_cast<data::RecordIdx>(record);
    q.certainty = kCertainties[certainty];
    q.granularity =
        entity ? serve::Granularity::kEntity : serve::Granularity::kMatches;
    return q;
  }
};

Draw DrawQuery(util::Rng& rng, size_t num_records) {
  Draw d;
  d.record = static_cast<uint32_t>(
      rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
  d.certainty = static_cast<uint8_t>(
      rng.UniformInt(0, std::size(kCertainties) - 1));
  d.entity = rng.Bernoulli(kEntityShare);
  return d;
}

bool IsFrame(const std::string& bytes, wire::FrameType type) {
  return bytes.size() >= wire::kHeaderSize &&
         static_cast<uint8_t>(bytes[3]) == static_cast<uint8_t>(type);
}

/// Whether a response frame is an OK query answer; a refusal is logged
/// to stderr (it counts as failed, not as a gate failure).
bool AnsweredOk(const std::string& frame) {
  if (IsFrame(frame, wire::FrameType::kResult)) return true;
  wire::Frame parsed;
  std::string why = "malformed frame";
  if (wire::ExtractFrame(frame, &parsed).ok()) {
    auto decoded = wire::DecodeResult(parsed);
    if (!decoded.ok()) why = decoded.status().ToString();
  }
  std::fprintf(stderr, "perfbench: query refused: %s\n", why.c_str());
  return false;
}

/// One OK open-loop answer, kept for the in-process comparison.
struct WireAnswer {
  Draw draw;
  uint64_t hash = 0;    // FNV-1a of the response frame
  int64_t due_ns = 0;
  int64_t recv_ns = 0;
};

/// Folds one answer's hash into an order-sensitive digest.
constexpr uint64_t kDigestSeed = 1469598103934665603ULL;
uint64_t Chain(uint64_t digest, uint64_t hash) {
  return (digest ^ hash) * 1099511628211ULL;
}

/// What one closed-loop connection leaves for the in-process comparison.
/// Its queries are the draws of an Rng seeded with `seed`, in order, and
/// its answers are folded into a digest: neither is kept, so the
/// benchmark's memory does not grow with the server's throughput.
struct ClosedStream {
  uint64_t seed = 0;
  uint64_t responses = 0;         // answers read, OK or not
  std::vector<uint64_t> refused;  // indices of the ones not OK
  uint64_t digest = kDigestSeed;  // over the OK answers' hashes, in order
};

struct QueryLog {
  std::vector<ClosedStream> closed;
  std::vector<WireAnswer> open;
  std::vector<double> qps;  // closed loop, per window of kQpsWindow answers
  std::vector<double> latency_ms;  // open loop, from due times
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Answers per closed-loop throughput window. Windows are cut by answer
/// count, not time, so window k of every run sees the cache after the
/// same number of draws.
constexpr size_t kQpsWindow = 10000;

/// Closed loop before any append, so every answer is over generation 1.
/// Each connection draws a fresh query for every request, uniformly over
/// the archive as the open loop does, for as long as the phase lasts:
/// no pool is recycled, so a faster server does not end up answering
/// repeats from the cache.
void ClosedLoopPhase(uint16_t port, util::Rng& rng, size_t num_records,
                     double seconds, QueryLog* log) {
  std::vector<serve::net::Client> clients;
  clients.reserve(kQueryConnections);  // lanes keep pointers into it
  std::vector<ClosedLane> lanes(kQueryConnections);
  std::vector<ClosedStream> streams(kQueryConnections);
  std::vector<util::Rng> rngs;
  std::atomic<uint64_t> answered{0};
  std::mutex window_mu;
  std::vector<int64_t> window_ends;
  for (size_t l = 0; l < kQueryConnections; ++l) {
    clients.push_back(Connect(port));
    streams[l].seed = rng.Next();
    rngs.emplace_back(streams[l].seed);
    lanes[l].client = &clients[l];
    lanes[l].make_request = [&, l](size_t, std::string* frame) {
      wire::EncodeQuery(DrawQuery(rngs[l], num_records).query(), 0.0, frame);
    };
    lanes[l].on_response = [&, l](size_t i, const std::string& frame,
                                  int64_t recv) {
      ClosedStream& stream = streams[l];
      ++stream.responses;
      if (!AnsweredOk(frame)) {
        stream.refused.push_back(i);
        return false;
      }
      stream.digest = Chain(stream.digest, Fnv1a(frame));
      if ((answered.fetch_add(1) + 1) % kQpsWindow == 0) {
        std::lock_guard<std::mutex> lock(window_mu);
        window_ends.push_back(recv);
      }
      return true;
    };
  }
  std::vector<ClosedLane*> ptrs;
  for (ClosedLane& lane : lanes) ptrs.push_back(&lane);
  int64_t start = NowNs();
  RunClosedLoop(ptrs, kClosedDepth,
                start + static_cast<int64_t>(seconds * 1e9));
  for (size_t l = 0; l < kQueryConnections; ++l) {
    log->attempted += lanes[l].answered + lanes[l].failed;
    log->failed += lanes[l].failed;
    log->closed.push_back(std::move(streams[l]));
  }
  // Throughput of each full window of kQpsWindow answers, both
  // connections together.
  std::sort(window_ends.begin(), window_ends.end());
  int64_t window_start = start;
  for (int64_t window_end : window_ends) {
    log->qps.push_back(static_cast<double>(kQpsWindow) /
                       Seconds(window_start, window_end));
    window_start = window_end;
  }
}

void OpenLoopPhase(uint16_t port, util::Rng& rng, size_t num_records,
                   double rate, double seconds, QueryLog* log) {
  auto count = static_cast<size_t>(rate * seconds);
  std::vector<Draw> draws;
  for (size_t k = 0; k < count; ++k) {
    draws.push_back(DrawQuery(rng, num_records));
  }
  std::vector<int64_t> due = Schedule(NowNs() + 20'000'000, rate, count);
  std::vector<serve::net::Client> clients;
  std::vector<Lane> lanes(kQueryConnections);
  std::vector<std::vector<size_t>> ids(kQueryConnections);
  for (size_t k = 0; k < count; ++k) {
    size_t l = k % kQueryConnections;
    wire::EncodeQuery(draws[k].query(), 0.0, &lanes[l].frames.emplace_back());
    lanes[l].due_ns.push_back(due[k]);
    ids[l].push_back(k);
  }
  std::vector<uint64_t> hashes(count, 0);
  for (size_t l = 0; l < kQueryConnections; ++l) {
    clients.push_back(Connect(port));
  }
  for (size_t l = 0; l < kQueryConnections; ++l) {
    lanes[l].client = &clients[l];
    lanes[l].on_response = [&, l](size_t i, const std::string& frame,
                                  int64_t) {
      hashes[ids[l][i]] = Fnv1a(frame);
      return AnsweredOk(frame);
    };
  }
  std::vector<Lane*> ptrs;
  for (Lane& lane : lanes) ptrs.push_back(&lane);
  OpenLoopReport report = RunOpenLoop(ptrs);
  double miss_ms = seconds * 1e3;
  std::vector<double> latency(count, miss_ms);  // in due order
  for (size_t l = 0; l < kQueryConnections; ++l) {
    std::vector<double> lat = LatenciesFromDue(lanes[l], miss_ms);
    for (size_t i = 0; i < lanes[l].frames.size(); ++i) {
      size_t k = ids[l][i];
      latency[k] = lat[i];
      if (!lanes[l].ok[i]) continue;
      log->open.push_back(
          WireAnswer{draws[k], hashes[k], due[k], lanes[l].recv_ns[i]});
    }
  }
  log->latency_ms.insert(log->latency_ms.end(), latency.begin(),
                         latency.end());
  log->late_ms.insert(log->late_ms.end(), report.late_ms.begin(),
                      report.late_ms.end());
  log->attempted += report.attempted;
  log->failed += report.failed;
}

// ---------------------------------------------------------------------------
// Append phase: open-loop appends, each followed to its first visible
// answer by a probe connection.

struct AppendLog {
  std::vector<data::Record> sent;      // decoded as the server decodes them
  std::vector<uint64_t> record_idx;    // assigned by the ack
  std::vector<int64_t> due_ns;
  std::vector<int64_t> ack_ns;         // -1 when refused
  std::vector<int64_t> visible_ns;     // -1 when never seen
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void AppendPhase(uint16_t port, const std::vector<data::Record>& records,
                 double rate, AppendLog* log) {
  size_t count = records.size();
  serve::net::Client client = Connect(port);
  serve::net::Client probe = Connect(port);
  Lane lane;
  lane.client = &client;
  lane.due_ns = Schedule(NowNs() + 20'000'000, rate, count);
  log->sent.clear();
  for (const data::Record& r : records) {
    std::string& frame = lane.frames.emplace_back();
    wire::EncodeAppend(r, &frame);
    wire::Frame decoded;
    auto consumed = wire::ExtractFrame(frame, &decoded);
    Check(consumed.ok(), "append frame does not parse");
    auto back = wire::DecodeAppend(decoded);
    Check(back.ok(), "append frame does not decode");
    log->sent.push_back(std::move(back).value());
  }
  log->record_idx.assign(count, 0);
  log->visible_ns.assign(count, -1);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> pending;  // acked, not yet seen by the probe
  bool acks_done = false;
  lane.on_response = [&](size_t i, const std::string& frame, int64_t) {
    wire::Frame decoded;
    if (!IsFrame(frame, wire::FrameType::kAppendAck) ||
        !wire::ExtractFrame(frame, &decoded).ok()) {
      return false;
    }
    auto ack = wire::DecodeAppendAck(decoded);
    if (!ack.ok() || !ack->durable) return false;
    log->record_idx[i] = ack->record_idx;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(i);
    }
    cv.notify_one();
    return true;
  };
  std::thread prober([&] {
    for (;;) {
      size_t i;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return acks_done || !pending.empty(); });
        if (pending.empty()) return;
        i = pending.front();
      }
      serve::Query q;
      q.record = static_cast<data::RecordIdx>(log->record_idx[i]);
      int64_t give_up = NowNs() + static_cast<int64_t>(kReadTimeoutMs * 1e6);
      for (;;) {
        auto answer = probe.Call(q);
        if (answer.ok()) {
          log->visible_ns[i] = NowNs();
          break;
        }
        if (answer.status().code() != util::StatusCode::kOutOfRange ||
            NowNs() > give_up) {
          break;
        }
        // Polling every 250 us keeps the probe's own load below the query
        // mix it runs beside, at a resolution fine enough for the ~2 ms
        // it is timing.
        std::this_thread::sleep_for(std::chrono::microseconds(250));
      }
      std::lock_guard<std::mutex> lock(mu);
      pending.pop_front();
    }
  });
  OpenLoopReport report = RunOpenLoop({&lane});
  {
    std::lock_guard<std::mutex> lock(mu);
    acks_done = true;
  }
  cv.notify_one();
  prober.join();
  log->due_ns = lane.due_ns;
  log->ack_ns.assign(count, -1);
  for (size_t i = 0; i < count; ++i) {
    if (lane.ok[i]) log->ack_ns[i] = lane.recv_ns[i];
    if (!lane.ok[i] || log->visible_ns[i] < 0) ++log->failed;
  }
  log->late_ms = report.late_ms;
  log->attempted = count;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    Check(std::isfinite(metrics[i].value), metrics[i].name + " is not finite");
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Refuses builds whose numbers mean nothing: sanitizers, assertions on,
/// or anything but an optimized Release build.
std::string BuildProblem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type ") + PERFBENCH_BUILD_TYPE +
           " (Release required)";
  }
  return "";
}

// ---------------------------------------------------------------------------
// One run: Spec::rounds rounds, each of which sets up from scratch and
// then measures. Every metric is a median over the rounds' windows, so a host
// hiccup that lasts for part of a run spoils only part of its windows.

/// What the rounds of one run accumulate.
struct Samples {
  std::vector<double> gen_s, resolve_s, stack_s;
  std::vector<uint64_t> checksums;
  double f1 = 0;
  std::vector<double> qps;  // per closed-loop phase
  std::vector<double> query_p50, query_p99;  // per open-loop window
  std::vector<double> ack_p50, ack_p99, visible_p50, visible_p99;
  std::vector<double> query_ms;  // every open-loop latency, all rounds
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t queries = 0;
  size_t appends = 0;
  // Per-layer measurements, taken beside the end-to-end ones.
  std::vector<double> service_us, encode_ns, decode_ns, add_us, build_ms;
  std::vector<double> wal_us, publish_us;
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t applied = 0;
  uint64_t published = 0;
  wire::ServerInfo query_info;  // after the last round's query phases
  double peak_rss_mb = 0;       // after round 0's serving phases
};

/// The value the run reports from its per-window latencies (and resolve
/// times): the lowest. A shared host only ever takes time away (stolen
/// vCPU time, a neighbour's disk flush), often for stretches that cover
/// most of a round, so the best window is the steadiest estimate of what
/// the program itself does; a change that slows every window still moves
/// it in full. Window counts are fixed by the workload, so the estimate
/// compares like with like across commits. Throughput windows, many more
/// per run, are reduced by their upper quartile instead: for the same
/// reason it leans to the fast side, but no single lucky window sets it.
double Best(const std::vector<double>& windows) {
  if (windows.empty()) return 0.0;
  return *std::min_element(windows.begin(), windows.end());
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Answers `draw` in process, as the server would over the same index,
/// timing the service and the codec; returns the hash of the response
/// frame. The spans are roots of their own, not children of the wire
/// request replayed: they are timed later, on another service, and share
/// only its request id.
uint64_t ReplayOne(serve::ResolutionService& service, const Draw& draw,
                   Tracer& tracer, uint64_t request, Samples* out) {
  const serve::Query query = draw.query();
  int64_t t0 = NowNs();
  auto result = service.QueryRecord(query);
  int64_t t1 = NowNs();
  std::string query_frame;
  std::string frame;
  wire::EncodeQuery(query, 0.0, &query_frame);
  wire::EncodeResult(result, &frame);
  int64_t t2 = NowNs();
  wire::Frame parsed;
  bool decoded = wire::ExtractFrame(query_frame, &parsed).ok() &&
                 wire::DecodeQuery(parsed).ok() &&
                 wire::ExtractFrame(frame, &parsed).ok() &&
                 wire::DecodeResult(parsed).ok();
  int64_t t3 = NowNs();
  Check(decoded, "codec cannot decode its own frames");
  out->service_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  out->encode_ns.push_back(static_cast<double>(t2 - t1));
  out->decode_ns.push_back(static_cast<double>(t3 - t2));
  tracer.Record("serve.query_record", t0, t1, kNoParent, request);
  tracer.Record("wire.encode", t1, t2, kNoParent, request);
  tracer.Record("wire.decode", t2, t3, kNoParent, request);
  return Fnv1a(frame);
}

/// Gate: every wire answer (all served before the first append, over
/// generation 1) equals the in-process QueryRecord answer over the same
/// index. Closed-loop answers are compared through their digest, in
/// order, and get no spans: their wire times include the wait behind
/// kClosedDepth - 1 others. Each open-loop query gets a bench.query span
/// from due time to answer, and its replay spans share its request id.
void ReplayQueries(serve::ResolutionService& service, const QueryLog& log,
                   size_t num_records, Tracer& tracer, uint64_t request_base,
                   Samples* out) {
  Tracer no_spans(false);
  for (const ClosedStream& stream : log.closed) {
    util::Rng rng(stream.seed);
    uint64_t digest = kDigestSeed;
    size_t next_refused = 0;
    for (uint64_t i = 0; i < stream.responses; ++i) {
      Draw draw = DrawQuery(rng, num_records);
      if (next_refused < stream.refused.size() &&
          stream.refused[next_refused] == i) {
        ++next_refused;
        continue;
      }
      digest = Chain(digest, ReplayOne(service, draw, no_spans, 0, out));
    }
    Check(digest == stream.digest,
          "closed-loop wire answers differ from in-process QueryRecord");
  }
  for (size_t k = 0; k < log.open.size(); ++k) {
    const WireAnswer& a = log.open[k];
    uint64_t request = request_base + k;
    tracer.Record("bench.query", a.due_ns, a.recv_ns, kNoParent, request);
    Check(ReplayOne(service, a.draw, tracer, request, out) == a.hash,
          "wire answer differs from in-process QueryRecord");
  }
}

/// Gate: every acked append became visible, in arrival order, and the
/// served index equals a serial IncrementalResolver replay of the seed
/// corpus plus the acked appends. Also times the layers of the append
/// path: AddRecord, the index build, PublishIndex (on `publisher`, whose
/// cache the query replay warmed) and (traced) the WAL. As in
/// ReplayQueries, the replayed calls are root spans that share the
/// request id of the wire append they replay.
void ReplayAppends(const Stack& stack, serve::ResolutionService& publisher,
                   const data::Dataset& dataset,
                   const ml::AdTree& model, const AppendLog& log,
                   const std::string& wal_dir, Tracer& tracer,
                   uint64_t request_base, Samples* out) {
  size_t base = dataset.size();
  for (size_t i = 0; i < log.sent.size(); ++i) {
    Check(log.ack_ns[i] >= 0, "append was refused");
    Check(log.visible_ns[i] >= 0, "acked append never became visible");
    Check(log.record_idx[i] == base + i, "acks out of arrival order");
  }
  core::IncrementalResolver replay(
      dataset, core::RankedResolution(stack.index0->matches()), model,
      synth::Gazetteer::MakeOwnedGeoResolver());
  for (size_t i = 0; i < log.sent.size(); ++i) {
    uint64_t request = request_base + i;
    tracer.Record("bench.append", log.due_ns[i], log.visible_ns[i], kNoParent,
                  request);
    int64_t t0 = NowNs();
    replay.AddRecord(log.sent[i]);
    int64_t t1 = NowNs();
    out->add_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    tracer.Record("core.incremental_add", t0, t1, kNoParent, request);
  }
  int64_t t0 = NowNs();
  auto final_index = std::make_shared<const serve::ResolutionIndex>(
      replay.Resolution(), replay.dataset().size());
  out->build_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  Check(final_index->Checksum() == stack.service->PinIndex()->Checksum(),
        "served index differs from the serial replay of acked appends");

  for (int rep = 0; rep < 11; ++rep) {
    auto next = rep % 2 == 0 ? final_index : stack.index0;
    int64_t p0 = NowNs();
    Check(publisher.PublishIndex(next).ok(), "publish failed");
    out->publish_us.push_back(static_cast<double>(NowNs() - p0) * 1e-3);
  }
  if (!tracer.enabled()) return;
  // The same records through a WAL of their own, on the same filesystem.
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  std::vector<serve::WalRecoveredRecord> recovered;
  auto wal = serve::WriteAheadLog::Open(wal_dir, serve::WalOptions{}, &recovered);
  Check(wal.ok(), "replay wal open: " + wal.status().ToString());
  for (size_t i = 0; i < log.sent.size(); ++i) {
    int64_t w0 = NowNs();
    auto appended = (*wal)->Append(log.sent[i]);
    int64_t w1 = NowNs();
    Check(appended.ok(), "replay wal append: " + appended.status().ToString());
    out->wal_us.push_back(static_cast<double>(w1 - w0) * 1e-3);
    tracer.Record("wal.append", w0, w1, kNoParent, request_base + i);
  }
  serve::WalStats stats = (*wal)->stats();
  out->wal_appends += stats.appends;
  out->wal_fsyncs += stats.fsyncs;
  wal->reset();
  fs::remove_all(wal_dir, ec);
}

/// One round: set up (generate, resolve, serve) and run the phases.
void RunRound(const Spec& spec, const Args& args, int round, size_t threads,
              const data::GeoResolver& geo, const std::string& wal_root,
              Tracer& tracer, Samples* out, Resolved* resolved,
              data::Dataset* dataset) {
  const double share = args.seconds / spec.rounds;
  const auto num_appends =
      static_cast<size_t>(spec.append_rate * spec.append_share * share);
  // The previous round's result and archive go before this round's are
  // built, so no round's peak memory holds two of them.
  *resolved = Resolved{};
  *dataset = data::Dataset{};
  int64_t t0 = NowNs();
  *dataset = Archive(spec, args.seed);
  std::vector<data::Record> held_out =
      HeldOutReports(spec, args.seed + static_cast<uint64_t>(round), num_appends);
  out->gen_s.push_back(Seconds(t0, NowNs()));

  *resolved = ResolveRun(*dataset, geo, threads);
  out->resolve_s.push_back(resolved->seconds);
  out->checksums.push_back(resolved->checksum);
  out->f1 = resolved->f1;
  ++out->attempted;

  int64_t t1 = NowNs();
  std::string wal_dir = wal_root + "-" + std::to_string(round);
  std::unique_ptr<Stack> stack =
      BuildStack(*dataset, resolved->result, wal_dir, threads);
  out->stack_s.push_back(Seconds(t1, NowNs()));

  const uint16_t port = stack->server->port();
  util::Rng rng(args.seed * 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(round));
  QueryLog qlog;
  AppendLog alog;
  ClosedLoopPhase(port, rng, dataset->size(), spec.closed_share * share,
                  &qlog);
  OpenLoopPhase(port, rng, dataset->size(), spec.query_rate,
                spec.open_share * share, &qlog);
  {
    serve::net::Client info_client = Connect(port);
    auto info = info_client.Info();
    Check(info.ok(), "info: " + info.status().ToString());
    out->query_info = *info;
  }
  AppendPhase(port, held_out, spec.append_rate, &alog);
  Check(stack->builder->WaitForIdle(util::Deadline::AfterMillis(kReadTimeoutMs))
            .ok(),
        "live builder did not drain");
  // The program's peak memory: the gates below build replay copies that
  // are the benchmark's, not the program's, so the peak is read before
  // them, in the first round, before any replay has run.
  if (round == 0) out->peak_rss_mb = PeakRssMb();
  serve::IngestStats ingest = stack->builder->stats();
  out->applied += ingest.applied;
  out->published += ingest.published;

  const uint64_t request_base = (static_cast<uint64_t>(round) + 1) << 40;
  serve::ResolutionService replay(stack->index0, ServiceOpts(threads));
  ReplayQueries(replay, qlog, dataset->size(), tracer, request_base, out);
  ReplayAppends(*stack, replay, *dataset, resolved->result.model, alog,
                wal_dir + "-replay", tracer, request_base + (uint64_t{1} << 32),
                out);
  stack->Close();

  // End-to-end samples of this round.
  Append(&out->qps, qlog.qps);
  Append(&out->query_p50, WindowPercentiles(qlog.latency_ms, 0.50, 250));
  Append(&out->query_p99, WindowPercentiles(qlog.latency_ms, 0.99, 1000));
  Append(&out->query_ms, qlog.latency_ms);
  std::vector<double> ack_ms, visible_ms;
  for (size_t i = 0; i < alog.sent.size(); ++i) {
    ack_ms.push_back(static_cast<double>(alog.ack_ns[i] - alog.due_ns[i]) * 1e-6);
    visible_ms.push_back(
        static_cast<double>(alog.visible_ns[i] - alog.due_ns[i]) * 1e-6);
  }
  Append(&out->ack_p50, WindowPercentiles(ack_ms, 0.50, 100));
  Append(&out->ack_p99, WindowPercentiles(ack_ms, 0.99, 1000));
  Append(&out->visible_p50, WindowPercentiles(visible_ms, 0.50, 100));
  Append(&out->visible_p99, WindowPercentiles(visible_ms, 0.99, 1000));
  Append(&out->late_ms, qlog.late_ms);
  Append(&out->late_ms, alog.late_ms);
  out->attempted += qlog.attempted + alog.attempted;
  out->failed += qlog.failed + alog.failed;
  out->queries += qlog.attempted - qlog.failed;
  out->appends += alog.sent.size();
}

int Run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --workload %s\n", args.workload.c_str());
    return 2;
  }
  std::string build_problem = BuildProblem();
  if (!build_problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n",
                 build_problem.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  Check(!ec, "cannot create " + args.work_dir);
  const std::string tag = std::string(spec->name) + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          (args.trace ? "1" : "0");
  const std::string wal_root =
      args.work_dir + "/wal-" + std::to_string(::getpid());
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t threads = std::min<size_t>(4, hw);
  Tracer tracer(args.trace);

  // Self-tests of the measuring instruments, before any input exists.
  std::string problem = SelfTestPercentile();
  Check(problem.empty(), problem);
  {
    auto tiny = std::make_shared<serve::ResolutionService>(
        std::make_shared<const serve::ResolutionIndex>(core::RankedResolution(),
                                                       1000),
        ServiceOpts(1));
    serve::net::Server server(tiny);
    Check(server.Start().ok(), "self-test server start");
    problem = SelfTestOpenLoop(server.port(), 1000);
    server.Shutdown();
    Check(problem.empty(), problem);
  }

  synth::Gazetteer gazetteer;
  data::GeoResolver geo = gazetteer.MakeGeoResolver();
  Samples samples;
  Resolved resolved;
  data::Dataset dataset;
  for (int round = 0; round < spec->rounds; ++round) {
    RunRound(*spec, args, round, threads, geo, wal_root, tracer, &samples,
             &resolved, &dataset);
  }
  // Gate: Run is deterministic, and its result is a real resolution.
  for (uint64_t c : samples.checksums) {
    Check(c == samples.checksums.front(), "repeated Run changed the resolution");
  }
  Check(!resolved.result.resolution.empty() && resolved.f1 > 0.3,
        "resolution is empty or implausible");
  Resolved traced;
  core::StageTimings make_instances;
  if (args.trace) {
    traced = ResolveTraced(dataset, geo, threads, tracer, &make_instances);
    Check(traced.checksum == resolved.checksum,
          "traced decomposition does not reproduce Run's checksum");
  }
  std::string fs_name = FilesystemOf(args.work_dir);

  // Set-up time: generate, plus (serving workloads) resolve, plus the
  // serving stack; each the median over rounds.
  double setup_s = Median(samples.gen_s) + Median(samples.stack_s) +
                   (spec->resolve_measured ? 0.0 : Median(samples.resolve_s));
  double ok_ratio =
      samples.attempted == 0
          ? 0.0
          : static_cast<double>(samples.attempted - samples.failed) /
                samples.attempted;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"resolve_s", Best(samples.resolve_s), "s"},
        {"resolve_f1", samples.f1, "ratio"},
        {"peak_rss_mb", samples.peak_rss_mb, "MB"},
        {"query_qps", Percentile(samples.qps, 0.75), "1/s"},
        {"query_p50_ms", Best(samples.query_p50), "ms"},
        {"append_visible_p50_ms", Best(samples.visible_p50), "ms"},
        {"ok_ratio", ok_ratio, "ratio"},
    };
  } else {
    std::map<std::string, double> self = tracer.SelfSeconds();
    const auto& b = traced.result.blocking;
    auto quality = core::EvaluatePairs(dataset, b.pairs);
    double service_p50 = Percentile(samples.service_us, 0.50);
    const wire::ServerInfo& info = samples.query_info;
    uint64_t disconnects =
        info.net.disconnects_idle + info.net.disconnects_slowloris +
        info.net.disconnects_oversize + info.net.disconnects_rate_limited +
        info.net.disconnects_write_stall;
    auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
    metrics = {
        {"data.encode_s", self["data.encode"], "s"},
        {"blocking.run_s", self["blocking.run"], "s"},
        {"features.extract_s",
         make_instances.extract_seconds + self["features.extract"], "s"},
        {"ml.tag_s", make_instances.tag_seconds, "s"},
        {"ml.train_s", self["ml.train"], "s"},
        {"ml.score_s", self["ml.score"], "s"},
        {"core.merge_s", self["core.merge"], "s"},
        {"blocking.mine_s", b.timings.mine_seconds, "s"},
        {"blocking.support_s", b.timings.support_seconds, "s"},
        {"blocking.score_s", b.timings.score_seconds, "s"},
        {"blocking.threshold_s", b.timings.threshold_seconds, "s"},
        {"blocking.mfis", static_cast<double>(b.num_mfis_mined), "count"},
        {"blocking.blocks", static_cast<double>(b.blocks.size()), "count"},
        {"blocking.block_keep_ratio",
         ratio(b.blocks.size(), b.num_blocks_considered), "ratio"},
        {"blocking.pairs", static_cast<double>(b.pairs.size()), "count"},
        {"blocking.pair_quality", ratio(quality.true_pos, b.pairs.size()),
         "ratio"},
        {"ml.train_instances",
         static_cast<double>(traced.result.training_instances.size()), "count"},
        {"serve.service_p50_us", service_p50, "us"},
        {"serve.service_p99_us", Percentile(samples.service_us, 0.99), "us"},
        {"serve.cache_hit_ratio", info.metrics.HitRate(), "ratio"},
        {"wire.encode_ns", Median(samples.encode_ns), "ns"},
        {"wire.decode_ns", Median(samples.decode_ns), "ns"},
        {"net.overhead_p50_us",
         Percentile(samples.query_ms, 0.50) * 1e3 - service_p50, "us"},
        {"net.shed", static_cast<double>(info.metrics.shed), "count"},
        {"net.paused_reads", static_cast<double>(info.net.paused_reads),
         "count"},
        {"net.disconnects", static_cast<double>(disconnects), "count"},
        {"wal.append_p50_us", Percentile(samples.wal_us, 0.50), "us"},
        {"wal.append_p99_us", Percentile(samples.wal_us, 0.99), "us"},
        {"wal.fsyncs_per_append",
         ratio(samples.wal_fsyncs, samples.wal_appends), "ratio"},
        {"core.incremental_add_p50_us", Percentile(samples.add_us, 0.50), "us"},
        {"serve.index_build_ms", Median(samples.build_ms), "ms"},
        {"serve.publish_us", Median(samples.publish_us), "us"},
        {"ingest.records_per_publish",
         ratio(samples.applied, samples.published), "ratio"},
        {"query_p99_ms", Best(samples.query_p99), "ms"},
        {"append_ack_p50_ms", Best(samples.ack_p50), "ms"},
        {"append_ack_p99_ms", Best(samples.ack_p99), "ms"},
        {"append_visible_p99_ms", Best(samples.visible_p99), "ms"},
        {"trace.coverage", tracer.Coverage("bench.resolve"), "ratio"},
        {"trace.overhead", traced.seconds / Median(samples.resolve_s), "ratio"},
        {"bench.gen_late_p99_ms", Percentile(samples.late_ms, 0.99), "ms"},
    };
  }

  // Provenance, then the result.
  char prov[512];
  std::snprintf(prov, sizeof(prov),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
                "\"trace\": %d, \"nproc\": %zu, \"threads\": %zu, "
                "\"build_type\": \"%s\", \"wal_fs\": \"%s\", \"rounds\": %d, "
                "\"records\": %zu, \"appends\": %zu, \"queries\": %zu, "
                "\"spans\": %zu}",
                spec->name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, hw, threads,
                PERFBENCH_BUILD_TYPE, fs_name.c_str(), spec->rounds, dataset.size(),
                samples.appends, samples.queries, tracer.size());
  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, ",
                static_cast<unsigned long long>(samples.attempted),
                static_cast<unsigned long long>(samples.failed));
  std::string result = std::string(head) + "\"metrics\": " + Json(metrics) + "}";

  fs::create_directories(args.work_dir + "/results", ec);
  if (std::FILE* f = std::fopen(
          (args.work_dir + "/results/" + tag + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"provenance\": %s, \"result\": %s, \"windows\": "
                 "{\"resolve_s\": %s, \"query_qps\": %s, \"query_p50_ms\": %s, "
                 "\"query_p99_ms\": %s, \"append_ack_p50_ms\": %s, "
                 "\"append_ack_p99_ms\": %s, \"append_visible_p50_ms\": %s, "
                 "\"append_visible_p99_ms\": %s}}\n",
                 prov, result.c_str(), JsonList(samples.resolve_s).c_str(),
                 JsonList(samples.qps).c_str(),
                 JsonList(samples.query_p50).c_str(),
                 JsonList(samples.query_p99).c_str(),
                 JsonList(samples.ack_p50).c_str(),
                 JsonList(samples.ack_p99).c_str(),
                 JsonList(samples.visible_p50).c_str(),
                 JsonList(samples.visible_p99).c_str());
    std::fclose(f);
  }
  if (args.trace) {
    fs::create_directories(args.work_dir + "/traces", ec);
    // One span file per workload, the latest traced run's: they run to
    // tens of megabytes.
    Check(tracer.WriteTsv(args.work_dir + "/traces/" + spec->name + ".tsv"),
          "cannot write spans");
  }
  std::printf("{\"provenance\": %s}\n%s\n", prov, result.c_str());
  std::fflush(stdout);
  return 0;
}


}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: yver_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
