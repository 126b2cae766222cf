// Integration tests of the TCP front end (DESIGN.md §12): the wire
// answers must be byte-equal to the in-process API at every service thread
// count, responses must come back in request order under pipelining, a
// pipelining firehose must not starve another connection, one thread
// sending while another reads on the same client must get the same bytes,
// a wire query must be answered while an in-process query stalls in the
// same service, malformed bytes must produce typed error frames (never a
// crash), a graceful shutdown must drain every accepted query, a recorded
// capture must replay to an identical response hash, and injected socket
// faults must only ever fragment or fail I/O — never corrupt an answer.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/ranked_resolution.h"
#include "data/dataset.h"
#include "data/record.h"
#include "ml/adtree.h"
#include "serve/ingest.h"
#include "serve/net/client.h"
#include "serve/net/loadgen.h"
#include "serve/net/replay.h"
#include "serve/net/server.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "serve/wire.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/status.h"

namespace yver::serve {
namespace {

using util::StatusCode;

constexpr size_t kNumRecords = 200;
constexpr size_t kNumMatches = 800;

core::RankedResolution MakeResolution(size_t num_records, size_t num_matches,
                                      uint64_t seed) {
  util::Rng rng(seed);
  std::set<data::RecordPair> seen;
  std::vector<core::RankedMatch> matches;
  while (matches.size() < num_matches) {
    auto a = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
    auto b = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
    if (a == b) continue;
    data::RecordPair pair(a, b);
    if (!seen.insert(pair).second) continue;
    core::RankedMatch m;
    m.pair = pair;
    m.confidence = rng.UniformInt(-2, 20) / 10.0;
    m.block_score = rng.UniformDouble();
    matches.push_back(m);
  }
  return core::RankedResolution(std::move(matches));
}

std::shared_ptr<const ResolutionIndex> MakeIndex() {
  return std::make_shared<const ResolutionIndex>(
      MakeResolution(kNumRecords, kNumMatches, /*seed=*/77), kNumRecords);
}

std::vector<Query> MakeWorkload(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> workload;
  workload.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query query;
    query.record = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(kNumRecords) - 1));
    query.certainty = rng.UniformInt(-2, 20) / 10.0;
    query.k = static_cast<size_t>(rng.UniformInt(0, 8));
    query.granularity =
        rng.Bernoulli(0.3) ? Granularity::kEntity : Granularity::kMatches;
    workload.push_back(query);
  }
  return workload;
}

/// The reference bytes: what the in-process API answers serially, pushed
/// through the same codec.
std::vector<std::string> ReferenceBytes(
    const std::shared_ptr<const ResolutionIndex>& index,
    const std::vector<Query>& workload) {
  ResolutionService reference(index);
  std::vector<std::string> expected;
  expected.reserve(workload.size());
  for (const Query& query : workload) {
    std::string bytes;
    wire::EncodeResult(reference.QueryRecord(query), &bytes);
    expected.push_back(std::move(bytes));
  }
  return expected;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Byte equality: the tentpole determinism contract

TEST(NetServerTest, WireAnswersAreByteEqualToInProcessAcrossThreadCounts) {
  auto index = MakeIndex();
  auto workload = MakeWorkload(300, /*seed=*/5);
  auto expected = ReferenceBytes(index, workload);

  // `threads` client threads, each on its own connection, send the whole
  // workload at once; every answer must still be the serial one.
  for (size_t threads : {1u, 2u, 8u}) {
    auto service = std::make_shared<ResolutionService>(index);
    net::Server server(service);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::thread> clients;
    for (size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&] {
        auto client = net::Client::Connect(server.port());
        ASSERT_TRUE(client.ok());
        for (size_t i = 0; i < workload.size(); ++i) {
          ASSERT_TRUE(client->SendQuery(workload[i]).ok());
          auto response = client->ReadFrameBytes();
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          EXPECT_EQ(*response, expected[i])
              << "query " << i << " at " << threads << " threads";
        }
      });
    }
    for (auto& client : clients) client.join();
    server.Shutdown();
  }
}

TEST(NetServerTest, PipelinedResponsesComeBackInRequestOrder) {
  auto index = MakeIndex();
  auto workload = MakeWorkload(500, /*seed=*/6);
  auto expected = ReferenceBytes(index, workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::ServerOptions options;
  options.max_batch = 16;  // force several dispatch rounds
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  // Fire the whole pipeline before reading anything.
  for (const Query& query : workload) {
    ASSERT_TRUE(client->SendQuery(query).ok());
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->ReadFrameBytes();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, expected[i]) << "response " << i;
  }
  server.Shutdown();
}

TEST(NetServerTest, OneSenderThreadAndOneReaderThreadShareAClient) {
  // The client's thread contract: one thread sends while another reads
  // (the open-loop load generators' shape). The receive buffer is the
  // reader's alone, so the answers must still be byte-equal and in order.
  auto index = MakeIndex();
  auto workload = MakeWorkload(2000, /*seed=*/31);
  auto expected = ReferenceBytes(index, workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client->set_read_timeout_ms(10000);

  std::atomic<size_t> sent{0};
  std::thread sender([&] {
    for (const Query& query : workload) {
      if (!client->SendQuery(query).ok()) break;
      sent.fetch_add(1, std::memory_order_relaxed);
    }
    (void)client->FinishSending();
  });
  std::vector<std::string> got;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->ReadFrameBytes();
    if (!response.ok()) break;
    got.push_back(std::move(*response));
  }
  sender.join();
  server.Shutdown();

  EXPECT_EQ(sent.load(), workload.size());
  ASSERT_EQ(got.size(), workload.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "response " << i;
  }
}

TEST(NetServerTest, ConcurrentConnectionsEachGetOrderedByteEqualAnswers) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::ServerOptions options;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 8;
  std::vector<std::thread> threads;
  // One atomic per client: vector<bool> packs bits, so concurrent writers
  // to neighboring indices would race on the shared word.
  std::array<std::atomic<bool>, kClients> passed{};
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto workload = MakeWorkload(100, /*seed=*/100 + c);
      auto expected = ReferenceBytes(index, workload);
      auto client = net::Client::Connect(server.port());
      if (!client.ok()) return;
      for (const Query& query : workload) {
        if (!client->SendQuery(query).ok()) return;
      }
      for (size_t i = 0; i < workload.size(); ++i) {
        auto response = client->ReadFrameBytes();
        if (!response.ok() || *response != expected[i]) return;
      }
      passed[c] = true;
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(passed[c]) << "client " << c;
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Typed failures over the wire

TEST(NetServerTest, InvalidQueriesGetTypedErrorFramesAndConnectionLivesOn) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  Query nan_query;
  nan_query.certainty = std::numeric_limits<double>::quiet_NaN();
  auto result = client->Call(nan_query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  Query out_of_range;
  out_of_range.record = kNumRecords + 5;
  result = client->Call(out_of_range);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);

  // An already-expired wire deadline answers DEADLINE_EXCEEDED.
  result = client->Call(Query{}, /*deadline_ms=*/-1.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // The connection survived all of it.
  result = client->Call(Query{});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  server.Shutdown();
}

TEST(NetServerTest, MalformedQueryPayloadKeepsResponseOrder) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  // good, bad-payload (valid frame, wrong size), good — pipelined. The
  // malformed one answers INVALID_ARGUMENT in position, not first or last.
  std::string stream;
  wire::EncodeQuery(Query{}, 0, &stream);
  wire::AppendFrame(wire::FrameType::kQuery, "abc", &stream);
  wire::EncodeQuery(Query{}, 0, &stream);
  ASSERT_TRUE(client->SendBytes(stream).ok());

  auto first = client->ReadResult();
  EXPECT_TRUE(first.ok());
  auto second = client->ReadResult();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  auto third = client->ReadResult();
  EXPECT_TRUE(third.ok());
  server.Shutdown();
}

TEST(NetServerTest, GarbageBytesGetOneErrorFrameThenEof) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->SendBytes("this is not a frame").ok());
  auto result = client->ReadResult();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  // The connection is poisoned: next read sees EOF.
  auto eof = client->ReadFrameBytes();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.Shutdown();
}

TEST(NetServerTest, InfoReportsCorpusIdentityAndMetrics) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->Call(Query{}).ok());
  auto info = client->Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->num_records, kNumRecords);
  EXPECT_EQ(info->num_matches, kNumMatches);
  EXPECT_EQ(info->checksum, index->Checksum());
  EXPECT_GE(info->metrics.queries, 1u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Graceful shutdown

TEST(NetServerTest, ShutdownDrainsEveryReceivedQuery) {
  auto index = MakeIndex();
  auto workload = MakeWorkload(200, /*seed=*/8);
  auto expected = ReferenceBytes(index, workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::ServerOptions options;
  options.max_batch = 8;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());
  auto sock = util::Socket::ConnectLoopback(server.port());
  ASSERT_TRUE(sock.ok());

  // The burst goes out in one raw send (no fault point on this thread)
  // while latency spikes wait at the first two fault points the loop
  // passes: its read of the burst, then its first answer. While the
  // second lasts, the loop holds every frame of the burst and has
  // answered none of it, so Shutdown lands with 200 whole frames read
  // and at most one quantum (8) answered: the drain contract — every
  // whole frame already read is answered — is what is under test, not a
  // read race.
  std::string burst;
  for (const Query& query : workload) wire::EncodeQuery(query, 0, &burst);
  util::FaultConfig stall;
  stall.latency_probability = 1.0;
  stall.latency_micros = 500000;
  stall.max_injections = 2;
  util::FaultInjector::Global().Arm(stall);
  ASSERT_EQ(::send(sock->fd(), burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().peak_in_buffer < burst.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server.stats().peak_in_buffer, burst.size());
  server.Shutdown();
  util::FaultInjector::Global().Disarm();

  // Every frame read was answered before the close, in order.
  for (size_t i = 0; i < workload.size(); ++i) {
    std::string response(expected[i].size(), '\0');
    ASSERT_TRUE(sock->ReadFull(response.data(), response.size(),
                               util::Deadline::AfterMillis(10000))
                    .ok())
        << "response " << i;
    EXPECT_EQ(response, expected[i]) << "response " << i;
  }
  char byte = 0;
  auto eof = sock->ReadSome(&byte, 1);
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_TRUE(eof->eof);
}

TEST(NetServerTest, ClientEofGetsAllAnswersThenClose) {
  auto index = MakeIndex();
  auto workload = MakeWorkload(50, /*seed=*/9);
  auto expected = ReferenceBytes(index, workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (const Query& query : workload) {
    ASSERT_TRUE(client->SendQuery(query).ok());
  }
  ASSERT_TRUE(client->FinishSending().ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->ReadFrameBytes();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, expected[i]);
  }
  auto eof = client->ReadFrameBytes();
  ASSERT_FALSE(eof.ok());
  server.Shutdown();
}

TEST(NetServerTest, HalfCloseWhileBatchesAreInFlightDeliversEveryAnswer) {
  auto index = MakeIndex();
  auto workload = MakeWorkload(120, /*seed=*/31);
  auto expected = ReferenceBytes(index, workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::ServerOptions options;
  options.max_batch = 4;  // the burst spans many batches, so the
                          // half-close lands while work is in flight
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  // The whole pipelined burst, then shutdown(SHUT_WR) before reading a
  // single response: the server observes EPOLLRDHUP/EOF while earlier
  // batches are still being dispatched, and frames that were buffered
  // but not yet decoded when the EOF arrived must still be answered.
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client->set_read_timeout_ms(10000);
  for (const Query& query : workload) {
    ASSERT_TRUE(client->SendQuery(query).ok());
  }
  ASSERT_TRUE(client->FinishSending().ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->ReadFrameBytes();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, expected[i]);
  }
  auto eof = client->ReadFrameBytes();
  ASSERT_FALSE(eof.ok());

  // A clean half-close is not an offense: no defense counter fires, and
  // the connection is reaped once the last answer is flushed.
  net::ServerStats stats = server.stats();
  for (int i = 0; i < 500 && stats.net.open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = server.stats();
  }
  EXPECT_EQ(stats.net.open_connections, 0u);
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.net.disconnects_idle, 0u);
  EXPECT_EQ(stats.net.disconnects_slowloris, 0u);
  EXPECT_EQ(stats.net.disconnects_oversize, 0u);
  EXPECT_EQ(stats.net.disconnects_rate_limited, 0u);
  EXPECT_EQ(stats.net.disconnects_write_stall, 0u);
  server.Shutdown();
}

TEST(NetServerTest, AbruptCloseWithBatchesInFlightIsReapedWithoutHarm) {
  auto index = MakeIndex();
  auto workload = MakeWorkload(60, /*seed=*/33);
  auto expected = ReferenceBytes(index, workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::ServerOptions options;
  options.max_batch = 4;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  // Three connections each blast a pipelined burst and vanish without
  // reading a byte (full close): the loop sees EPOLLHUP/EPOLLRDHUP, a
  // read reset, or a write failure on answers it is still producing, and
  // must reap the connection — including any batch that completes after
  // the socket died — without crashing or wedging.
  std::string burst;
  for (const Query& query : workload) {
    std::string frame;
    wire::EncodeQuery(query, 0, &frame);
    burst.append(frame);
  }
  for (int c = 0; c < 3; ++c) {
    auto sock = util::Socket::ConnectLoopback(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock->WriteFull(burst.data(), burst.size(),
                                util::Deadline::AfterMillis(5000))
                    .ok());
    sock->Close();
  }

  // The reaped connections must not harm anyone else: a well-behaved
  // client connected afterwards still gets byte-equal ordered answers.
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client->set_read_timeout_ms(10000);
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(client->SendQuery(workload[i]).ok());
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->ReadFrameBytes();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, expected[i]);
  }

  // Every vanished connection is eventually reaped; only the live client
  // remains, and nothing was booked as a framing offense.
  net::ServerStats stats = server.stats();
  for (int i = 0; i < 500 && stats.net.open_connections > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = server.stats();
  }
  EXPECT_EQ(stats.net.open_connections, 1u);
  EXPECT_EQ(stats.connections_accepted, 4u);
  EXPECT_EQ(stats.connections_closed, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Answering on the event loop: fairness and independence from other callers

TEST(NetServerTest, PipelinedFirehoseDoesNotStarveAnotherConnection) {
  auto index = MakeIndex();
  constexpr size_t kFirehose = 40000;
  constexpr size_t kProbes = 9;
  auto workload = MakeWorkload(kFirehose, /*seed=*/41);
  auto expected = ReferenceBytes(index, workload);
  auto probe_workload = MakeWorkload(kProbes, /*seed=*/42);
  auto probe_expected = ReferenceBytes(index, probe_workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto probe = net::Client::Connect(server.port());
  ASSERT_TRUE(probe.ok());
  probe->set_read_timeout_ms(10000);

  // The firehose pipelines its whole burst, then reads every answer on
  // its own thread.
  std::string burst;
  for (const Query& query : workload) wire::EncodeQuery(query, 0, &burst);
  std::atomic<size_t> firehose_read{0};
  std::atomic<size_t> firehose_mismatches{0};
  std::atomic<bool> firehose_done{false};
  std::thread firehose([&] {
    auto client = net::Client::Connect(server.port());
    if (client.ok()) {
      client->set_read_timeout_ms(30000);
      if (client->SendBytes(burst).ok()) {
        for (size_t i = 0; i < kFirehose; ++i) {
          auto response = client->ReadFrameBytes();
          if (!response.ok()) break;
          if (*response != expected[i]) firehose_mismatches.fetch_add(1);
          firehose_read.fetch_add(1);
        }
      }
    }
    firehose_done.store(true);
  });

  // Once the server is well into the firehose, the probe asks one query
  // at a time. Each loop turn answers at most max_batch (64) of the
  // firehose's frames, so between sampling the answer count and reading
  // the probe's answer a fair loop answers a few quanta of the firehose.
  // The bound leaves room for this thread being descheduled, yet sits
  // well under one turn of a loop that answers all the firehose frames
  // buffered in its input at once (~7K). The median over the probes
  // keeps one descheduling from failing the test.
  constexpr uint64_t kFairGap = 1500;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().queries_dispatched < 1000 && !firehose_done.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  bool firehose_under_way = server.stats().queries_dispatched >= 1000 &&
                            !firehose_done.load();
  EXPECT_TRUE(firehose_under_way)
      << "the firehose never got going (or ended) before the probes";
  std::vector<uint64_t> gaps;
  for (size_t p = 0; firehose_under_way && p < kProbes; ++p) {
    uint64_t before = server.stats().queries_dispatched;
    if (!probe->SendQuery(probe_workload[p]).ok()) break;
    auto answer = probe->ReadFrameBytes();
    uint64_t after = server.stats().queries_dispatched;
    if (!answer.ok()) {
      ADD_FAILURE() << answer.status().ToString();
      break;
    }
    EXPECT_EQ(*answer, probe_expected[p]);
    gaps.push_back(after - before - 1);  // the probe is one of them
  }
  // Every probe was answered while the firehose still had answers
  // outstanding, so every gap above was measured against a live firehose
  // (a loop that drains it would leave the later probes gaps of 0).
  EXPECT_LT(server.stats().queries_dispatched, kFirehose + kProbes)
      << "the firehose was drained before the probes got their answers";
  EXPECT_EQ(gaps.size(), firehose_under_way ? kProbes : 0u);
  if (!gaps.empty()) {
    std::sort(gaps.begin(), gaps.end());
    uint64_t median = gaps[gaps.size() / 2];
    EXPECT_LE(median, kFairGap)
        << "firehose answers between a probe's send and its answer: min "
        << gaps.front() << ", median " << median << ", max " << gaps.back();
  }

  firehose.join();
  EXPECT_EQ(firehose_read.load(), kFirehose);
  EXPECT_EQ(firehose_mismatches.load(), 0u);
  // Backpressure bounds the input buffer: reads pause while whole frames
  // wait, so `in` never holds more than one capped wakeup's reads (256
  // KiB) plus the last 64 KiB chunk, though the burst is ~1.5 MB.
  EXPECT_LT(server.stats().peak_in_buffer, (256u << 10) + (64u << 10));
  server.Shutdown();
}

/// Arms `config` and starts an in-process QueryRecord on its own thread;
/// returns once that query is stalled in compute (the injector has fired
/// its one latency spike at serve.service.compute). `ok` receives whether
/// it was eventually answered OK.
std::thread StartStalledInProcessQuery(ResolutionService& service,
                                       const util::FaultConfig& config,
                                       std::atomic<bool>* ok) {
  auto& injector = util::FaultInjector::Global();
  injector.Arm(config);
  std::thread caller([&service, ok] {
    Query held;
    held.record = 3;
    held.certainty = 0.5;
    ok->store(service.QueryRecord(held).ok());
  });
  while (injector.injections(util::FaultPoint::kServiceCompute) == 0) {
    std::this_thread::yield();
  }
  return caller;
}

/// A fault config whose single injection is a `micros` latency spike, so
/// the first query computed after Arm stalls at serve.service.compute.
util::FaultConfig StallFirstCompute(uint32_t micros) {
  util::FaultConfig config;
  config.latency_probability = 1.0;
  config.latency_micros = micros;
  config.max_injections = 1;
  return config;
}

TEST(NetServerTest, WireQueryIsAnsweredWhileAnInProcessQueryStalls) {
  auto index = MakeIndex();
  Query wire_query;
  wire_query.record = 7;
  wire_query.certainty = 0.5;
  auto expected = ReferenceBytes(index, {wire_query});
  auto service = std::make_shared<ResolutionService>(index);
  util::FaultConfig stall = StallFirstCompute(2000000);

  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());
  auto query_client = net::Client::Connect(server.port());
  ASSERT_TRUE(query_client.ok());
  auto info_client = net::Client::Connect(server.port());
  ASSERT_TRUE(info_client.ok());

  // An in-process caller stalls in compute for two seconds.
  std::atomic<bool> held_ok{false};
  std::thread in_process =
      StartStalledInProcessQuery(*service, stall, &held_ok);

  // The loop shares the service with the stalled caller but never waits
  // on it: a wire query and an Info request are both answered while the
  // stall lasts.
  // stall lasts. (EXPECT, not ASSERT: the caller thread must be joined.)
  EXPECT_TRUE(query_client->SendQuery(wire_query).ok());
  auto answer =
      query_client->ReadFrameBytes(util::Deadline::AfterMillis(1500));
  auto info = info_client->Info(util::Deadline::AfterMillis(1500));
  // Both answers came back while the in-process query was still stalled.
  EXPECT_EQ(service->metrics().pinned_readers, 1u);
  in_process.join();
  util::FaultInjector::Global().Disarm();

  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(*answer, expected[0]);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(held_ok.load());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Load generator: record/replay determinism

TEST(NetLoadGenTest, RecordThenReplayIsHashIdentical) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::ServerOptions server_options;
  net::Server server(service, server_options);
  ASSERT_TRUE(server.Start().ok());

  std::string capture = TempPath("loadgen_capture.yvq");
  net::LoadGenOptions options;
  options.port = server.port();
  options.connections = 3;
  options.num_queries = 400;
  options.hot_set = 64;
  options.entity_fraction = 0.25;
  options.record_path = capture;
  auto recorded = net::RunLoadGen(options);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_EQ(recorded->queries_sent, 400u);
  EXPECT_EQ(recorded->ok, 400u);

  net::LoadGenOptions replay_options;
  replay_options.port = server.port();
  replay_options.connections = 3;
  replay_options.replay_path = capture;
  auto replay1 = net::RunLoadGen(replay_options);
  ASSERT_TRUE(replay1.ok()) << replay1.status().ToString();
  auto replay2 = net::RunLoadGen(replay_options);
  ASSERT_TRUE(replay2.ok());

  // The recorded run and both replays got byte-identical answers —
  // scheduling has changed in between, the bytes have not.
  EXPECT_EQ(replay1->response_hash, recorded->response_hash);
  EXPECT_EQ(replay2->response_hash, recorded->response_hash);
  EXPECT_EQ(replay1->queries_sent, 400u);

  // Server-side metrics travelled back over the wire.
  EXPECT_GE(replay2->server_metrics.queries, 1200u);
  server.Shutdown();
  std::remove(capture.c_str());
}

TEST(NetLoadGenTest, OpenLoopPacingAnswersEverything) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());

  net::LoadGenOptions options;
  options.port = server.port();
  options.connections = 2;
  options.num_queries = 200;
  options.qps = 20000;  // paced, but fast enough to finish quickly
  auto report = net::RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->queries_sent, 200u);
  EXPECT_EQ(report->ok + report->errors, 200u);
  EXPECT_GT(report->qps_achieved, 0.0);
  EXPECT_GT(report->LatencyPercentileMs(0.5), 0.0);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Chaos at the socket: faults fragment or fail, never corrupt

// ---------------------------------------------------------------------------
// Live ingest over the wire (DESIGN.md §13)

data::Record MakeWireReport(uint64_t book_id, const std::string& first,
                            const std::string& last) {
  data::Record r;
  r.book_id = book_id;
  r.source_id = 1;
  r.Add(data::AttributeId::kFirstName, first);
  r.Add(data::AttributeId::kLastName, last);
  r.Add(data::AttributeId::kBirthCity, "vilna");
  return r;
}

// A live server with a tiny real corpus behind it, so appended
// near-duplicates actually match.
struct LiveServer {
  std::shared_ptr<ResolutionService> service;
  std::shared_ptr<LiveIndexBuilder> builder;
  std::unique_ptr<net::Server> server;

  explicit LiveServer(net::ServerOptions options = {}) {
    data::Dataset seed;
    seed.Add(MakeWireReport(1, "chaim", "levi"));
    seed.Add(MakeWireReport(2, "chaim", "levi"));
    seed.Add(MakeWireReport(3, "sara", "cohen"));
    auto index = std::make_shared<const ResolutionIndex>(
        core::RankedResolution(), seed.size());
    service = std::make_shared<ResolutionService>(index);
    auto resolver = std::make_unique<core::IncrementalResolver>(
        seed, core::RankedResolution(), ml::AdTree());
    builder = std::make_shared<LiveIndexBuilder>(service,
                                                 std::move(resolver));
    server = std::make_unique<net::Server>(service, options, builder);
  }
};

TEST(NetLiveIngestTest, AppendedRecordBecomesQueryableOverTheWire) {
  LiveServer live;
  ASSERT_TRUE(live.server->Start().ok());
  auto client = net::Client::Connect(live.server->port());
  ASSERT_TRUE(client.ok());

  auto ack = client->Append(MakeWireReport(4, "chaim", "levi"));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->record_idx, 3u);
  EXPECT_GE(ack->generation, 1u);

  // The ack is acceptance; visibility is the published generation. Wait
  // server-side, then confirm over the wire via Info.
  ASSERT_TRUE(live.builder->WaitForIdle().ok());
  auto info = client->Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_records, 4u);
  // The ack stamps the generation at acceptance time; a fast builder can
  // publish before the stamp is read, so equality is legitimate here.
  // Visibility is proven by num_records above, not by this comparison.
  EXPECT_GE(info->metrics.generation, ack->generation);
  EXPECT_GE(info->metrics.publishes, 1u);

  // The new record answers queries like any other — and matches the
  // near-duplicates it was seeded next to.
  Query query;
  query.record = static_cast<data::RecordIdx>(ack->record_idx);
  auto result = client->Call(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->generation, 2u);
  EXPECT_FALSE(result->matches.empty());
  live.server->Shutdown();
  EXPECT_EQ(live.server->stats().appends_accepted, 1u);
}

TEST(NetLiveIngestTest, AppendWithoutBuilderIsTypedUnavailable) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);  // no builder: live ingest disabled
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  auto ack = client->Append(MakeWireReport(9, "a", "b"));
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kUnavailable);

  // The connection lives on: a query still answers.
  EXPECT_TRUE(client->Call(Query{}).ok());
  server.Shutdown();
  EXPECT_EQ(server.stats().appends_accepted, 0u);
}

TEST(NetLiveIngestTest, AppendsAndQueriesInterleaveInOrder) {
  // Pipelining contract extended to appends: one response per request
  // frame, in request order, across mixed query/append/info traffic.
  LiveServer live;
  ASSERT_TRUE(live.server->Start().ok());
  auto client = net::Client::Connect(live.server->port());
  ASSERT_TRUE(client.ok());

  Query query;
  query.record = 0;
  ASSERT_TRUE(client->SendQuery(query).ok());
  ASSERT_TRUE(client->SendAppend(MakeWireReport(4, "dvora", "katz")).ok());
  ASSERT_TRUE(client->SendQuery(query).ok());
  ASSERT_TRUE(client->SendAppend(MakeWireReport(5, "dvora", "katz")).ok());

  auto r1 = client->ReadResult();
  ASSERT_TRUE(r1.ok());
  auto a1 = client->ReadAppendAck();
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->record_idx, 3u);
  auto r2 = client->ReadResult();
  ASSERT_TRUE(r2.ok());
  auto a2 = client->ReadAppendAck();
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->record_idx, 4u);

  live.server->Shutdown();
  EXPECT_EQ(live.server->stats().appends_accepted, 2u);
}

TEST(NetLiveIngestTest, GenerationIsMonotonicPerConnection) {
  // While a client interleaves appends with queries, the generation its
  // answers report never moves backwards — the reader-side monotonicity
  // half of the swap contract, observed over the wire.
  LiveServer live;
  ASSERT_TRUE(live.server->Start().ok());
  auto client = net::Client::Connect(live.server->port());
  ASSERT_TRUE(client.ok());

  uint64_t last_generation = 0;
  Query query;
  query.record = 1;
  for (uint64_t i = 0; i < 16; ++i) {
    auto ack = client->Append(
        MakeWireReport(100 + i, "gen" + std::to_string(i), "x"));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    auto result = client->Call(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(result->generation, last_generation)
        << "generation moved backwards on one connection";
    last_generation = result->generation;
  }
  ASSERT_TRUE(live.builder->WaitForIdle().ok());
  auto info = client->Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_records, 3u + 16u);
  // The Info snapshot pins the index to read the corpus fields, so the
  // gauge it reports includes its own pin — but never anyone else's on
  // an otherwise idle server.
  EXPECT_LE(info->metrics.pinned_readers, 1u)
      << "idle server still holds pins";
  live.server->Shutdown();
}

TEST(NetLiveIngestTest, NonDurableAcksSaySo) {
  LiveServer live;  // no WAL behind the builder
  ASSERT_TRUE(live.server->Start().ok());
  auto client = net::Client::Connect(live.server->port());
  ASSERT_TRUE(client.ok());
  auto ack = client->Append(MakeWireReport(4, "chaim", "levi"));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_FALSE(ack->durable);
  EXPECT_EQ(ack->wal_sequence, 0u);
  live.server->Shutdown();
}

TEST(NetLiveIngestTest, DurableAcksCarryWalSequenceAndSurviveRestart) {
  // An empty WAL directory for this run.
  std::string dir = TempPath("net_wal_dir");
  for (uint64_t s = 1; s <= 8; ++s) {
    char name[40];
    std::snprintf(name, sizeof(name), "/wal-%016llx.yvw",
                  static_cast<unsigned long long>(s));
    std::remove((dir + name).c_str());
  }
  std::vector<WalRecoveredRecord> recovered;
  auto wal = WriteAheadLog::Open(dir, WalOptions{}, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(recovered.empty());

  {
    data::Dataset seed;
    seed.Add(MakeWireReport(1, "chaim", "levi"));
    seed.Add(MakeWireReport(2, "chaim", "levi"));
    seed.Add(MakeWireReport(3, "sara", "cohen"));
    auto index = std::make_shared<const ResolutionIndex>(
        core::RankedResolution(), seed.size());
    auto service = std::make_shared<ResolutionService>(index);
    auto resolver = std::make_unique<core::IncrementalResolver>(
        seed, core::RankedResolution(), ml::AdTree());
    IngestOptions ingest;
    ingest.wal = wal->get();
    ingest.wal_base_records = seed.size();
    auto builder = std::make_shared<LiveIndexBuilder>(
        service, std::move(resolver), ingest);
    net::Server server(service, {}, builder);
    ASSERT_TRUE(server.Start().ok());
    auto client = net::Client::Connect(server.port());
    ASSERT_TRUE(client.ok());

    // An ack from a WAL-backed server means durable: the record is
    // fsync'd under the reported sequence before the ack is sent.
    for (uint64_t i = 0; i < 3; ++i) {
      auto ack = client->Append(
          MakeWireReport(10 + i, std::string("w") + std::to_string(i), "al"));
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      EXPECT_EQ(ack->record_idx, 3 + i);
      EXPECT_TRUE(ack->durable);
      EXPECT_EQ(ack->wal_sequence, i + 1);
      EXPECT_LE(ack->wal_sequence, (*wal)->durable_sequence())
          << "acked before durable";
    }
    server.Shutdown();
    builder->Stop();
  }
  wal->reset();  // drop the fd; the bytes must carry everything

  auto reopened = WriteAheadLog::Open(dir, WalOptions{}, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), 3u);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, i + 1);
    EXPECT_EQ(recovered[i].record.book_id, 10 + i);
  }
}

TEST(NetLiveIngestTest, MalformedAppendPayloadIsTypedAndOrdered) {
  LiveServer live;
  ASSERT_TRUE(live.server->Start().ok());
  auto client = net::Client::Connect(live.server->port());
  ASSERT_TRUE(client.ok());

  // Hand-build an append frame whose payload is garbage: the server must
  // answer INVALID_ARGUMENT in order and keep the connection alive.
  std::string bad;
  wire::AppendFrame(wire::FrameType::kAppendRequest, "garbage", &bad);
  Query query;
  query.record = 0;
  ASSERT_TRUE(client->SendQuery(query).ok());
  ASSERT_TRUE(client->SendBytes(bad).ok());
  ASSERT_TRUE(client->SendQuery(query).ok());

  ASSERT_TRUE(client->ReadResult().ok());
  auto err = client->ReadAppendAck();
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->ReadResult().ok()) << "connection died after a "
                                            "malformed append";
  live.server->Shutdown();
}

TEST(NetChaosTest, InjectedSocketFaultsNeverCorruptAnswers) {
  auto index = MakeIndex();
  auto workload = MakeWorkload(400, /*seed=*/12);
  auto expected = ReferenceBytes(index, workload);

  auto service = std::make_shared<ResolutionService>(index);
  net::ServerOptions server_options;
  net::Server server(service, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  // Latency spikes and short reads at net.socket.read / net.socket.write:
  // they fragment frames across partial reads and short writes, which must
  // be invisible in the response bytes. (No injected hard errors here —
  // those close connections by design and are covered below.)
  util::FaultConfig config;
  config.seed = 99;
  config.latency_probability = 0.02;
  config.latency_micros = 200;
  config.short_read_probability = 0.3;
  util::FaultInjector::Global().Arm(config);

  // The injector is global, so besides fragmenting the socket it also
  // fires inside the service (serve.service.compute): a query may
  // legitimately answer with a typed kError frame. The contract under
  // chaos: every kResult frame is byte-equal to the reference, every
  // kError frame carries an allowed injected code.
  size_t mismatches = 0;
  size_t ok_frames = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!client->SendQuery(workload[i]).ok()) break;
    auto response = client->ReadFrameBytes(util::Deadline::AfterMillis(5000));
    if (!response.ok()) break;
    if (static_cast<uint8_t>((*response)[3]) ==
        static_cast<uint8_t>(wire::FrameType::kError)) {
      wire::Frame frame;
      ASSERT_TRUE(wire::ExtractFrame(*response, &frame).ok());
      auto decoded = wire::DecodeResult(frame);
      ASSERT_FALSE(decoded.ok());
      StatusCode code = decoded.status().code();
      EXPECT_TRUE(code == StatusCode::kUnavailable ||
                  code == StatusCode::kDataLoss)
          << decoded.status().ToString();
      continue;
    }
    ++ok_frames;
    if (*response != expected[i]) ++mismatches;
  }
  auto& injector = util::FaultInjector::Global();
  uint64_t read_hits = injector.hits(util::FaultPoint::kSocketRead);
  uint64_t write_hits = injector.hits(util::FaultPoint::kSocketWrite);
  util::FaultInjector::Global().Disarm();
  server.Shutdown();

  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(ok_frames, 0u);
  // The chaos actually reached the socket layer on both sides.
  EXPECT_GT(read_hits, 0u);
  EXPECT_GT(write_hits, 0u);
}

TEST(NetChaosTest, InjectedIoErrorsCloseConnectionsNeverCrash) {
  auto index = MakeIndex();
  auto service = std::make_shared<ResolutionService>(index);
  net::Server server(service);
  ASSERT_TRUE(server.Start().ok());

  util::FaultConfig config;
  config.seed = 7;
  config.io_error_probability = 0.05;
  config.short_read_probability = 0.2;
  util::FaultInjector::Global().Arm(config);

  // Hammer the server with short pipelines over fresh connections; every
  // response is either a valid frame or a typed failure. Reads carry a
  // deadline: a client whose own send was cut short mid-frame would
  // otherwise wait forever for an answer to a query that never fully
  // arrived (the server, correctly, holds the partial frame).
  auto workload = MakeWorkload(20, /*seed=*/13);
  for (int round = 0; round < 30; ++round) {
    auto client = net::Client::Connect(server.port());
    if (!client.ok()) continue;
    size_t sent = 0;
    for (const Query& query : workload) {
      if (!client->SendQuery(query).ok()) break;
      ++sent;
    }
    for (size_t i = 0; i < sent; ++i) {
      auto response =
          client->ReadResult(util::Deadline::AfterMillis(2000));
      if (!response.ok()) {
        // Injected faults surface as UNAVAILABLE (error or peer close),
        // DATA_LOSS (torn frame / injected short read in the service),
        // or DEADLINE_EXCEEDED (this read's own bound, above).
        StatusCode code = response.status().code();
        EXPECT_TRUE(code == StatusCode::kUnavailable ||
                    code == StatusCode::kDataLoss ||
                    code == StatusCode::kDeadlineExceeded)
            << response.status().ToString();
        break;
      }
    }
  }
  util::FaultInjector::Global().Disarm();
  server.Shutdown();
  // The server survived and kept its books.
  EXPECT_GT(server.stats().connections_accepted, 0u);
}

}  // namespace
}  // namespace yver::serve
