// Tests of the connection-lifecycle defense layer (DESIGN.md §15): the
// deadline wheel that drives it, each typed disconnect reason (idle,
// slow-loris, oversize, rate-limited, write-stall) observed end-to-end
// through the v4 kInfo gauges, bounded buffer memory against a client
// that never reads, the client-side read timeout against a silent
// server, and the chaos test: a well-behaved query fleet stays
// byte-equal to the serial baseline — and never loses a connection —
// while adversaries attack the same server.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/ranked_resolution.h"
#include "data/record.h"
#include "serve/net/adversary.h"
#include "serve/net/client.h"
#include "serve/net/deadline_wheel.h"
#include "serve/net/server.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "serve/wire.h"
#include "util/deadline.h"
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

/// The serial baseline: the in-process answers pushed through the same
/// codec the wire uses.
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

// ---------------------------------------------------------------------------
// DeadlineWheel: the timer structure under every defense timeout

using Clock = std::chrono::steady_clock;

TEST(DeadlineWheelTest, ExpiresInDeadlineOrderAcrossSlots) {
  net::DeadlineWheel wheel(std::chrono::milliseconds(10), 8);
  Clock::time_point base = Clock::now();
  wheel.Schedule(1, base + std::chrono::milliseconds(25));
  wheel.Schedule(2, base + std::chrono::milliseconds(5));
  wheel.Schedule(3, base + std::chrono::milliseconds(45));
  EXPECT_EQ(wheel.size(), 3u);

  auto fired = wheel.ExpireUntil(base + std::chrono::milliseconds(30));
  std::sort(fired.begin(), fired.end());
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(wheel.size(), 1u);

  fired = wheel.ExpireUntil(base + std::chrono::milliseconds(60));
  EXPECT_EQ(fired, (std::vector<uint64_t>{3}));
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(DeadlineWheelTest, RescheduleReplacesTheOldDeadline) {
  net::DeadlineWheel wheel(std::chrono::milliseconds(10), 8);
  Clock::time_point base = Clock::now();
  wheel.Schedule(7, base + std::chrono::milliseconds(500));
  wheel.Schedule(7, base + std::chrono::milliseconds(10));  // moved earlier
  auto fired = wheel.ExpireUntil(base + std::chrono::milliseconds(20));
  EXPECT_EQ(fired, (std::vector<uint64_t>{7}));
  // The stale far-future entry must not fire again.
  fired = wheel.ExpireUntil(base + std::chrono::milliseconds(600));
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(DeadlineWheelTest, CancelPreventsFiring) {
  net::DeadlineWheel wheel(std::chrono::milliseconds(10), 8);
  Clock::time_point base = Clock::now();
  wheel.Schedule(4, base + std::chrono::milliseconds(15));
  wheel.Cancel(4);
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_TRUE(wheel.ExpireUntil(base + std::chrono::seconds(1)).empty());
}

TEST(DeadlineWheelTest, FutureRoundEntriesDoNotFireEarly) {
  // 8 slots x 10 ms = an 80 ms round; a 250 ms deadline shares a slot
  // with near-term ticks and must survive the earlier passes.
  net::DeadlineWheel wheel(std::chrono::milliseconds(10), 8);
  Clock::time_point base = Clock::now();
  wheel.Schedule(9, base + std::chrono::milliseconds(250));
  EXPECT_TRUE(
      wheel.ExpireUntil(base + std::chrono::milliseconds(100)).empty());
  EXPECT_TRUE(
      wheel.ExpireUntil(base + std::chrono::milliseconds(200)).empty());
  auto fired = wheel.ExpireUntil(base + std::chrono::milliseconds(260));
  EXPECT_EQ(fired, (std::vector<uint64_t>{9}));
}

TEST(DeadlineWheelTest, MillisUntilNextIsConservative) {
  net::DeadlineWheel wheel(std::chrono::milliseconds(10), 8);
  Clock::time_point base = Clock::now();
  EXPECT_EQ(wheel.MillisUntilNext(base), -1);  // empty: sleep forever
  wheel.Schedule(1, base + std::chrono::milliseconds(35));
  int ms = wheel.MillisUntilNext(base);
  ASSERT_GE(ms, 1);   // never a busy-loop zero while nothing is due
  EXPECT_LE(ms, 35);  // never oversleeps past the deadline
  // Once due, the wait collapses to zero.
  EXPECT_EQ(wheel.MillisUntilNext(base + std::chrono::milliseconds(40)), 0);
}

// ---------------------------------------------------------------------------
// Targeted defenses, each observed over the wire through the v4 gauges

net::ServerOptions FastTickOptions() {
  net::ServerOptions options;
  options.timer_tick_ms = 5;
  return options;
}

TEST(HostileNetTest, IdleConnectionIsDisconnectedAndCounted) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::ServerOptions options = FastTickOptions();
  options.idle_timeout_ms = 100;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto idle = net::Client::Connect(server.port());
  ASSERT_TRUE(idle.ok());
  // One served round trip first: the timeout must measure idleness from
  // the last activity, not from connect.
  auto workload = MakeWorkload(1, 3);
  auto answer = idle->Call(workload[0]);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  // Then silence: the server must hang up on its own.
  auto next = idle->ReadFrameBytes(util::Deadline::AfterMillis(5000));
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kUnavailable)
      << next.status().ToString();

  auto probe = net::Client::Connect(server.port());
  ASSERT_TRUE(probe.ok());
  auto info = probe->Info(util::Deadline::AfterMillis(5000));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->net.disconnects_idle, 1u);
  EXPECT_EQ(info->net.open_connections, 1u);  // just the probe itself
  server.Shutdown();
  EXPECT_EQ(server.stats().disconnects_idle, 1u);
}

TEST(HostileNetTest, SlowlorisIsDisconnectedWithTypedReason) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::ServerOptions options = FastTickOptions();
  options.min_read_bytes_per_sec = 50;
  options.progress_window_ms = 200;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  net::AdversaryOptions attack;
  attack.port = server.port();
  attack.mode = net::AdversaryMode::kSlowloris;
  attack.connections = 2;
  attack.duration_ms = 5000;          // far beyond the expected kill time
  attack.write_interval_ms = 100;     // ~10 B/s, well under 50
  auto report = net::RunAdversary(attack);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->connections_opened, 2u);
  EXPECT_EQ(report->server_closed, 2u)
      << net::FormatAdversaryReport(attack.mode, *report);

  auto probe = net::Client::Connect(server.port());
  ASSERT_TRUE(probe.ok());
  auto info = probe->Info(util::Deadline::AfterMillis(5000));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->net.disconnects_slowloris, 2u);
  server.Shutdown();
}

TEST(HostileNetTest, DribblePacedAboveMinRateIsServedNotDisconnected) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::ServerOptions options = FastTickOptions();
  options.min_read_bytes_per_sec = 50;
  options.progress_window_ms = 200;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  // A genuinely slow but live client: one byte every 2 ms is ~500 B/s,
  // an order of magnitude above the minimum — it must be served.
  net::AdversaryOptions attack;
  attack.port = server.port();
  attack.mode = net::AdversaryMode::kDribble;
  attack.connections = 2;
  attack.duration_ms = 1500;
  attack.write_interval_ms = 2;
  auto report = net::RunAdversary(attack);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->server_closed, 0u)
      << net::FormatAdversaryReport(attack.mode, *report);
  EXPECT_GT(report->responses_read, 0u);
  EXPECT_EQ(report->responses_read, report->ok_responses);
  net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.disconnects_slowloris, 0u);
  server.Shutdown();
}

TEST(HostileNetTest, RateLimitedQueriesGetTypedErrorsInOrder) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::ServerOptions options = FastTickOptions();
  options.conn_rate_limit = 5;
  options.conn_rate_burst = 1;
  options.rate_limit_disconnect_streak = 0;  // typed answers, never drop
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto workload = MakeWorkload(10, 11);
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (const Query& query : workload) {
    ASSERT_TRUE(client->SendQuery(query).ok());
  }
  size_t ok = 0;
  size_t limited = 0;
  bool first_was_ok = false;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto result = client->ReadResult(util::Deadline::AfterMillis(5000));
    if (result.ok()) {
      ++ok;
      if (i == 0) first_was_ok = true;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << result.status().ToString();
      ++limited;
    }
  }
  // The bucket admits the first query instantly; a 10-query burst at 5/s
  // must see most of the rest limited — every one with a typed error
  // frame, in request order, on a connection that stays up.
  EXPECT_TRUE(first_was_ok);
  EXPECT_GE(limited, 5u);
  EXPECT_EQ(ok + limited, workload.size());
  auto info = client->Info(util::Deadline::AfterMillis(5000));
  ASSERT_TRUE(info.ok()) << info.status().ToString();  // info is exempt
  EXPECT_EQ(info->net.rate_limited_frames, limited);
  // The rate limiter is the query path's only shedder, so the service
  // metrics' shed count reports the same frames.
  EXPECT_EQ(info->metrics.shed, limited);
  EXPECT_EQ(info->net.disconnects_rate_limited, 0u);
  server.Shutdown();
}

TEST(HostileNetTest, SustainedRateFloodIsDisconnected) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::ServerOptions options = FastTickOptions();
  options.conn_rate_limit = 2;
  options.conn_rate_burst = 1;
  options.rate_limit_disconnect_streak = 3;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto workload = MakeWorkload(30, 13);
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (const Query& query : workload) {
    util::Status sent = client->SendQuery(query);
    if (!sent.ok()) break;  // server may already have hung up
  }
  // Every read from here on ends in the server's close; drain until EOF.
  bool saw_eof = false;
  for (size_t i = 0; i < workload.size() + 1; ++i) {
    auto result =
        client->ReadFrameBytes(util::Deadline::AfterMillis(5000));
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
          << result.status().ToString();
      saw_eof = true;
      break;
    }
  }
  EXPECT_TRUE(saw_eof);

  auto probe = net::Client::Connect(server.port());
  ASSERT_TRUE(probe.ok());
  auto info = probe->Info(util::Deadline::AfterMillis(5000));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->net.disconnects_rate_limited, 1u);
  EXPECT_GE(info->net.rate_limited_frames, 3u);
  server.Shutdown();
}

TEST(HostileNetTest, OversizeDeclaredFrameIsRejectedBeforeBuffering) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::ServerOptions options = FastTickOptions();
  options.max_frame_payload = 1024;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  // A valid envelope declaring 1 MiB — legal for the protocol, far over
  // this server's cap. Only the 8 header bytes ever go on the wire.
  constexpr uint32_t kDeclared = 1u << 20;
  std::string header;
  header.push_back(0x59);
  header.push_back(0x57);
  header.push_back(static_cast<char>(wire::kVersion));
  header.push_back(static_cast<char>(wire::FrameType::kQuery));
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((kDeclared >> (8 * i)) & 0xff));
  }
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendBytes(header).ok());
  // The rejection must not wait for the declared payload: the typed
  // error frame answers the bare header.
  auto result = client->ReadResult(util::Deadline::AfterMillis(5000));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  auto eof = client->ReadFrameBytes(util::Deadline::AfterMillis(5000));
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);

  net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.disconnects_oversize, 1u);
  EXPECT_LT(stats.peak_in_buffer, 1024u)
      << "the phantom payload must never be buffered";
  server.Shutdown();
}

TEST(HostileNetTest, NeverReadClientIsBoundedAndDropped) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::ServerOptions options = FastTickOptions();
  options.max_out_buffer = 64u << 10;
  // Without the clamp the kernel send buffer auto-tunes to megabytes and
  // absorbs responses the dead reader never drains, so the userspace
  // backlog the cap judges would stay deceptively small.
  options.so_sndbuf = 64u << 10;
  options.write_stall_timeout_ms = 300;
  net::Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  net::AdversaryOptions attack;
  attack.port = server.port();
  attack.mode = net::AdversaryMode::kNeverRead;
  attack.connections = 2;
  attack.duration_ms = 10000;  // the server must end it long before this
  auto report = net::RunAdversary(attack);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->server_closed, 2u)
      << net::FormatAdversaryReport(attack.mode, *report);

  net::ServerStats stats = server.stats();
  EXPECT_GE(stats.disconnects_write_stall, 2u);
  // The memory bound: the response backlog never ran away past the cap
  // by more than one in-flight batch's worth of responses.
  EXPECT_LE(stats.peak_out_buffer, (64u << 10) + (64u << 10))
      << "out buffer must stay near the configured cap";
  server.Shutdown();
}

TEST(HostileNetTest, GarbageGetsOneTypedErrorThenEof) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::Server server(service, FastTickOptions());
  ASSERT_TRUE(server.Start().ok());

  net::AdversaryOptions attack;
  attack.port = server.port();
  attack.mode = net::AdversaryMode::kGarbage;
  attack.connections = 3;
  attack.duration_ms = 5000;
  auto report = net::RunAdversary(attack);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->error_responses, 3u)
      << net::FormatAdversaryReport(attack.mode, *report);
  EXPECT_EQ(report->server_closed, 3u);
  EXPECT_GE(server.stats().protocol_errors, 3u);
  server.Shutdown();
}

TEST(HostileNetTest, HalfCloseDeliversEveryAnswerThenCleanEof) {
  auto service = std::make_shared<ResolutionService>(MakeIndex());
  net::Server server(service, FastTickOptions());
  ASSERT_TRUE(server.Start().ok());

  net::AdversaryOptions attack;
  attack.port = server.port();
  attack.mode = net::AdversaryMode::kHalfClose;
  attack.connections = 3;
  attack.duration_ms = 10000;
  auto report = net::RunAdversary(attack);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 16 queries per connection, every one answered, then clean EOF.
  EXPECT_EQ(report->frames_sent, 3u * 16u);
  EXPECT_EQ(report->responses_read, 3u * 16u)
      << net::FormatAdversaryReport(attack.mode, *report);
  EXPECT_EQ(report->ok_responses, 3u * 16u);
  EXPECT_EQ(report->clean_eofs, 3u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Satellite: the client read timeout against a server that never answers

TEST(HostileNetTest, ClientReadTimesOutAgainstSilentServer) {
  // A listener that accepts into the kernel backlog and never answers.
  auto listener = util::Socket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto port = listener->LocalPort();
  ASSERT_TRUE(port.ok());

  auto client = net::Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  client->set_read_timeout_ms(100);
  auto workload = MakeWorkload(1, 19);
  ASSERT_TRUE(client->SendQuery(workload[0]).ok());
  auto start = Clock::now();
  auto result = client->ReadResult();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5))
      << "the timeout, not a hang";
  // An explicit per-call deadline still wins over the knob.
  auto longer = client->ReadFrameBytes(util::Deadline::AfterMillis(1));
  ASSERT_FALSE(longer.ok());
  EXPECT_EQ(longer.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// The chaos test: byte-equality and liveness under simultaneous attack

TEST(HostileNetTest, FleetStaysByteEqualToSerialBaselineUnderAttack) {
  auto index = MakeIndex();

  for (size_t threads : {1u, 2u, 8u}) {
    auto service = std::make_shared<ResolutionService>(index);
    net::ServerOptions server_options = FastTickOptions();
    server_options.max_batch = 16;
    // Defenses armed the way a hostile deployment would run them — except
    // rate limits, which would throttle the legitimate fleet too.
    server_options.min_read_bytes_per_sec = 50;
    server_options.progress_window_ms = 300;
    server_options.max_out_buffer = 256u << 10;
    server_options.write_stall_timeout_ms = 400;
    server_options.idle_timeout_ms = 60000;
    net::Server server(service, server_options);
    ASSERT_TRUE(server.Start().ok());

    // The attackers, concurrently with the fleet.
    std::atomic<bool> adversaries_ok{true};
    std::vector<std::thread> attackers;
    auto attack = [&](net::AdversaryMode mode, size_t connections,
                      double interval_ms) {
      net::AdversaryOptions o;
      o.port = server.port();
      o.mode = mode;
      o.connections = connections;
      o.duration_ms = 1500;
      o.write_interval_ms = interval_ms;
      o.seed = 29 + static_cast<uint64_t>(mode);
      auto report = net::RunAdversary(o);
      if (!report.ok()) adversaries_ok.store(false);
    };
    attackers.emplace_back(
        [&] { attack(net::AdversaryMode::kSlowloris, 2, 100); });
    attackers.emplace_back(
        [&] { attack(net::AdversaryMode::kNeverRead, 2, 50); });
    attackers.emplace_back(
        [&] { attack(net::AdversaryMode::kGarbage, 1, 50); });

    // The well-behaved fleet: every thread checks its answers byte-for-
    // byte against the serial baseline, live, while the attack runs.
    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> fleet_failures{0};
    std::vector<std::thread> fleet;
    for (size_t t = 0; t < threads; ++t) {
      fleet.emplace_back([&, t] {
        auto workload = MakeWorkload(120, 100 + t);
        auto expected = ReferenceBytes(index, workload);
        auto client = net::Client::Connect(server.port());
        if (!client.ok()) {
          fleet_failures.fetch_add(1);
          return;
        }
        client->set_read_timeout_ms(30000);
        for (size_t i = 0; i < workload.size(); ++i) {
          if (!client->SendQuery(workload[i]).ok()) {
            fleet_failures.fetch_add(1);
            return;
          }
          auto response = client->ReadFrameBytes();
          if (!response.ok()) {
            // Any failure here means a well-behaved connection was
            // disconnected — the defense layer overreached.
            fleet_failures.fetch_add(1);
            return;
          }
          if (*response != expected[i]) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : fleet) t.join();
    for (std::thread& t : attackers) t.join();

    EXPECT_TRUE(adversaries_ok.load());
    EXPECT_EQ(fleet_failures.load(), 0u)
        << "a well-behaved connection was disconnected at " << threads
        << " fleet threads";
    EXPECT_EQ(mismatches.load(), 0u)
        << "wire answers diverged from the serial baseline under attack";

    // The defenses fired on the attackers and the memory bound held.
    net::ServerStats stats = server.stats();
    EXPECT_GE(stats.disconnects_slowloris, 1u);
    EXPECT_LE(stats.peak_out_buffer, (256u << 10) + (256u << 10));
    // And the gauges tell the same story over the wire (v4 end-to-end).
    auto probe = net::Client::Connect(server.port());
    ASSERT_TRUE(probe.ok());
    auto info = probe->Info(util::Deadline::AfterMillis(5000));
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->net.disconnects_slowloris,
              stats.disconnects_slowloris);
    server.Shutdown();
  }
}

}  // namespace
}  // namespace yver::serve
