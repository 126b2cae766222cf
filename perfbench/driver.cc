#include "driver.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <tuple>

#include "serve/wire.h"
#include "stats.h"

namespace perfbench {

using yver::serve::net::Client;
namespace util = yver::util;

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<int64_t> Schedule(int64_t start_ns, double rate, size_t count) {
  std::vector<int64_t> due(count);
  double interval_ns = 1e9 / rate;
  for (size_t i = 0; i < count; ++i) {
    due[i] = start_ns + static_cast<int64_t>(interval_ns * static_cast<double>(i));
  }
  return due;
}

namespace {

void SleepUntilNs(int64_t target_ns) {
  int64_t now = NowNs();
  if (target_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(target_ns - now));
  }
}

}  // namespace

OpenLoopReport RunOpenLoop(const std::vector<Lane*>& lanes,
                           const std::function<void(size_t)>& before_send) {
  // Global send order: every lane's requests merged by due time.
  std::vector<std::tuple<int64_t, size_t, size_t>> order;
  for (size_t l = 0; l < lanes.size(); ++l) {
    Lane& lane = *lanes[l];
    lane.recv_ns.assign(lane.frames.size(), -1);
    lane.ok.assign(lane.frames.size(), 0);
    for (size_t i = 0; i < lane.frames.size(); ++i) {
      order.emplace_back(lane.due_ns[i], l, i);
    }
  }
  std::sort(order.begin(), order.end());

  OpenLoopReport report;
  report.attempted = order.size();
  report.late_ms.reserve(order.size());
  std::vector<size_t> sent(lanes.size(), 0);

  std::vector<std::thread> receivers;
  for (Lane* lane : lanes) {
    receivers.emplace_back([lane] {
      for (size_t i = 0; i < lane->frames.size(); ++i) {
        auto bytes = lane->client->ReadFrameBytes();
        if (!bytes.ok()) {  // the rest stay failed (recv_ns == -1)
          std::fprintf(stderr, "perfbench: open-loop read: %s\n",
                       bytes.status().ToString().c_str());
          return;
        }
        int64_t now = NowNs();
        lane->recv_ns[i] = now;
        lane->ok[i] = lane->on_response ? lane->on_response(i, *bytes, now)
                                        : 1;
      }
    });
  }
  for (size_t k = 0; k < order.size(); ++k) {
    auto [due, l, i] = order[k];
    if (before_send) before_send(k);
    SleepUntilNs(due);
    report.late_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
    if (!lanes[l]->client->SendBytes(lanes[l]->frames[i]).ok()) break;
    ++sent[l];
  }
  // A lane whose sends stopped early would wait forever for answers that
  // never come; half-closing makes the server answer what it got and
  // close, so the receiver sees the end of the stream.
  for (size_t l = 0; l < lanes.size(); ++l) {
    if (sent[l] < lanes[l]->frames.size()) {
      (void)lanes[l]->client->FinishSending();
    }
  }
  for (std::thread& t : receivers) t.join();
  for (Lane* lane : lanes) {
    for (size_t i = 0; i < lane->frames.size(); ++i) {
      if (!lane->ok[i]) ++report.failed;
    }
  }
  return report;
}

std::vector<double> LatenciesFromDue(const Lane& lane, double miss_ms) {
  std::vector<double> out;
  out.reserve(lane.frames.size());
  for (size_t i = 0; i < lane.frames.size(); ++i) {
    out.push_back(lane.ok[i]
                      ? static_cast<double>(lane.recv_ns[i] - lane.due_ns[i]) *
                            1e-6
                      : miss_ms);
  }
  return out;
}

void RunClosedLoop(const std::vector<ClosedLane*>& lanes, size_t depth,
                   int64_t end_ns) {
  std::vector<std::thread> threads;
  for (ClosedLane* lane : lanes) {
    threads.emplace_back([lane, depth, end_ns] {
      std::string request;
      size_t sent = 0;
      bool sending = true;
      auto send_next = [&] {
        request.clear();
        lane->make_request(sent, &request);
        util::Status status = lane->client->SendBytes(request);
        if (status.ok()) {
          ++sent;
          return;
        }
        std::fprintf(stderr, "perfbench: closed-loop send: %s\n",
                     status.ToString().c_str());
        ++lane->failed;
        sending = false;
      };
      while (sending && sent < depth) send_next();
      for (size_t i = 0; i < sent; ++i) {
        auto bytes = lane->client->ReadFrameBytes();
        int64_t recv = NowNs();
        if (!bytes.ok()) {
          std::fprintf(stderr, "perfbench: closed-loop read: %s\n",
                       bytes.status().ToString().c_str());
          lane->failed += sent - i;
          return;
        }
        bool ok = lane->on_response ? lane->on_response(i, *bytes, recv)
                                    : true;
        ++(ok ? lane->answered : lane->failed);
        if (sending && recv < end_ns) send_next();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

std::string SelfTestOpenLoop(uint16_t port, size_t num_records) {
  auto client = Client::Connect(port);
  if (!client.ok()) return "self-test connect: " + client.status().ToString();
  client->set_read_timeout_ms(10000);
  constexpr double kRate = 2000.0;
  constexpr size_t kCount = 1000;
  constexpr size_t kStallAt = 200;
  constexpr double kStallMs = 50.0;
  Lane lane;
  lane.client = &*client;
  for (size_t i = 0; i < kCount; ++i) {
    yver::serve::Query q;
    q.record = static_cast<yver::data::RecordIdx>(i % num_records);
    yver::serve::wire::EncodeQuery(q, 0.0, &lane.frames.emplace_back());
  }
  lane.due_ns = Schedule(NowNs() + 5'000'000, kRate, kCount);
  OpenLoopReport report = RunOpenLoop({&lane}, [](size_t k) {
    if (k == kStallAt) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(kStallMs * 1000)));
    }
  });
  if (report.failed != 0) return "self-test: requests failed";
  // ~100 requests fall due during the stall, so at least 10% of them wait
  // for it: the p99 measured from due times must show most of the stall.
  double p99 = Percentile(LatenciesFromDue(lane, 0.0), 0.99);
  double late_p99 = Percentile(report.late_ms, 0.99);
  if (p99 < 0.5 * kStallMs || late_p99 < 0.5 * kStallMs) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "self-test: %.0f ms sender stall hidden (p99 %.3f ms, "
                  "lateness p99 %.3f ms)",
                  kStallMs, p99, late_p99);
    return buf;
  }
  return "";
}

}  // namespace perfbench
