// The benchmark's own load drivers over serve::net::Client.
//
// Open loop: one sender thread puts every lane's frames on the wire at
// their due times, whatever the server is doing, and one receiver thread
// per lane reads the in-order responses. Latency is measured from each
// request's due time, not from when the sender got round to it, so a
// stalled sender shows up in the tail instead of hiding (coordinated
// omission). The sender's lateness is reported on its own.
//
// Closed loop: one thread per lane sends the next request only after the
// previous answer arrived, until a time limit; it measures capacity.
#ifndef YVER_PERFBENCH_DRIVER_H_
#define YVER_PERFBENCH_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/net/client.h"
#include "trace.h"

namespace perfbench {

/// FNV-1a 64 over raw bytes: how response frames are compared with the
/// in-process answers without keeping every frame.
uint64_t Fnv1a(std::string_view bytes);

/// One connection's share of an open-loop schedule.
struct Lane {
  yver::serve::net::Client* client = nullptr;  // not owned
  std::vector<std::string> frames;             // requests, in send order
  std::vector<int64_t> due_ns;                 // due time of each request
  /// Runs on the lane's receiver thread for each response, in order;
  /// returns whether the answer counts as OK.
  std::function<bool(size_t i, const std::string& frame, int64_t recv_ns)>
      on_response;

  // Filled by RunOpenLoop:
  std::vector<int64_t> recv_ns;  // -1 when the request failed
  std::vector<uint8_t> ok;
};

struct OpenLoopReport {
  std::vector<double> late_ms;  // per request: actual send - due
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Due times for `count` requests at `rate` per second from `start_ns`.
std::vector<int64_t> Schedule(int64_t start_ns, double rate, size_t count);

/// Runs the open loop to completion. `before_send(k)` runs on the sender
/// thread before the k-th send in global due order; the self-test uses it
/// to inject a stall.
OpenLoopReport RunOpenLoop(const std::vector<Lane*>& lanes,
                           const std::function<void(size_t)>& before_send = {});

/// Latencies of a lane's requests from their due times, in ms; failed
/// requests count as `miss_ms` (they miss any latency limit).
std::vector<double> LatenciesFromDue(const Lane& lane, double miss_ms);

/// One closed-loop connection: it keeps a fixed number of requests in
/// flight, sending the next one as each answer arrives, until `end_ns`,
/// then collects the answers still due. `make_request(i, frame)` writes
/// the i-th request on the lane's thread just before it is sent, so a
/// phase is never capped by a list built in advance; `on_response` sees
/// the i-th answer.
struct ClosedLane {
  yver::serve::net::Client* client = nullptr;
  std::function<void(size_t i, std::string* frame)> make_request;
  std::function<bool(size_t i, const std::string& frame, int64_t recv_ns)>
      on_response;
  uint64_t answered = 0;
  uint64_t failed = 0;
};

/// Runs every lane on its own thread, `depth` requests in flight on
/// each, until `end_ns`.
void RunClosedLoop(const std::vector<ClosedLane*>& lanes, size_t depth,
                   int64_t end_ns);

/// Proves the open-loop driver measures from due times: against a real
/// server on `port`, a 50 ms sender stall must land in p99 latency and in
/// the lateness report. Empty string on success.
std::string SelfTestOpenLoop(uint16_t port, size_t num_records);

}  // namespace perfbench

#endif  // YVER_PERFBENCH_DRIVER_H_
