#ifndef YVER_SERVE_NET_SERVER_H_
#define YVER_SERVE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/record.h"
#include "serve/ingest.h"
#include "serve/net/deadline_wheel.h"
#include "serve/resolution_service.h"
#include "serve/wire.h"
#include "util/socket.h"
#include "util/status.h"

namespace yver::serve::net {

/// Tuning knobs for a wire Server.
struct ServerOptions {
  /// TCP port on 127.0.0.1 (0 = kernel-assigned; read back via port()).
  uint16_t port = 0;
  int backlog = 128;
  /// The per-turn fairness quantum: pending frames a connection gets
  /// answered per event-loop turn, in one write (see Server).
  size_t max_batch = 64;
  /// Connections beyond this are accepted and immediately closed (the
  /// listen backlog would otherwise queue them invisibly).
  size_t max_connections = 1024;
  /// Graceful-shutdown bound: already-decoded queries get this long to
  /// be answered and flushed before connections are force-closed.
  double drain_timeout_ms = 5000;

  // --- Connection-lifecycle defense (DESIGN.md §15). Each knob's zero
  // --- disables it unless noted; the defaults are generous enough that a
  // --- well-behaved client can never trip them.
  /// Per-connection cap on buffered unwritten response bytes. A peer that
  /// stops reading while responses accumulate past this is disconnected
  /// (reason: write-stall) — the cap is what bounds server memory against
  /// a never-reading client. 0 = unbounded.
  size_t max_out_buffer = 64u << 20;
  /// SO_SNDBUF for accepted sockets. The kernel send buffer auto-tunes to
  /// megabytes per connection, which both evades the out-buffer cap (the
  /// kernel absorbs responses a dead reader never drains, so the
  /// userspace backlog stays small) and is itself unbounded per-peer
  /// memory. Clamping it makes `max_out_buffer` the real bound.
  /// 0 = kernel default (auto-tuned).
  size_t so_sndbuf = 0;
  /// Per-connection cap on buffered unparsed input bytes. Backpressure
  /// (the pending cap) already bounds this path, so the cap is a
  /// belt-and-braces bound; exceeding it disconnects (reason: oversize).
  /// 0 = unbounded.
  size_t max_in_buffer = 64u << 20;
  /// Server-side cap on a declared frame payload length: a frame header
  /// declaring more is rejected — with a typed error frame, then a close —
  /// before a single payload byte is buffered (reason: oversize). 0 = the
  /// protocol maximum, wire::kMaxFramePayload.
  size_t max_frame_payload = 0;
  /// Decoded-but-unanswered frames a connection may queue before the
  /// loop deregisters EPOLLIN for it (backpressure; the kernel socket
  /// buffer and TCP flow control push back on the peer from there).
  /// 0 = 2 * max_batch.
  size_t max_pending = 0;
  /// Disconnect a connection with nothing outstanding in either direction
  /// after this long without a byte of traffic (reason: idle). 0 = never.
  double idle_timeout_ms = 300000;
  /// Slow-loris defense: while a partial frame is pending, the peer must
  /// average at least this many received bytes/sec over each
  /// progress_window_ms window or be disconnected (reason: slowloris).
  /// Windows only run while reads are armed — a pause the server itself
  /// imposed never counts against the peer. 0 = disabled.
  double min_read_bytes_per_sec = 64;
  double progress_window_ms = 5000;
  /// Disconnect when buffered responses make no progress into the kernel
  /// for this long (reason: write-stall). 0 = never.
  double write_stall_timeout_ms = 30000;
  /// Token-bucket rate limits on query/append frames, answered in order
  /// with RESOURCE_EXHAUSTED error frames. Info requests are exempt (they
  /// are the observability path). 0 = unlimited; burst 0 = one second's
  /// worth of tokens.
  double conn_rate_limit = 0;    // frames/sec per connection
  double conn_rate_burst = 0;
  double global_rate_limit = 0;  // frames/sec across all connections
  double global_rate_burst = 0;
  /// A peer whose frames get rate-limited this many times consecutively
  /// (no admitted frame in between) is disconnected (reason:
  /// rate-limited). 0 = never disconnect, keep answering typed errors.
  size_t rate_limit_disconnect_streak = 1024;
  /// Granularity of the loop's deadline wheel (timers fire up to one tick
  /// late).
  double timer_tick_ms = 20;
};

/// Monotonic counters, readable while the server runs.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;   // well-formed frames parsed
  uint64_t queries_dispatched = 0;  // query frames answered by the service
  uint64_t appends_accepted = 0;  // kAppendRequest frames acked into ingest
  uint64_t responses_sent = 0;    // result/error/info frames fully written
  uint64_t protocol_errors = 0;   // malformed frames (connection poisoned)
  uint64_t socket_errors = 0;     // read/write failures (incl. injected)
  // Connection-lifecycle defense (DESIGN.md §15):
  uint64_t open_connections = 0;  // gauge: live (not yet reaped)
  uint64_t paused_reads = 0;      // gauge: EPOLLIN deregistered for pressure
  uint64_t disconnects_idle = 0;
  uint64_t disconnects_slowloris = 0;
  uint64_t disconnects_oversize = 0;
  uint64_t disconnects_rate_limited = 0;
  uint64_t disconnects_write_stall = 0;
  uint64_t rate_limited_frames = 0;   // answered RESOURCE_EXHAUSTED
  uint64_t peak_out_buffer = 0;       // high-water mark of any conn's out
  uint64_t peak_in_buffer = 0;        // high-water mark of any conn's in
};

/// The TCP front end over a ResolutionService (DESIGN.md §12): one epoll
/// event-loop thread owns every connection — per-connection read/write
/// buffers with partial-read and short-write handling, wire framing, and
/// strict in-order request/response pipelining — and answers every
/// decoded query itself through ResolutionService::QueryRecord (and
/// through it the service's deadlines). An answer costs well under a
/// microsecond, far less than handing it to another thread and waking
/// the loop again.
///
/// Fairness: a connection gets at most `max_batch` frames answered per
/// loop turn. One with more pending or buffered goes on a ready list, and
/// while that list is non-empty the loop polls epoll without blocking, so
/// every other connection is served between any two of its quanta.
///
/// Ordering contract: responses on a connection are sent in the order the
/// queries arrived, one response frame per query frame — the pending
/// queue is answered strictly from its head. This is what makes a
/// replayed capture byte-identical run over run and wire answers
/// byte-equal to the in-process API.
///
/// Connection lifecycle (DESIGN.md §15): reading → paused → draining →
/// dead. Reads pause (EPOLLIN deregistered) while the pending queue is at
/// its cap — TCP flow control then pushes back on the peer instead of the
/// server buffering unboundedly. A deadline wheel in the loop drives idle
/// timeouts, slow-loris progress timeouts, and write-stall detection;
/// token buckets rate-limit query/append frames. Every defensive
/// disconnect is typed (idle / slowloris / oversize / rate-limited /
/// write-stall) and surfaced both in ServerStats and on the wire via the
/// kInfo NetGauges.
///
/// Failure model: a malformed frame gets a typed kError frame and a
/// connection close (protocol errors poison framing); a query that fails
/// validation or its deadline gets its typed kError frame and the
/// connection lives on; socket errors (including injected faults at
/// net.socket.read/write) close the connection. The process never aborts
/// on network input.
///
/// Shutdown() is graceful: stop accepting, stop reading, answer every
/// already-decoded query, flush the write buffers, then close — bounded
/// by ServerOptions::drain_timeout_ms.
class Server {
 public:
  /// `builder`, when non-null, enables live ingest: kAppendRequest frames
  /// are submitted to it and acked with the assigned record index. With
  /// no builder, append frames get a typed UNAVAILABLE ("live ingest
  /// disabled") and the connection lives on.
  Server(std::shared_ptr<ResolutionService> service,
         ServerOptions options = {},
         std::shared_ptr<LiveIndexBuilder> builder = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event-loop thread. UNAVAILABLE when
  /// the port cannot be bound.
  util::Status Start();

  /// The bound port (after Start; resolves port 0 to the ephemeral pick).
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful shutdown; idempotent; blocks until the loop thread exits.
  void Shutdown();

  ServerStats stats() const;

  const ResolutionService& service() const { return *service_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Why the defense layer dropped a connection; each maps to one
  /// ServerStats / wire::NetGauges counter.
  enum class DisconnectReason : uint8_t {
    kIdle,
    kSlowloris,
    kOversize,
    kRateLimited,
    kWriteStall,
  };

  /// A refill-on-demand token bucket (one per connection, plus a global
  /// one). Loop-thread only.
  struct TokenBucket {
    double tokens = 0;
    Clock::time_point last{};
    bool primed = false;
    /// Refills at `rate`/sec up to `burst` (burst <= 0 means one second's
    /// worth) and tries to take one token. rate <= 0 always admits.
    bool TryTake(double rate, double burst, Clock::time_point now);
  };

  /// One element of a connection's in-order pending queue. Besides real
  /// queries it carries markers — a malformed query or append payload
  /// (answers INVALID_ARGUMENT), an info request, a decoded append, and
  /// a rate-limited frame (answers RESOURCE_EXHAUSTED) — which must hold
  /// their place in line so responses never overtake earlier queries.
  struct PendingEntry {
    enum class Kind : uint8_t {
      kQuery,
      kDecodeError,
      kInfoRequest,
      kAppend,
      kAppendError,
      kRateLimited,
    };
    Kind kind = Kind::kQuery;
    Query query;
    data::Record record;  // kAppend only
  };

  struct Connection {
    util::Socket sock;
    std::string in;                         // unparsed wire bytes
    std::deque<PendingEntry> pending;       // decoded, not yet answered
    std::string out;                        // encoded frames awaiting write
    size_t out_off = 0;                     // bytes of `out` already sent
    bool ready = false;                     // on ready_ (pending to answer)
    bool closing = false;                   // drain then close (EOF/protocol)
    bool want_write = false;                // EPOLLOUT currently armed
    bool reads_armed = true;                // EPOLLIN|EPOLLRDHUP armed
    bool read_paused = false;               // counted in the paused gauge
    bool dead = false;                      // socket closed; erased at reap
    // Defense-layer bookkeeping (loop-thread only):
    uint64_t bytes_read = 0;                // total bytes ever received
    bool partial_frame = false;             // `in` ends mid-frame
    Clock::time_point last_activity{};      // last byte in either direction
    Clock::time_point last_write_progress{};
    Clock::time_point window_start{};       // slow-loris progress window
    uint64_t window_start_bytes = 0;
    TokenBucket bucket;
    uint64_t rate_limited_streak = 0;
  };

  void Loop();
  void AcceptAll();
  void HandleReadable(uint64_t id, Connection& conn);
  void HandleWritable(uint64_t id, Connection& conn);
  /// Decodes frames out of conn.in into the pending queue, stopping at
  /// the pending cap (backpressure) — also the enforcement point for the
  /// frame-size cap and the rate limits.
  void DecodeFrames(uint64_t id, Connection& conn);
  /// Puts a connection with pending frames on the ready list (once).
  void MarkReady(uint64_t id, Connection& conn);
  /// Gives every connection on the ready list one quantum of answers,
  /// refills its queue from `in`, and re-lists it if frames remain.
  void ServeReady();
  /// Answers up to `limit` frames from the head of the pending queue, in
  /// order, and queues their encoded responses as one write.
  void AnswerPending(uint64_t id, Connection& conn, size_t limit);
  /// Recomputes and applies the connection's epoll interest set (pause /
  /// resume reads, write interest) and its next wheel deadline. The one
  /// place connection state maps to kernel + timer state; call after any
  /// state change.
  void UpdateConnState(uint64_t id, Connection& conn);
  /// Fires when the wheel expires a connection's deadline: decides idle /
  /// slowloris / write-stall, disconnects or reschedules.
  void OnConnDeadline(uint64_t id, Connection& conn);
  /// Appends bytes to the connection's write buffer and pushes them into
  /// the kernel immediately (short writes leave the rest for EPOLLOUT).
  /// Enforces the out-buffer cap.
  void QueueWrite(uint64_t id, Connection& conn, std::string bytes);
  /// Counts the typed reason, then MarkDead.
  void Disconnect(uint64_t id, Connection& conn, DisconnectReason reason);
  /// Closes the socket and flags the connection; the entry itself is
  /// erased only by ReapDead at the top of a loop turn, so nested
  /// handlers never hold a dangling Connection reference.
  void MarkDead(uint64_t id, Connection& conn);
  void ReapDead();
  wire::ServerInfo MakeInfo() const;
  size_t PendingCap() const;
  size_t MaxFramePayload() const;

  std::shared_ptr<ResolutionService> service_;
  ServerOptions options_;
  std::shared_ptr<LiveIndexBuilder> builder_;  // nullptr = ingest disabled
  util::Socket listener_;
  uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Shutdown() wakes the loop

  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::unordered_map<uint64_t, Connection> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake fd

  // Loop-thread only: connection deadlines, the global rate bucket, and
  // the ready list with the scratch list ServeReady swaps it into.
  std::unique_ptr<DeadlineWheel> wheel_;
  TokenBucket global_bucket_;
  std::vector<uint64_t> ready_;
  std::vector<uint64_t> serving_;

  // Counters are atomics: the loop writes, stats() reads.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> queries_dispatched_{0};
  std::atomic<uint64_t> appends_accepted_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> socket_errors_{0};
  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> paused_reads_{0};
  std::atomic<uint64_t> disconnects_idle_{0};
  std::atomic<uint64_t> disconnects_slowloris_{0};
  std::atomic<uint64_t> disconnects_oversize_{0};
  std::atomic<uint64_t> disconnects_rate_limited_{0};
  std::atomic<uint64_t> disconnects_write_stall_{0};
  std::atomic<uint64_t> rate_limited_frames_{0};
  std::atomic<uint64_t> peak_out_buffer_{0};
  std::atomic<uint64_t> peak_in_buffer_{0};
};

}  // namespace yver::serve::net

#endif  // YVER_SERVE_NET_SERVER_H_
