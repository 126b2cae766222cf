#include "serve/net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.h"

namespace yver::serve::net {

namespace {

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;
constexpr size_t kReadChunk = 64 * 1024;
// Per-wakeup ceiling on buffered-but-unanswered input. Without it a
// firehose peer gets its whole kernel receive queue slurped into `in`
// even though one quantum answers only max_batch frames of it —
// megabytes of user-space buffer doing the kernel's job. Stopping here
// leaves the backlog in the socket where TCP flow control pushes back on
// the sender; level-triggered epoll re-fires while bytes remain, and a
// frame larger than the cap still grows `in` one chunk per wakeup until
// it completes.
constexpr size_t kInSoftCap = 256 * 1024;
constexpr int kListenBacklog = 128;

std::chrono::steady_clock::duration MillisDuration(double ms) {
  return std::chrono::nanoseconds(static_cast<int64_t>(ms * 1e6));
}

// The epoll_wait timeout that wakes the loop at `deadline`: whole ms,
// rounded up so a timer never fires early; -1 (sleep until an event)
// when there is no deadline.
int MillisUntil(std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) return -1;
  auto left = deadline - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) return 0;
  auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return static_cast<int>(
      std::min<int64_t>(ms, std::numeric_limits<int>::max()));
}

void BumpPeak(std::atomic<uint64_t>& peak, uint64_t value) {
  uint64_t current = peak.load(std::memory_order_relaxed);
  while (value > current &&
         !peak.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

bool Server::TokenBucket::TryTake(double rate, double burst,
                                  Clock::time_point now) {
  if (rate <= 0) return true;
  if (burst <= 0) burst = rate;
  if (!primed) {
    tokens = burst;
    last = now;
    primed = true;
  }
  double elapsed = std::chrono::duration<double>(now - last).count();
  tokens = std::min(burst, tokens + elapsed * rate);
  last = now;
  if (tokens < 1.0) return false;
  tokens -= 1.0;
  return true;
}

Server::Server(std::shared_ptr<ResolutionService> service,
               ServerOptions options,
               std::shared_ptr<LiveIndexBuilder> builder)
    : service_(std::move(service)),
      options_(options),
      builder_(std::move(builder)) {
  YVER_CHECK_MSG(service_ != nullptr, "Server needs a ResolutionService");
  if (options_.max_batch == 0) options_.max_batch = 1;
}

Server::~Server() { Shutdown(); }

size_t Server::MaxFramePayload() const {
  size_t cap = options_.max_frame_payload > 0 ? options_.max_frame_payload
                                              : wire::kMaxFramePayload;
  return std::min(cap, wire::kMaxFramePayload);
}

util::Status Server::Start() {
  if (running()) return util::Status::Ok();
  auto listener = util::Socket::Listen(options_.port, kListenBacklog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  auto port = listener_.LocalPort();
  if (!port.ok()) return port.status();
  port_ = *port;
  util::Status nb = listener_.SetNonBlocking(true);
  if (!nb.ok()) return nb;

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return util::Status::Unavailable("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return util::Status::Unavailable("eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  global_bucket_ = TokenBucket{};
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return util::Status::Ok();
}

void Server::Shutdown() {
  if (!loop_.joinable()) return;
  stop_requested_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  loop_.join();
  // The loop has exited and every connection is closed. Tear down the fds.
  conns_.clear();
  ready_.clear();
  listener_.Close();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

ServerStats Server::stats() const {
  ServerStats s;
  // Open connections first, with acquire: the loop counts a connection
  // accepted or closed before it releases the change of this gauge, so
  // a snapshot that sees a connection gone also sees it counted closed
  // (never open 0 with closed 0 after the last close).
  s.net.open_connections = open_connections_.load(std::memory_order_acquire);
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_closed = closed_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.queries_dispatched = queries_dispatched_.load(std::memory_order_relaxed);
  s.appends_accepted = appends_accepted_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.socket_errors = socket_errors_.load(std::memory_order_relaxed);
  s.net.paused_reads = paused_reads_.load(std::memory_order_relaxed);
  s.net.disconnects_idle = disconnects_idle_.load(std::memory_order_relaxed);
  s.net.disconnects_slowloris =
      disconnects_slowloris_.load(std::memory_order_relaxed);
  s.net.disconnects_oversize =
      disconnects_oversize_.load(std::memory_order_relaxed);
  s.net.disconnects_rate_limited =
      disconnects_rate_limited_.load(std::memory_order_relaxed);
  s.net.disconnects_write_stall =
      disconnects_write_stall_.load(std::memory_order_relaxed);
  s.net.rate_limited_frames =
      rate_limited_frames_.load(std::memory_order_relaxed);
  s.peak_out_buffer = peak_out_buffer_.load(std::memory_order_relaxed);
  s.peak_in_buffer = peak_in_buffer_.load(std::memory_order_relaxed);
  return s;
}

wire::ServerInfo Server::MakeInfo() const {
  wire::ServerInfo info;
  // One pin for the whole snapshot: records/matches/checksum all describe
  // the same generation even if a publish lands mid-call.
  PinnedIndex pin = service_->PinIndex();
  info.num_records = pin->num_records();
  info.num_matches = pin->num_matches();
  info.checksum = pin->Checksum();
  info.metrics = service_->metrics();
  info.net = stats().net;
  // The rate limiter is the one RESOURCE_EXHAUSTED answer on the query
  // path, so it is what the service-level shed counter reports.
  info.metrics.shed = info.net.rate_limited_frames;
  return info;
}

void Server::Loop() {
  std::vector<epoll_event> events(128);
  bool draining = false;
  Clock::time_point drain_deadline{};
  Clock::time_point next_deadline = Clock::time_point::max();
  for (;;) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      // Graceful shutdown begins: no new connections, no new reads; every
      // whole frame already read still gets answered and flushed (a
      // trailing partial frame is dropped by ServeFrames).
      draining = true;
      drain_deadline = Clock::now() + MillisDuration(options_.drain_timeout_ms);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      for (auto& [id, conn] : conns_) {
        if (conn.dead) continue;
        conn.closing = true;
        conn.reads_armed = false;
        if (conn.read_paused) {
          conn.read_paused = false;
          paused_reads_.fetch_sub(1, std::memory_order_relaxed);
        }
        epoll_event ev{};
        ev.events = conn.want_write ? static_cast<uint32_t>(EPOLLOUT)
                                    : 0u;  // reads off
        ev.data.u64 = id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
        if (!conn.in.empty()) MarkReady(id, conn);
      }
    }
    if (draining) {
      for (auto& [id, conn] : conns_) {
        if (!conn.dead && conn.in.empty() &&
            conn.out_off >= conn.out.size()) {
          MarkDead(conn);
        }
      }
    }
    ReapDead();
    if (draining &&
        (conns_.empty() || Clock::now() >= drain_deadline)) {
      break;
    }

    // A non-empty ready list means answers are owed: poll without
    // blocking so they go out this turn, after any new readiness.
    int timeout_ms = !ready_.empty() ? 0
                     : draining      ? 10
                                     : MillisUntil(next_deadline);
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      uint64_t id = events[i].data.u64;
      uint32_t mask = events[i].events;
      if (id == kListenerId) {
        if (!draining) AcceptAll();
        continue;
      }
      if (id == kWakeId) {
        // Shutdown's wakeup; stop_requested_ is read at the top of the turn.
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end() || it->second.dead) continue;
      Connection& conn = it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0 && !conn.ready) {
        MarkDead(conn);
        continue;
      }
      // EPOLLRDHUP (peer half-closed) rides the read path: the next read
      // returns EOF, which flips the connection to closing/draining.
      if ((mask & (EPOLLIN | EPOLLRDHUP)) != 0 && !draining) {
        HandleReadable(id, conn);
      }
      if (!conn.dead && (mask & EPOLLOUT) != 0) HandleWritable(id, conn);
    }
    ServeReady();
    if (!draining) next_deadline = ExpireDeadlines();
  }
  // Drain-deadline expiry or epoll failure: force-close stragglers so
  // peers see EOF rather than a hung connection.
  for (auto& [id, conn] : conns_) {
    if (!conn.dead) MarkDead(conn);
  }
  ReapDead();
}

void Server::AcceptAll() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      socket_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!accepted->valid()) return;  // EAGAIN: backlog empty
    if (conns_.size() >= options_.max_connections) {
      // Over the cap: closing immediately beats an invisible backlog queue.
      continue;
    }
    util::Socket sock = std::move(*accepted);
    if (!sock.SetNonBlocking(true).ok() || !sock.SetNoDelay(true).ok()) {
      socket_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (options_.so_sndbuf > 0) {
      // Best-effort: an unclamped kernel send buffer auto-tunes to MBs
      // per peer, hiding a dead reader from the out-buffer cap.
      int sndbuf = static_cast<int>(std::min<size_t>(
          options_.so_sndbuf,
          static_cast<size_t>(std::numeric_limits<int>::max())));
      ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                   sizeof(sndbuf));
    }
    uint64_t id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, sock.fd(), &ev) != 0) {
      socket_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection conn;
    conn.sock = std::move(sock);
    Clock::time_point now = Clock::now();
    conn.last_activity = now;
    conn.last_write_progress = now;
    auto [it, inserted] = conns_.emplace(id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_add(1, std::memory_order_release);
    UpdateConnState(id, it->second);  // arms the idle timer
  }
}

void Server::HandleReadable(uint64_t id, Connection& conn) {
  if (conn.dead || conn.closing) return;
  char buf[kReadChunk];
  for (;;) {
    auto r = conn.sock.ReadSome(buf, sizeof(buf));
    if (!r.ok()) {
      // Hard or injected socket error: the stream is gone; drop the
      // connection (in-flight work completes and is discarded).
      socket_errors_.fetch_add(1, std::memory_order_relaxed);
      MarkDead(conn);
      return;
    }
    if (r->would_block) break;
    if (r->eof) {
      // Peer finished sending: answer what we have, then close.
      conn.closing = true;
      break;
    }
    conn.in.append(buf, r->bytes);
    conn.bytes_read += r->bytes;
    conn.last_activity = Clock::now();
    BumpPeak(peak_in_buffer_, conn.in.size());
    if (options_.max_in_buffer > 0 &&
        conn.in.size() > options_.max_in_buffer) {
      Disconnect(conn, DisconnectReason::kOversize);
      return;
    }
    if (r->bytes < sizeof(buf)) break;  // level-triggered: rest next round
    if (conn.in.size() >= kInSoftCap) break;  // answer before slurping more
  }
  // Answered after this turn's events; ServeFrames updates its state.
  MarkReady(id, conn);
}

void Server::MarkReady(uint64_t id, Connection& conn) {
  if (conn.ready) return;
  conn.ready = true;
  ready_.push_back(id);
}

void Server::ServeReady() {
  // Connections ServeFrames re-lists land on the fresh ready_ and wait
  // for the next turn: one quantum per connection per turn.
  serving_.swap(ready_);
  for (uint64_t id : serving_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Connection& conn = it->second;
    conn.ready = false;
    if (!conn.dead) ServeFrames(id, conn);
  }
  serving_.clear();
}

void Server::ServeFrames(uint64_t id, Connection& conn) {
  // Walks the whole frames at the head of `in` and answers each where it
  // lies, so responses leave in arrival order by construction. The walk
  // stops after max_batch answers (fairness), on a partial frame
  // (slow-loris tracking takes over), or on a frame that ends the
  // connection. Answered frames advance `off`; one erase at the end keeps
  // the cost linear (per-frame front erases on a large `in` are
  // quadratic).
  std::string bytes;
  size_t answered = 0;
  size_t off = 0;
  bool partial = false;
  bool more = false;      // a whole frame waits for the next quantum
  bool poisoned = false;  // framing is lost: answer, flush, close
  std::optional<DisconnectReason> drop;
  auto poison = [&](const util::Status& status) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    wire::EncodeResult(status, &bytes);
    ++answered;
    poisoned = true;
  };
  // With both limits off the buckets admit unconditionally, so the gate
  // (and the clock read that feeds it) is skipped.
  const bool rate_limited =
      options_.conn_rate_limit > 0 || options_.global_rate_limit > 0;
  // `closing` does not stop the walk: after a clean half-close (EOF with
  // buffered frames) and at server drain, every whole frame already
  // received is answered.
  while (off < conn.in.size()) {
    std::string_view rest = std::string_view(conn.in).substr(off);
    wire::FrameHeader header;
    auto peeked = wire::PeekFrameHeader(rest, &header);
    if (!peeked.ok()) {
      poison(peeked.status());
      break;
    }
    if (*peeked == 0) {
      partial = true;  // header itself is incomplete
      break;
    }
    const bool oversize = header.payload_length > MaxFramePayload();
    if (!oversize &&
        rest.size() < wire::kHeaderSize + header.payload_length) {
      partial = true;  // wait for the rest of the payload
      break;
    }
    if (answered == options_.max_batch) {
      more = true;
      break;
    }
    if (oversize) {
      // Rejected from the header alone — before one payload byte is
      // buffered or a reservation made (DESIGN.md §15).
      wire::EncodeResult(
          util::Status::ResourceExhausted(
              "frame payload length " +
              std::to_string(header.payload_length) +
              " exceeds the server limit (" +
              std::to_string(MaxFramePayload()) + ")"),
          &bytes);
      ++answered;
      drop = DisconnectReason::kOversize;
      break;
    }
    // A whole frame is present. Rate-gate queries/appends before paying
    // for the payload decode; info requests are exempt (observability).
    if (rate_limited && (header.type == wire::FrameType::kQuery ||
                         header.type == wire::FrameType::kAppendRequest)) {
      Clock::time_point now = Clock::now();
      bool admitted = conn.bucket.TryTake(options_.conn_rate_limit,
                                          options_.conn_rate_burst, now) &&
                      global_bucket_.TryTake(options_.global_rate_limit,
                                             options_.global_rate_burst,
                                             now);
      if (!admitted) {
        off += wire::kHeaderSize + header.payload_length;
        frames_received_.fetch_add(1, std::memory_order_relaxed);
        rate_limited_frames_.fetch_add(1, std::memory_order_relaxed);
        wire::EncodeResult(util::Status::ResourceExhausted("rate limited"),
                           &bytes);
        ++answered;
        conn.rate_limited_streak++;
        if (options_.rate_limit_disconnect_streak > 0 &&
            conn.rate_limited_streak >=
                options_.rate_limit_disconnect_streak) {
          // A sustained flood: send what this quantum answered, then
          // drop the connection.
          drop = DisconnectReason::kRateLimited;
          break;
        }
        continue;
      }
      conn.rate_limited_streak = 0;
    }
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(rest, &frame);
    if (!consumed.ok() || *consumed == 0) {
      // Unreachable after the header peek; defend anyway.
      poison(consumed.ok() ? util::Status::Internal("frame decode stalled")
                           : consumed.status());
      break;
    }
    off += *consumed;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (frame.type == wire::FrameType::kQuery) {
      auto decoded = wire::DecodeQuery(frame);
      if (decoded.ok()) {
        wire::EncodeResult(service_->QueryRecord(decoded->query), &bytes);
        queries_dispatched_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Well-formed frame, malformed query payload: a typed error in
        // this frame's place; the connection lives on.
        wire::EncodeResult(
            util::Status::InvalidArgument("malformed query payload"),
            &bytes);
      }
    } else if (frame.type == wire::FrameType::kInfoRequest) {
      wire::EncodeInfo(MakeInfo(), &bytes);
    } else if (frame.type == wire::FrameType::kAppendRequest) {
      AnswerAppend(frame, &bytes);
    } else {
      // kResult/kError/kInfo from a client: protocol violation.
      poison(util::Status::InvalidArgument("unexpected client frame type"));
      break;
    }
    ++answered;
  }
  if (poisoned) {
    // Closing with cleared input: no further reads, no further answers.
    conn.closing = true;
    conn.in.clear();
  } else if (off > 0) {
    conn.in.erase(0, off);
  }
  if (conn.closing && partial) {
    // A truncated trailing frame at EOF or drain can never complete (no
    // more bytes will be read): drop the fragment so the connection can
    // drain shut.
    conn.in.clear();
    partial = false;
  }
  bool was_partial = conn.partial_frame;
  conn.partial_frame = partial;
  if (partial && !was_partial) {
    // A frame prefix just appeared: start the slow-loris progress window.
    conn.window_start = Clock::now();
    conn.window_start_bytes = conn.bytes_read;
  }
  if (answered > 0) {
    responses_sent_.fetch_add(answered, std::memory_order_relaxed);
    QueueWrite(id, conn, std::move(bytes));
  }
  if (drop && !conn.dead) Disconnect(conn, *drop);
  if (conn.dead) return;
  if (more) {
    MarkReady(id, conn);
  } else if (conn.closing && conn.in.empty() &&
             conn.out_off >= conn.out.size()) {
    MarkDead(conn);  // nothing left to answer or flush: close now
    return;
  }
  UpdateConnState(id, conn);
}

void Server::AnswerAppend(const wire::Frame& frame, std::string* out) {
  auto record = wire::DecodeAppend(frame);
  if (!record.ok()) {
    wire::EncodeResult(
        util::Status::InvalidArgument("malformed append payload"), out);
    return;
  }
  if (builder_ == nullptr) {
    wire::EncodeResult(util::Status::Unavailable("live ingest disabled"),
                       out);
    return;
  }
  auto submitted = builder_->Submit(std::move(*record));
  if (!submitted.ok()) {
    wire::EncodeResult(submitted.status(), out);
    return;
  }
  appends_accepted_.fetch_add(1, std::memory_order_relaxed);
  wire::AppendAck ack;
  ack.record_idx = *submitted;
  ack.generation = service_->index_manager().generation();
  // With a WAL behind the builder, Submit returned only after the
  // fsync — tell the client this ack survives a crash.
  ack.durable = builder_->durable();
  ack.wal_sequence =
      ack.durable ? builder_->WalSequenceFor(
                        static_cast<data::RecordIdx>(*submitted))
                  : 0;
  wire::EncodeAppendAck(ack, out);
}

void Server::QueueWrite(uint64_t id, Connection& conn, std::string bytes) {
  if (conn.dead) return;
  if (conn.out_off == conn.out.size()) {
    conn.out = std::move(bytes);
    conn.out_off = 0;
  } else {
    conn.out.append(bytes);
  }
  BumpPeak(peak_out_buffer_, conn.out.size() - conn.out_off);
  HandleWritable(id, conn);
  if (conn.dead) return;
  // The slow-reader bound: responses the peer refuses to drain pile up
  // here; past the cap the connection is dropped instead of letting one
  // peer hold server memory hostage.
  if (options_.max_out_buffer > 0 &&
      conn.out.size() - conn.out_off > options_.max_out_buffer) {
    Disconnect(conn, DisconnectReason::kWriteStall);
  }
}

void Server::HandleWritable(uint64_t id, Connection& conn) {
  if (conn.dead) return;
  while (conn.out_off < conn.out.size()) {
    auto r = conn.sock.WriteSome(conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off);
    if (!r.ok()) {
      socket_errors_.fetch_add(1, std::memory_order_relaxed);
      MarkDead(conn);
      return;
    }
    if (r->would_block || r->bytes == 0) break;
    conn.out_off += r->bytes;
    conn.last_write_progress = Clock::now();
    conn.last_activity = conn.last_write_progress;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.closing && conn.in.empty()) {
      MarkDead(conn);
      return;
    }
  }
  // A listed connection gets its state updated after its quantum this
  // turn; updating it here, before its frames are answered, would pause
  // its reads for nothing.
  if (!conn.ready) UpdateConnState(id, conn);
}

void Server::UpdateConnState(uint64_t id, Connection& conn) {
  if (conn.dead) return;
  bool stopping = stop_requested_.load(std::memory_order_acquire);
  // The backpressure predicate: a connection still holding a whole
  // unanswered frame after its quantum is on the ready list; its reads
  // pause until it holds none — the kernel socket buffer and TCP flow
  // control take it from there.
  bool pressure = conn.ready;
  bool want_read = !conn.closing && !stopping && !pressure;
  bool want_write = conn.out_off < conn.out.size();
  bool was_armed = conn.reads_armed;
  if (want_read != conn.reads_armed || want_write != conn.want_write) {
    conn.reads_armed = want_read;
    conn.want_write = want_write;
    epoll_event ev{};
    // EPOLLRDHUP only rides along with reads: once reads are off (paused
    // or closing) a level-triggered RDHUP would spin the loop.
    ev.events = (want_read ? (EPOLLIN | EPOLLRDHUP) : 0u) |
                (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
  }
  // The paused gauge counts backpressure pauses, not closing/draining.
  bool paused = !conn.closing && !stopping && pressure;
  if (paused != conn.read_paused) {
    conn.read_paused = paused;
    if (paused) {
      paused_reads_.fetch_add(1, std::memory_order_relaxed);
    } else {
      paused_reads_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // A pause the server imposed must not count against the peer's read
  // rate: restart the slow-loris window when reads resume.
  if (want_read && !was_armed && conn.partial_frame) {
    conn.window_start = Clock::now();
    conn.window_start_bytes = conn.bytes_read;
  }
  if (stopping) return;  // drain mode: the drain deadline governs
  // The connection's nearest defense deadline.
  Clock::time_point next = Clock::time_point::max();
  size_t backlog = conn.out.size() - conn.out_off;
  bool quiescent = backlog == 0 && conn.in.empty();
  if (options_.idle_timeout_ms > 0 && quiescent && !conn.closing) {
    next = std::min(next, conn.last_activity +
                              MillisDuration(options_.idle_timeout_ms));
  }
  if (conn.partial_frame && conn.reads_armed &&
      options_.min_read_bytes_per_sec > 0 &&
      options_.progress_window_ms > 0) {
    next = std::min(next, conn.window_start +
                              MillisDuration(options_.progress_window_ms));
  }
  if (backlog > 0 && options_.write_stall_timeout_ms > 0) {
    next = std::min(next,
                    conn.last_write_progress +
                        MillisDuration(options_.write_stall_timeout_ms));
  }
  conn.deadline = next;
}

Server::Clock::time_point Server::ExpireDeadlines() {
  Clock::time_point now = Clock::now();
  Clock::time_point earliest = Clock::time_point::max();
  // OnConnDeadline only flags a connection dead (ReapDead erases it at
  // the top of the next turn), so iterating conns_ here stays valid.
  for (auto& [id, conn] : conns_) {
    if (conn.dead) continue;
    if (conn.deadline <= now) OnConnDeadline(id, conn);
    if (!conn.dead) earliest = std::min(earliest, conn.deadline);
  }
  return earliest;
}

void Server::OnConnDeadline(uint64_t id, Connection& conn) {
  Clock::time_point now = Clock::now();
  size_t backlog = conn.out.size() - conn.out_off;
  bool quiescent = backlog == 0 && conn.in.empty();
  if (options_.idle_timeout_ms > 0 && quiescent && !conn.closing &&
      now - conn.last_activity >=
          MillisDuration(options_.idle_timeout_ms)) {
    Disconnect(conn, DisconnectReason::kIdle);
    return;
  }
  if (conn.partial_frame && conn.reads_armed &&
      options_.min_read_bytes_per_sec > 0 &&
      options_.progress_window_ms > 0 &&
      now - conn.window_start >=
          MillisDuration(options_.progress_window_ms)) {
    double window_sec =
        std::chrono::duration<double>(now - conn.window_start).count();
    double needed = options_.min_read_bytes_per_sec * window_sec;
    double got =
        static_cast<double>(conn.bytes_read - conn.window_start_bytes);
    if (got < needed) {
      Disconnect(conn, DisconnectReason::kSlowloris);
      return;
    }
    // Progress was made: a fresh window.
    conn.window_start = now;
    conn.window_start_bytes = conn.bytes_read;
  }
  if (backlog > 0 && options_.write_stall_timeout_ms > 0 &&
      now - conn.last_write_progress >=
          MillisDuration(options_.write_stall_timeout_ms)) {
    Disconnect(conn, DisconnectReason::kWriteStall);
    return;
  }
  UpdateConnState(id, conn);  // reschedules whatever deadline is next
}

void Server::Disconnect(Connection& conn, DisconnectReason reason) {
  if (conn.dead) return;
  switch (reason) {
    case DisconnectReason::kIdle:
      disconnects_idle_.fetch_add(1, std::memory_order_relaxed);
      break;
    case DisconnectReason::kSlowloris:
      disconnects_slowloris_.fetch_add(1, std::memory_order_relaxed);
      break;
    case DisconnectReason::kOversize:
      disconnects_oversize_.fetch_add(1, std::memory_order_relaxed);
      break;
    case DisconnectReason::kRateLimited:
      disconnects_rate_limited_.fetch_add(1, std::memory_order_relaxed);
      break;
    case DisconnectReason::kWriteStall:
      disconnects_write_stall_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  MarkDead(conn);
}

void Server::MarkDead(Connection& conn) {
  if (conn.dead) return;
  if (conn.read_paused) {
    conn.read_paused = false;
    paused_reads_.fetch_sub(1, std::memory_order_relaxed);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.sock.fd(), nullptr);
  conn.sock.Close();
  conn.dead = true;
  // closed_ before the gauge, which releases it to stats().
  closed_.fetch_add(1, std::memory_order_relaxed);
  open_connections_.fetch_sub(1, std::memory_order_release);
}

void Server::ReapDead() {
  std::erase_if(conns_, [](const auto& kv) { return kv.second.dead; });
}

}  // namespace yver::serve::net
