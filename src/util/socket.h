#ifndef YVER_UTIL_SOCKET_H_
#define YVER_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>

#include "util/deadline.h"
#include "util/status.h"

namespace yver::util {

/// Outcome of one non-blocking-aware socket read or write. Exactly one of
/// the three shapes holds: progress (`bytes > 0`), end-of-stream
/// (`eof`, reads only), or "try again later" (`would_block`). Hard errors
/// travel as the surrounding StatusOr.
struct IoResult {
  size_t bytes = 0;
  bool eof = false;
  bool would_block = false;
};

/// Which readiness Socket::AwaitReady waits for.
enum class IoDirection { kRead, kWrite };

/// A minimal owning TCP socket for the serving layer: loopback-friendly
/// listen/connect/accept plus Status-typed partial reads and writes.
///
/// Every ReadSome/WriteSome passes through the deterministic
/// util::FaultInjector at `net.socket.read` / `net.socket.write`: an
/// injected I/O error surfaces as UNAVAILABLE, an injected latency spike
/// stalls the call, and an injected "short read" truncates the requested
/// length to 1 byte — which never corrupts a byte stream, it just forces
/// the partial-read/short-write handling the frame codec must survive.
///
/// Move-only; the destructor closes the descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the descriptor now (idempotent).
  void Close();

  /// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
  /// port; read it back with LocalPort). SO_REUSEADDR is set so restart
  /// races in tests and scripts don't hit TIME_WAIT.
  static StatusOr<Socket> Listen(uint16_t port, int backlog = 128);

  /// Blocking connect to 127.0.0.1:`port`.
  static StatusOr<Socket> ConnectLoopback(uint16_t port);

  /// The locally bound port (after Listen with port 0).
  StatusOr<uint16_t> LocalPort() const;

  /// Accepts one pending connection. would_block (via the IoResult-style
  /// convention below) is reported as an invalid Socket with OK status —
  /// callers in the epoll loop check `valid()`.
  StatusOr<Socket> Accept();

  /// Switches the descriptor between blocking and non-blocking mode.
  Status SetNonBlocking(bool non_blocking);

  /// Disables Nagle's algorithm — a request/response protocol with small
  /// frames wants every flush on the wire immediately.
  Status SetNoDelay(bool no_delay);

  /// One read(2), EINTR-retried. See IoResult for the outcome shapes.
  StatusOr<IoResult> ReadSome(void* buf, size_t n);

  /// One write(2), EINTR-retried, short writes allowed.
  StatusOr<IoResult> WriteSome(const void* buf, size_t n);

  /// Waits until the descriptor is readable (kRead: bytes or EOF pending)
  /// or writable (kWrite), so a finite deadline actually interrupts a
  /// blocking socket — a bare read(2) would sleep past any expiry check.
  /// An infinite deadline returns OK at once and leaves the blocking to
  /// the next ReadSome/WriteSome; an expired one, or one that runs out
  /// while waiting, is DEADLINE_EXCEEDED. One poll(2), EINTR-retried.
  Status AwaitReady(IoDirection direction, const Deadline& deadline) const;

  /// Blocking helpers for the client side: loop until exactly `n` bytes
  /// moved, the peer closes (ReadFull: UNAVAILABLE "connection closed"),
  /// or the deadline expires (DEADLINE_EXCEEDED). Only meaningful on
  /// blocking-mode sockets.
  Status ReadFull(void* buf, size_t n, const Deadline& deadline = {});
  Status WriteFull(const void* buf, size_t n, const Deadline& deadline = {});

 private:
  int fd_ = -1;
};

}  // namespace yver::util

#endif  // YVER_UTIL_SOCKET_H_
