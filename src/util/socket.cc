#include "util/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "util/fault_injector.h"

namespace yver::util {

namespace {

Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

/// Applies the deterministic fault mix to one I/O attempt: UNAVAILABLE on
/// an injected error, a truncated request length on an injected short
/// read/write (forcing the partial-I/O path), pass-through otherwise.
Status InjectAndTruncate(FaultPoint point, size_t* n) {
  switch (FaultInjector::Global().Evaluate(point)) {
    case FaultKind::kIoError:
      return Status::Unavailable(std::string("injected socket error at ") +
                                 FaultPointName(point));
    case FaultKind::kShortRead:
      if (*n > 1) *n = 1;  // fragment, never corrupt
      break;
    case FaultKind::kLatency:
    case FaultKind::kNone:
      break;
  }
  return Status::Ok();
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Socket> Socket::Listen(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd, backlog) != 0) return Errno("listen");
  return sock;
}

StatusOr<Socket> Socket::ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Errno("connect");
  return sock;
}

StatusOr<uint16_t> Socket::LocalPort() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

StatusOr<Socket> Socket::Accept() {
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Socket();
    return Errno("accept");
  }
  return Socket(fd);
}

Status Socket::SetNonBlocking(bool non_blocking) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  flags = non_blocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::Ok();
}

Status Socket::SetNoDelay(bool no_delay) {
  int one = no_delay ? 1 : 0;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::Ok();
}

StatusOr<IoResult> Socket::ReadSome(void* buf, size_t n) {
  Status injected = InjectAndTruncate(FaultPoint::kSocketRead, &n);
  if (!injected.ok()) return injected;
  ssize_t r;
  do {
    r = ::read(fd_, buf, n);
  } while (r < 0 && errno == EINTR);
  IoResult result;
  if (r > 0) {
    result.bytes = static_cast<size_t>(r);
  } else if (r == 0) {
    result.eof = true;
  } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
    result.would_block = true;
  } else {
    return Errno("read");
  }
  return result;
}

StatusOr<IoResult> Socket::WriteSome(const void* buf, size_t n) {
  Status injected = InjectAndTruncate(FaultPoint::kSocketWrite, &n);
  if (!injected.ok()) return injected;
  ssize_t r;
  do {
    // send + MSG_NOSIGNAL: a peer that vanished mid-response must surface
    // as a typed UNAVAILABLE, not a process-killing SIGPIPE.
    r = ::send(fd_, buf, n, MSG_NOSIGNAL);
  } while (r < 0 && errno == EINTR);
  IoResult result;
  if (r >= 0) {
    result.bytes = static_cast<size_t>(r);
  } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
    result.would_block = true;
  } else if (errno == EPIPE || errno == ECONNRESET) {
    return Status::Unavailable("connection closed by peer");
  } else {
    return Errno("write");
  }
  return result;
}

Status Socket::AwaitReady(IoDirection direction,
                          const Deadline& deadline) const {
  if (deadline.is_infinite()) return Status::Ok();
  const char* what =
      direction == IoDirection::kRead ? "socket read" : "socket write";
  double remaining = deadline.RemainingMillis();
  if (remaining <= 0) {
    return Status::DeadlineExceeded(std::string("deadline expired at ") +
                                    what);
  }
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = direction == IoDirection::kRead ? POLLIN : POLLOUT;
  int rc;
  do {
    rc = ::poll(&pfd, 1, static_cast<int>(remaining) + 1);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Errno("poll");
  if (rc == 0) {
    return Status::DeadlineExceeded(std::string("deadline expired at ") +
                                    what);
  }
  return Status::Ok();
}

Status Socket::ReadFull(void* buf, size_t n, const Deadline& deadline) {
  auto* p = static_cast<char*>(buf);
  size_t done = 0;
  while (done < n) {
    Status ready = AwaitReady(IoDirection::kRead, deadline);
    if (!ready.ok()) return ready;
    auto r = ReadSome(p + done, n - done);
    if (!r.ok()) return r.status();
    if (r->eof) return Status::Unavailable("connection closed");
    done += r->bytes;
  }
  return Status::Ok();
}

Status Socket::WriteFull(const void* buf, size_t n, const Deadline& deadline) {
  const auto* p = static_cast<const char*>(buf);
  size_t done = 0;
  while (done < n) {
    Status ready = AwaitReady(IoDirection::kWrite, deadline);
    if (!ready.ok()) return ready;
    auto r = WriteSome(p + done, n - done);
    if (!r.ok()) return r.status();
    done += r->bytes;
  }
  return Status::Ok();
}

}  // namespace yver::util
