#ifndef YVER_SERVE_NET_CLIENT_H_
#define YVER_SERVE_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/query.h"
#include "serve/wire.h"
#include "util/deadline.h"
#include "util/socket.h"
#include "util/status.h"

namespace yver::serve::net {

/// A blocking wire client for one connection to a serve::net::Server.
///
/// The API splits sends from receives so callers can pipeline: any number
/// of SendQuery/SendBytes calls may be outstanding, and responses come
/// back strictly in send order (the server's ordering contract). The
/// receive side exposes both decoded results (ReadResult) and the raw
/// response frame bytes (ReadFrameBytes) — the raw form is what the
/// byte-equality tests and the load generator's response hash consume.
///
/// Responses are read by the burst: the client keeps a receive buffer and
/// returns whole frames out of it, touching the socket only when no whole
/// frame is buffered — then with one deadline-bounded readiness wait and
/// one large read, however many answers that read brings in.
///
/// Thread contract: one sender plus one reader. One thread may call the
/// Send* methods and FinishSending while another calls the Read* methods
/// (the open-loop load generators do exactly that); the receive buffer
/// and the read timeout belong to the reader alone. Call, Info and Append
/// send and read, so they count as both. Connect, Close, moves and
/// set_read_timeout_ms need the Client to themselves.
class Client {
 public:
  Client() = default;

  /// Blocking connect to 127.0.0.1:`port` (TCP_NODELAY on).
  static util::StatusOr<Client> Connect(uint16_t port);

  bool connected() const { return sock_.valid(); }

  /// Default budget for every blocking read whose caller passes no
  /// explicit deadline: after this many milliseconds without the frame
  /// arriving, the read returns a typed DEADLINE_EXCEEDED instead of
  /// hanging forever on a stalled or hostile server. 0 (the default)
  /// keeps the historical block-forever behaviour. An explicit per-call
  /// deadline always wins over this knob.
  void set_read_timeout_ms(double ms) { read_timeout_ms_ = ms; }
  double read_timeout_ms() const { return read_timeout_ms_; }

  /// Half-closes the send direction: the server sees EOF, answers every
  /// query already sent, then closes. Reads still work.
  util::Status FinishSending();

  void Close() { sock_.Close(); }

  /// Encodes and sends one query frame with a relative millisecond
  /// deadline budget (0 = none). Does not wait for the response.
  util::Status SendQuery(const Query& query, double deadline_ms = 0.0);

  /// Sends pre-encoded frame bytes verbatim — the replay path: captured
  /// query frames go back on the wire byte-identically.
  util::Status SendBytes(std::string_view bytes,
                         const util::Deadline& deadline = {});

  /// Sends a kInfoRequest frame.
  util::Status SendInfoRequest();

  /// Reads exactly one response frame and returns its raw bytes (header +
  /// payload). The header is checked (wire::PeekFrameHeader) before any
  /// payload is awaited, so a hostile length is refused from the header
  /// alone. UNAVAILABLE when the server closed the connection first,
  /// mid-frame included; DEADLINE_EXCEEDED when the frame is not whole
  /// by the deadline.
  util::StatusOr<std::string> ReadFrameBytes(
      const util::Deadline& deadline = {});

  /// Reads one response frame and decodes it as the answer to the oldest
  /// unanswered query: the QueryResult on kResult, the server's typed
  /// Status on kError (an expired deadline surfaces here as
  /// DEADLINE_EXCEEDED, exactly like the in-process API).
  util::StatusOr<QueryResult> ReadResult(const util::Deadline& deadline = {});

  /// SendQuery + ReadResult: the convenience round trip.
  util::StatusOr<QueryResult> Call(const Query& query,
                                   double deadline_ms = 0.0,
                                   const util::Deadline& deadline = {});

  /// SendInfoRequest + read + decode.
  util::StatusOr<wire::ServerInfo> Info(const util::Deadline& deadline = {});

  /// Encodes and sends one kAppendRequest frame carrying `record`. Does
  /// not wait for the ack.
  util::Status SendAppend(const data::Record& record);

  /// Reads one response frame as the answer to the oldest unanswered
  /// append: the AppendAck on kAppendAck, the server's typed Status on
  /// kError (UNAVAILABLE when the server runs without live ingest).
  util::StatusOr<wire::AppendAck> ReadAppendAck(
      const util::Deadline& deadline = {});

  /// SendAppend + ReadAppendAck: the convenience round trip.
  util::StatusOr<wire::AppendAck> Append(const data::Record& record,
                                         const util::Deadline& deadline = {});

 private:
  explicit Client(util::Socket sock) : sock_(std::move(sock)) {}

  /// The caller's deadline when it has one; otherwise a fresh deadline
  /// from read_timeout_ms (infinite when the knob is unset).
  util::Deadline EffectiveDeadline(const util::Deadline& deadline) const;

  /// Reads from the socket until at least `need` bytes are buffered from
  /// recv_begin_. The unread tail moves to the front before a read, and
  /// the buffer grows only when `need` (one header-checked frame) is
  /// larger than it.
  util::Status Buffer(size_t need, const util::Deadline& deadline);

  /// Receive buffer size: 64 KiB holds hundreds of answers, so a
  /// pipelined burst comes in with one read.
  static constexpr size_t kRecvBufferBytes = 64 << 10;

  util::Socket sock_;
  double read_timeout_ms_ = 0;
  /// Bytes [recv_begin_, recv_end_) of recv_ are read but not returned.
  std::vector<char> recv_;
  size_t recv_begin_ = 0;
  size_t recv_end_ = 0;
};

}  // namespace yver::serve::net

#endif  // YVER_SERVE_NET_CLIENT_H_
