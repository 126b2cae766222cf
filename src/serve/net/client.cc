#include "serve/net/client.h"

#include <sys/socket.h>

#include <cstring>
#include <utility>

namespace yver::serve::net {

util::StatusOr<Client> Client::Connect(uint16_t port) {
  auto sock = util::Socket::ConnectLoopback(port);
  if (!sock.ok()) return sock.status();
  util::Status nd = sock->SetNoDelay(true);
  if (!nd.ok()) return nd;
  return Client(std::move(*sock));
}

util::Status Client::FinishSending() {
  if (::shutdown(sock_.fd(), SHUT_WR) != 0) {
    return util::Status::Unavailable("shutdown(SHUT_WR) failed");
  }
  return util::Status::Ok();
}

util::Status Client::SendQuery(const Query& query, double deadline_ms) {
  std::string bytes;
  wire::EncodeQuery(query, deadline_ms, &bytes);
  return SendBytes(bytes);
}

util::Status Client::SendBytes(std::string_view bytes,
                               const util::Deadline& deadline) {
  return sock_.WriteFull(bytes.data(), bytes.size(), deadline);
}

util::Status Client::SendInfoRequest() {
  std::string bytes;
  wire::EncodeInfoRequest(&bytes);
  return SendBytes(bytes);
}

util::Deadline Client::EffectiveDeadline(
    const util::Deadline& deadline) const {
  if (!deadline.is_infinite() || read_timeout_ms_ <= 0) return deadline;
  return util::Deadline::AfterMillis(read_timeout_ms_);
}

util::Status Client::Buffer(size_t need, const util::Deadline& deadline) {
  if (recv_end_ - recv_begin_ >= need) return util::Status::Ok();
  if (recv_begin_ > 0) {  // less than one frame is left: move it up front
    std::memmove(recv_.data(), recv_.data() + recv_begin_,
                 recv_end_ - recv_begin_);
    recv_end_ -= recv_begin_;
    recv_begin_ = 0;
  }
  if (need > recv_.size()) recv_.resize(need);
  while (recv_end_ < need) {
    util::Status ready = sock_.AwaitReady(util::IoDirection::kRead, deadline);
    if (!ready.ok()) return ready;
    auto r = sock_.ReadSome(recv_.data() + recv_end_,
                            recv_.size() - recv_end_);
    if (!r.ok()) return r.status();
    if (r->eof) return util::Status::Unavailable("connection closed");
    recv_end_ += r->bytes;
  }
  return util::Status::Ok();
}

util::StatusOr<std::string> Client::ReadFrameBytes(
    const util::Deadline& deadline) {
  if (recv_.empty()) {  // the first read, or a moved-from client
    recv_.resize(kRecvBufferBytes);
    recv_begin_ = recv_end_ = 0;
  }
  // Header first: PeekFrameHeader validates the whole envelope (magic,
  // version, type, declared length bound) from the 8 header bytes, so a
  // hostile length field is rejected before the buffer grows or a single
  // payload byte is awaited — the same pre-allocation check the server
  // runs.
  util::Deadline budget = EffectiveDeadline(deadline);
  util::Status st = Buffer(wire::kHeaderSize, budget);
  if (!st.ok()) return st;
  wire::FrameHeader header;
  auto peeked = wire::PeekFrameHeader(
      std::string_view(recv_.data() + recv_begin_, wire::kHeaderSize),
      &header);
  if (!peeked.ok()) return peeked.status();
  size_t frame_size = wire::kHeaderSize + header.payload_length;
  st = Buffer(frame_size, budget);
  if (!st.ok()) return st;
  std::string frame(recv_.data() + recv_begin_, frame_size);
  recv_begin_ += frame_size;
  if (recv_begin_ == recv_end_) recv_begin_ = recv_end_ = 0;
  return frame;
}

util::StatusOr<QueryResult> Client::ReadResult(
    const util::Deadline& deadline) {
  auto bytes = ReadFrameBytes(deadline);
  if (!bytes.ok()) return bytes.status();
  wire::Frame frame;
  auto consumed = wire::ExtractFrame(*bytes, &frame);
  if (!consumed.ok()) return consumed.status();
  if (*consumed != bytes->size()) {
    return util::Status::DataLoss("response frame size mismatch");
  }
  return wire::DecodeResult(frame);
}

util::StatusOr<QueryResult> Client::Call(const Query& query,
                                         double deadline_ms,
                                         const util::Deadline& deadline) {
  util::Status st = SendQuery(query, deadline_ms);
  if (!st.ok()) return st;
  return ReadResult(deadline);
}

util::StatusOr<wire::ServerInfo> Client::Info(const util::Deadline& deadline) {
  util::Status st = SendInfoRequest();
  if (!st.ok()) return st;
  auto bytes = ReadFrameBytes(deadline);
  if (!bytes.ok()) return bytes.status();
  wire::Frame frame;
  auto consumed = wire::ExtractFrame(*bytes, &frame);
  if (!consumed.ok()) return consumed.status();
  return wire::DecodeInfo(frame);
}

util::Status Client::SendAppend(const data::Record& record) {
  std::string bytes;
  wire::EncodeAppend(record, &bytes);
  return SendBytes(bytes);
}

util::StatusOr<wire::AppendAck> Client::ReadAppendAck(
    const util::Deadline& deadline) {
  auto bytes = ReadFrameBytes(deadline);
  if (!bytes.ok()) return bytes.status();
  wire::Frame frame;
  auto consumed = wire::ExtractFrame(*bytes, &frame);
  if (!consumed.ok()) return consumed.status();
  if (frame.type == wire::FrameType::kError) {
    // DecodeResult owns the error-frame decoding; surface its Status.
    auto result = wire::DecodeResult(frame);
    if (result.ok()) {
      return util::Status::DataLoss("error frame decoded as a result");
    }
    return result.status();
  }
  return wire::DecodeAppendAck(frame);
}

util::StatusOr<wire::AppendAck> Client::Append(
    const data::Record& record, const util::Deadline& deadline) {
  util::Status st = SendAppend(record);
  if (!st.ok()) return st;
  return ReadAppendAck(deadline);
}

}  // namespace yver::serve::net
