#include "serve/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace yver::serve::wire {

namespace {

// Little-endian primitives, written byte-by-byte so the codec is
// byte-order independent (the determinism contract is about bytes on the
// wire, not host memory layout).

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

/// Bounds-checked sequential reader over a frame payload. Every Read*
/// returns false once the payload is exhausted; callers bail out with one
/// typed DATA_LOSS instead of checking lengths at every field.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload)
      : p_(reinterpret_cast<const uint8_t*>(payload.data())),
        n_(payload.size()) {}

  bool ReadU8(uint8_t* v) {
    if (n_ - off_ < 1) return false;
    *v = p_[off_++];
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (n_ - off_ < 2) return false;
    *v = static_cast<uint16_t>(p_[off_] | (p_[off_ + 1] << 8));
    off_ += 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (n_ - off_ < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(p_[off_ + i]) << (8 * i);
    off_ += 4;
    *v = r;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (n_ - off_ < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(p_[off_ + i]) << (8 * i);
    off_ += 8;
    *v = r;
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }
  bool ReadBytes(std::string* out, size_t len) {
    if (n_ - off_ < len) return false;
    out->assign(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return true;
  }

  size_t remaining() const { return n_ - off_; }
  bool Done() const { return off_ == n_; }

 private:
  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
};

util::Status Truncated(const char* what) {
  return util::Status::DataLoss(std::string("truncated ") + what +
                                " payload");
}

util::Status TrailingBytes(const char* what) {
  return util::Status::DataLoss(std::string(what) +
                                " payload has trailing bytes");
}

/// StatusCode <-> wire byte. The wire values are frozen independently of
/// the enum so reordering StatusCode can never silently change captures.
uint8_t StatusCodeToWire(util::StatusCode code) {
  switch (code) {
    case util::StatusCode::kOk: return 0;
    case util::StatusCode::kInvalidArgument: return 1;
    case util::StatusCode::kNotFound: return 2;
    case util::StatusCode::kOutOfRange: return 3;
    case util::StatusCode::kDataLoss: return 4;
    case util::StatusCode::kInternal: return 5;
    case util::StatusCode::kDeadlineExceeded: return 6;
    case util::StatusCode::kResourceExhausted: return 7;
    case util::StatusCode::kUnavailable: return 8;
  }
  return 5;  // unreachable; map to kInternal
}

bool StatusCodeFromWire(uint8_t byte, util::StatusCode* code) {
  switch (byte) {
    case 0: *code = util::StatusCode::kOk; return true;
    case 1: *code = util::StatusCode::kInvalidArgument; return true;
    case 2: *code = util::StatusCode::kNotFound; return true;
    case 3: *code = util::StatusCode::kOutOfRange; return true;
    case 4: *code = util::StatusCode::kDataLoss; return true;
    case 5: *code = util::StatusCode::kInternal; return true;
    case 6: *code = util::StatusCode::kDeadlineExceeded; return true;
    case 7: *code = util::StatusCode::kResourceExhausted; return true;
    case 8: *code = util::StatusCode::kUnavailable; return true;
    default: return false;
  }
}

void PutQueryEcho(std::string* out, const Query& query) {
  PutU32(out, query.record);
  PutF64(out, query.certainty);
  PutU64(out, query.k);
  PutU8(out, static_cast<uint8_t>(query.granularity));
}

// Reads the query fields a kQuery payload and a kResult echo share.
// False on truncation; the granularity byte is stored as read, so callers
// reject an unknown one with KnownGranularity.
bool ReadQueryEcho(PayloadReader* r, Query* query) {
  uint64_t k = 0;
  uint8_t granularity = 0;
  if (!r->ReadU32(&query->record) || !r->ReadF64(&query->certainty) ||
      !r->ReadU64(&k) || !r->ReadU8(&granularity)) {
    return false;
  }
  query->k = static_cast<size_t>(k);
  query->granularity = static_cast<Granularity>(granularity);
  return true;
}

bool KnownGranularity(Granularity granularity) {
  return granularity <= Granularity::kEntity;
}

}  // namespace

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  out->reserve(out->size() + kHeaderSize + payload.size());
  PutU8(out, kMagic0);
  PutU8(out, kMagic1);
  PutU8(out, kVersion);
  PutU8(out, static_cast<uint8_t>(type));
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

util::StatusOr<size_t> PeekFrameHeader(std::string_view buffer,
                                       FrameHeader* header) {
  if (buffer.size() < kHeaderSize) return size_t{0};
  const auto* p = reinterpret_cast<const uint8_t*>(buffer.data());
  if (p[0] != kMagic0 || p[1] != kMagic1) {
    return util::Status::DataLoss("bad frame magic");
  }
  if (p[2] != kVersion) {
    return util::Status::InvalidArgument(
        "unsupported wire version " + std::to_string(p[2]) +
        " (this binary speaks " + std::to_string(kVersion) + ")");
  }
  if (p[3] < static_cast<uint8_t>(FrameType::kQuery) ||
      p[3] > static_cast<uint8_t>(FrameType::kAppendAck)) {
    return util::Status::InvalidArgument("unknown frame type " +
                                         std::to_string(p[3]));
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(p[4 + i]) << (8 * i);
  }
  if (length > kMaxFramePayload) {
    return util::Status::DataLoss("frame payload length " +
                                  std::to_string(length) +
                                  " exceeds the protocol maximum");
  }
  header->type = static_cast<FrameType>(p[3]);
  header->payload_length = length;
  return kHeaderSize;
}

util::StatusOr<size_t> ExtractFrame(std::string_view buffer, Frame* frame) {
  FrameHeader header;
  auto peeked = PeekFrameHeader(buffer, &header);
  if (!peeked.ok()) return peeked.status();
  if (*peeked == 0) return size_t{0};
  if (buffer.size() < kHeaderSize + header.payload_length) return size_t{0};
  frame->type = header.type;
  frame->payload.assign(buffer.data() + kHeaderSize, header.payload_length);
  return kHeaderSize + header.payload_length;
}

// ---------------------------------------------------------------------------
// Query

void EncodeQuery(const Query& query, double deadline_ms, std::string* out) {
  std::string payload;
  payload.reserve(29);
  PutQueryEcho(&payload, query);
  PutF64(&payload, deadline_ms);
  AppendFrame(FrameType::kQuery, payload, out);
}

util::StatusOr<DecodedQuery> DecodeQuery(const Frame& frame) {
  if (frame.type != FrameType::kQuery) {
    return util::Status::InvalidArgument("not a query frame");
  }
  PayloadReader r(frame.payload);
  DecodedQuery decoded;
  if (!ReadQueryEcho(&r, &decoded.query) ||
      !r.ReadF64(&decoded.deadline_ms)) {
    return Truncated("query");
  }
  if (!r.Done()) return TrailingBytes("query");
  if (!KnownGranularity(decoded.query.granularity)) {
    return util::Status::InvalidArgument(
        "unknown granularity " +
        std::to_string(static_cast<int>(decoded.query.granularity)));
  }
  if (std::isnan(decoded.deadline_ms)) {
    return util::Status::InvalidArgument("query deadline is NaN");
  }
  // All-zero bits (= +0.0) is the "no deadline" sentinel; anything else is
  // a relative budget whose clock starts now, at decode time.
  if (std::bit_cast<uint64_t>(decoded.deadline_ms) != 0) {
    decoded.query.deadline = util::Deadline::AfterMillis(decoded.deadline_ms);
  }
  return decoded;
}

// ---------------------------------------------------------------------------
// Result / error

void EncodeResult(const util::StatusOr<QueryResult>& result,
                  std::string* out) {
  std::string payload;
  if (!result.ok()) {
    const util::Status& status = result.status();
    payload.reserve(3 + status.message().size());
    PutU8(&payload, StatusCodeToWire(status.code()));
    size_t len = std::min<size_t>(status.message().size(), 0xffff);
    PutU16(&payload, static_cast<uint16_t>(len));
    payload.append(status.message(), 0, len);
    AppendFrame(FrameType::kError, payload, out);
    return;
  }
  const QueryResult& r = *result;
  payload.reserve(22 + 8 + r.matches.size() * 24 + r.entity.size() * 4);
  PutU8(&payload, 0);  // result flags: none are defined
  PutQueryEcho(&payload, r.query);
  PutU32(&payload, static_cast<uint32_t>(r.matches.size()));
  for (const core::RankedMatch& m : r.matches) {
    PutU32(&payload, m.pair.a);
    PutU32(&payload, m.pair.b);
    PutF64(&payload, m.confidence);
    PutF64(&payload, m.block_score);
  }
  PutU32(&payload, static_cast<uint32_t>(r.entity.size()));
  for (data::RecordIdx member : r.entity) PutU32(&payload, member);
  PutU64(&payload, r.generation);  // which snapshot answered
  AppendFrame(FrameType::kResult, payload, out);
}

util::StatusOr<QueryResult> DecodeResult(const Frame& frame) {
  if (frame.type == FrameType::kError) {
    PayloadReader r(frame.payload);
    uint8_t code_byte = 0;
    uint16_t len = 0;
    std::string message;
    if (!r.ReadU8(&code_byte) || !r.ReadU16(&len) ||
        !r.ReadBytes(&message, len)) {
      return Truncated("error");
    }
    if (!r.Done()) return TrailingBytes("error");
    util::StatusCode code;
    if (!StatusCodeFromWire(code_byte, &code) ||
        code == util::StatusCode::kOk) {
      return util::Status::InvalidArgument("unknown status code " +
                                           std::to_string(code_byte) +
                                           " in error frame");
    }
    return util::Status(code, std::move(message));
  }
  if (frame.type != FrameType::kResult) {
    return util::Status::InvalidArgument("not a result frame");
  }
  PayloadReader r(frame.payload);
  QueryResult result;
  uint8_t flags = 0;
  if (!r.ReadU8(&flags) || !ReadQueryEcho(&r, &result.query)) {
    return Truncated("result");
  }
  if (!KnownGranularity(result.query.granularity)) {
    return util::Status::InvalidArgument(
        "unknown granularity in result echo");
  }
  if (flags != 0) {
    return util::Status::InvalidArgument("unknown result flags");
  }
  uint32_t match_count = 0;
  if (!r.ReadU32(&match_count)) return Truncated("result");
  if (r.remaining() < static_cast<size_t>(match_count) * 24) {
    return Truncated("result match list");
  }
  result.matches.reserve(match_count);
  for (uint32_t i = 0; i < match_count; ++i) {
    core::RankedMatch m;
    // RecordPair's ctor canonicalizes a <= b; read into locals so an
    // arbitrary (a, b) on the wire round-trips through the same ctor the
    // in-process path used.
    uint32_t a = 0, b = 0;
    if (!r.ReadU32(&a) || !r.ReadU32(&b) || !r.ReadF64(&m.confidence) ||
        !r.ReadF64(&m.block_score)) {
      return Truncated("result match list");
    }
    m.pair = data::RecordPair(a, b);
    result.matches.push_back(m);
  }
  uint32_t entity_count = 0;
  if (!r.ReadU32(&entity_count)) return Truncated("result");
  if (r.remaining() < static_cast<size_t>(entity_count) * 4) {
    return Truncated("result entity list");
  }
  result.entity.reserve(entity_count);
  for (uint32_t i = 0; i < entity_count; ++i) {
    uint32_t member = 0;
    if (!r.ReadU32(&member)) return Truncated("result entity list");
    result.entity.push_back(member);
  }
  if (!r.ReadU64(&result.generation)) return Truncated("result");
  if (!r.Done()) return TrailingBytes("result");
  return result;
}

// ---------------------------------------------------------------------------
// Server info

void EncodeInfoRequest(std::string* out) {
  AppendFrame(FrameType::kInfoRequest, {}, out);
}

void EncodeInfo(const ServerInfo& info, std::string* out) {
  std::string payload;
  payload.reserve(3 * 8 + 10 * 8 + 4 + kServiceLatencyBuckets * 8);
  PutU64(&payload, info.num_records);
  PutU64(&payload, info.num_matches);
  PutU64(&payload, info.checksum);
  PutU64(&payload, info.metrics.queries);
  PutU64(&payload, info.metrics.errors);
  PutU64(&payload, 0);  // reserved
  PutU64(&payload, 0);  // reserved
  PutU64(&payload, info.metrics.shed);
  PutU64(&payload, info.metrics.deadline_exceeded);
  PutU64(&payload, 0);  // reserved
  PutU64(&payload, 0);  // reserved (was the f64 total latency)
  PutU32(&payload, static_cast<uint32_t>(
                       info.metrics.latency_histogram_ns.size()));
  for (uint64_t bucket : info.metrics.latency_histogram_ns) {
    PutU64(&payload, bucket);
  }
  PutU64(&payload, info.metrics.generation);
  PutU64(&payload, info.metrics.publishes);
  PutU64(&payload, info.metrics.pinned_readers);
  PutU64(&payload, 0);  // reserved
  PutU64(&payload, info.net.open_connections);
  PutU64(&payload, info.net.paused_reads);
  PutU64(&payload, info.net.disconnects_idle);
  PutU64(&payload, info.net.disconnects_slowloris);
  PutU64(&payload, info.net.disconnects_oversize);
  PutU64(&payload, info.net.disconnects_rate_limited);
  PutU64(&payload, info.net.disconnects_write_stall);
  PutU64(&payload, info.net.rate_limited_frames);
  AppendFrame(FrameType::kInfo, payload, out);
}

util::StatusOr<ServerInfo> DecodeInfo(const Frame& frame) {
  if (frame.type != FrameType::kInfo) {
    return util::Status::InvalidArgument("not an info frame");
  }
  PayloadReader r(frame.payload);
  ServerInfo info;
  uint32_t buckets = 0;
  uint64_t reserved[5] = {0, 0, 0, 0, 0};
  if (!r.ReadU64(&info.num_records) || !r.ReadU64(&info.num_matches) ||
      !r.ReadU64(&info.checksum) || !r.ReadU64(&info.metrics.queries) ||
      !r.ReadU64(&info.metrics.errors) ||
      !r.ReadU64(&reserved[0]) || !r.ReadU64(&reserved[1]) ||
      !r.ReadU64(&info.metrics.shed) ||
      !r.ReadU64(&info.metrics.deadline_exceeded) ||
      !r.ReadU64(&reserved[2]) || !r.ReadU64(&reserved[3]) ||
      !r.ReadU32(&buckets)) {
    return Truncated("info");
  }
  if (buckets > 1024 || r.remaining() < static_cast<size_t>(buckets) * 8) {
    return Truncated("info histogram");
  }
  info.metrics.latency_histogram_ns.reserve(buckets);
  for (uint32_t i = 0; i < buckets; ++i) {
    uint64_t bucket = 0;
    if (!r.ReadU64(&bucket)) return Truncated("info histogram");
    info.metrics.latency_histogram_ns.push_back(bucket);
  }
  if (!r.ReadU64(&info.metrics.generation) ||
      !r.ReadU64(&info.metrics.publishes) ||
      !r.ReadU64(&info.metrics.pinned_readers) ||
      !r.ReadU64(&reserved[4]) ||
      !r.ReadU64(&info.net.open_connections) ||
      !r.ReadU64(&info.net.paused_reads) ||
      !r.ReadU64(&info.net.disconnects_idle) ||
      !r.ReadU64(&info.net.disconnects_slowloris) ||
      !r.ReadU64(&info.net.disconnects_oversize) ||
      !r.ReadU64(&info.net.disconnects_rate_limited) ||
      !r.ReadU64(&info.net.disconnects_write_stall) ||
      !r.ReadU64(&info.net.rate_limited_frames)) {
    return Truncated("info");
  }
  if (!r.Done()) return TrailingBytes("info");
  if ((reserved[0] | reserved[1] | reserved[2] | reserved[3] |
       reserved[4]) != 0) {
    return util::Status::InvalidArgument("nonzero reserved info slot");
  }
  return info;
}

// ---------------------------------------------------------------------------
// Live ingest

void EncodeAppend(const data::Record& record, std::string* out) {
  std::string payload;
  payload.reserve(31 + record.entries().size() * 12);
  PutU64(&payload, record.book_id);
  PutU32(&payload, record.source_id);
  PutU8(&payload, static_cast<uint8_t>(record.source_kind));
  PutU64(&payload, std::bit_cast<uint64_t>(record.entity_id));
  PutU64(&payload, std::bit_cast<uint64_t>(record.family_id));
  PutU16(&payload, static_cast<uint16_t>(
                       std::min<size_t>(record.entries().size(), 0xffff)));
  size_t n = std::min<size_t>(record.entries().size(), 0xffff);
  for (size_t i = 0; i < n; ++i) {
    const data::Record::Entry& entry = record.entries()[i];
    PutU8(&payload, static_cast<uint8_t>(entry.attr));
    size_t len = std::min<size_t>(entry.value.size(), 0xffff);
    PutU16(&payload, static_cast<uint16_t>(len));
    payload.append(entry.value, 0, len);
  }
  AppendFrame(FrameType::kAppendRequest, payload, out);
}

util::StatusOr<data::Record> DecodeAppend(const Frame& frame) {
  if (frame.type != FrameType::kAppendRequest) {
    return util::Status::InvalidArgument("not an append frame");
  }
  PayloadReader r(frame.payload);
  data::Record record;
  uint8_t source_kind = 0;
  uint64_t entity_bits = 0;
  uint64_t family_bits = 0;
  uint16_t num_entries = 0;
  if (!r.ReadU64(&record.book_id) || !r.ReadU32(&record.source_id) ||
      !r.ReadU8(&source_kind) || !r.ReadU64(&entity_bits) ||
      !r.ReadU64(&family_bits) || !r.ReadU16(&num_entries)) {
    return Truncated("append");
  }
  if (source_kind > static_cast<uint8_t>(data::SourceKind::kVictimList)) {
    return util::Status::InvalidArgument("unknown source kind " +
                                         std::to_string(source_kind));
  }
  record.source_kind = static_cast<data::SourceKind>(source_kind);
  record.entity_id = std::bit_cast<int64_t>(entity_bits);
  record.family_id = std::bit_cast<int64_t>(family_bits);
  for (uint16_t i = 0; i < num_entries; ++i) {
    uint8_t attr = 0;
    uint16_t len = 0;
    std::string value;
    if (!r.ReadU8(&attr) || !r.ReadU16(&len) || !r.ReadBytes(&value, len)) {
      return Truncated("append entry list");
    }
    if (attr >= data::kNumAttributes) {
      return util::Status::InvalidArgument("out-of-schema attribute " +
                                           std::to_string(attr));
    }
    // Record::Add drops empty values silently; that would make the decoded
    // record differ from the encoded one, so reject them typed instead.
    if (value.empty()) {
      return util::Status::InvalidArgument("empty attribute value");
    }
    record.Add(static_cast<data::AttributeId>(attr), std::move(value));
  }
  if (!r.Done()) return TrailingBytes("append");
  return record;
}

void EncodeAppendAck(const AppendAck& ack, std::string* out) {
  std::string payload;
  payload.reserve(25);
  PutU64(&payload, ack.record_idx);
  PutU64(&payload, ack.generation);
  PutU8(&payload, ack.durable ? 1 : 0);
  PutU64(&payload, ack.wal_sequence);
  AppendFrame(FrameType::kAppendAck, payload, out);
}

util::StatusOr<AppendAck> DecodeAppendAck(const Frame& frame) {
  if (frame.type != FrameType::kAppendAck) {
    return util::Status::InvalidArgument("not an append ack frame");
  }
  PayloadReader r(frame.payload);
  AppendAck ack;
  uint8_t durable = 0;
  if (!r.ReadU64(&ack.record_idx) || !r.ReadU64(&ack.generation) ||
      !r.ReadU8(&durable) || !r.ReadU64(&ack.wal_sequence)) {
    return Truncated("append ack");
  }
  if (durable > 1) {
    return util::Status::InvalidArgument("unknown durable flag " +
                                         std::to_string(durable));
  }
  ack.durable = durable != 0;
  if (!r.Done()) return TrailingBytes("append ack");
  return ack;
}

}  // namespace yver::serve::wire
