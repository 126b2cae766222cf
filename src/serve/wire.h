#ifndef YVER_SERVE_WIRE_H_
#define YVER_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "data/record.h"
#include "serve/query.h"
#include "serve/resolution_service.h"
#include "util/status.h"

namespace yver::serve::wire {

/// The transport-neutral serialization layer of the serving protocol
/// (DESIGN.md §12): one typed codec shared by the TCP front end
/// (serve::net), the record/replay capture format, and any future
/// transport. Everything on the wire is a length-prefixed frame:
///
///   offset 0  magic      0x59 'Y'
///   offset 1  magic      0x57 'W'
///   offset 2  version    kVersion (the only dialect, see below)
///   offset 3  frame type FrameType
///   offset 4  payload length, uint32 little-endian
///   offset 8  payload (length bytes)
///
/// All integers are little-endian; doubles travel as their IEEE-754 bit
/// patterns (bit-exact round-trip, NaN payloads included). Malformed input
/// always yields a typed util::Status — the decoder never crashes, never
/// over-reads, and never allocates more than kMaxFramePayload.
///
/// One dialect: a decoder accepts exactly kVersion and rejects every
/// other version byte with INVALID_ARGUMENT. Every peer, capture and WAL
/// segment is written by a binary that speaks this dialect, so there is no
/// older layout to decode with defaults and no newer one to guess at.

inline constexpr uint8_t kMagic0 = 0x59;  // 'Y'
inline constexpr uint8_t kMagic1 = 0x57;  // 'W'
inline constexpr uint8_t kVersion = 4;
inline constexpr size_t kHeaderSize = 8;
/// Upper bound on a single frame payload: a decode of a hostile length
/// field fails typed instead of attempting a huge allocation.
inline constexpr size_t kMaxFramePayload = 16u << 20;

enum class FrameType : uint8_t {
  kQuery = 1,          // client -> server: one serve::Query
  kResult = 2,         // server -> client: the OK answer to a query
  kError = 3,          // server -> client: a typed non-OK util::Status
  kInfoRequest = 4,    // client -> server: corpus + metrics snapshot request
  kInfo = 5,           // server -> client: ServerInfo
  kAppendRequest = 6,  // client -> server: one data::Record to ingest
  kAppendAck = 7,      // server -> client: assigned index + generation
};

/// One decoded frame: the type plus the raw payload bytes. The payload is
/// owned so a frame outlives the connection buffer it was parsed from.
struct Frame {
  FrameType type = FrameType::kQuery;
  std::string payload;
};

/// Appends a complete frame (header + payload) to `out`.
void AppendFrame(FrameType type, std::string_view payload, std::string* out);

/// The fixed fields of one frame header, parsed without touching payload.
struct FrameHeader {
  FrameType type = FrameType::kQuery;
  uint32_t payload_length = 0;
};

/// Validates and parses just the 8-byte header at the start of `buffer`.
/// Returns 0 when fewer than kHeaderSize bytes are available (read more
/// and retry), kHeaderSize with `*header` filled when the header is
/// well-formed, or the typed errors ExtractFrame gives for bad magic, an
/// unsupported version, an unknown type, or a declared length beyond
/// kMaxFramePayload. This is the hostile-input gate: callers learn the
/// declared payload length — and can reject it against their own tighter
/// caps — BEFORE reserving a single byte of payload buffer.
util::StatusOr<size_t> PeekFrameHeader(std::string_view buffer,
                                       FrameHeader* header);

/// Tries to parse one frame from the start of `buffer`. Returns the number
/// of bytes consumed (header + payload) with `*frame` filled, or 0 when
/// the buffer holds only a prefix of a frame (read more and retry — the
/// partial-read half of the protocol). Bad magic, an unsupported version,
/// an unknown frame type, or an oversized length field are typed errors:
/// the connection is poisoned and must be closed.
util::StatusOr<size_t> ExtractFrame(std::string_view buffer, Frame* frame);

// ---------------------------------------------------------------------------
// Query

/// A query as it travels: the semantic fields of serve::Query plus the
/// deadline as a relative millisecond budget (a steady-clock time_point is
/// meaningless across machines). `deadline_ms` encodes as its f64 bit
/// pattern; all-zero bits mean "no deadline". The decoder materializes the
/// budget into `query.deadline` at decode time, which is what propagates a
/// wire deadline into the service's deadline checks.
struct DecodedQuery {
  Query query;
  double deadline_ms = 0.0;  // 0 = infinite
};

/// Appends a kQuery frame for `query` with the given millisecond budget
/// (0 = none). The query's own `deadline` member is ignored — budgets are
/// wire metadata, exactly like Query::operator== treats them.
void EncodeQuery(const Query& query, double deadline_ms, std::string* out);

/// Decodes a kQuery frame. DATA_LOSS on a payload size mismatch,
/// INVALID_ARGUMENT on an unknown granularity or a NaN deadline. A NaN
/// certainty decodes fine and is rejected by serve::ValidateQuery
/// server-side, so the client gets the same typed error the in-process
/// API gives.
util::StatusOr<DecodedQuery> DecodeQuery(const Frame& frame);

// ---------------------------------------------------------------------------
// Result / error

/// Appends the answer to a query: a kResult frame when `result` is OK, a
/// kError frame (status code + message) otherwise. The result encoding
/// carries a flags byte (always 0; no flag is defined), the semantic
/// query echo, and the matches/entity payload — but NOT `from_cache`
/// (server-side observability, not part of the answer; excluding it is
/// what makes wire responses byte-equal across cache states and server
/// thread counts).
void EncodeResult(const util::StatusOr<QueryResult>& result,
                  std::string* out);

/// Decodes a kResult or kError frame into exactly what the in-process
/// ResolutionService::QueryRecord would have returned: the QueryResult on
/// kResult, the typed Status on kError. DATA_LOSS on truncated or
/// inconsistent payloads, INVALID_ARGUMENT on an unknown status code or a
/// nonzero flags byte.
util::StatusOr<QueryResult> DecodeResult(const Frame& frame);

// ---------------------------------------------------------------------------
// Server info

/// Connection-lifecycle gauges from the TCP front end (DESIGN.md §15)
/// — how many peers are connected, how many have reads paused for
/// backpressure, and why hostile ones were disconnected. The disconnect
/// counters are the observable half of the defense layer's typed-reason
/// taxonomy; the chaos harness asserts each adversary mode lands in the
/// right one.
struct NetGauges {
  uint64_t open_connections = 0;   // live (not yet reaped) connections
  uint64_t paused_reads = 0;       // connections with EPOLLIN deregistered
  uint64_t disconnects_idle = 0;
  uint64_t disconnects_slowloris = 0;
  uint64_t disconnects_oversize = 0;
  uint64_t disconnects_rate_limited = 0;
  uint64_t disconnects_write_stall = 0;
  uint64_t rate_limited_frames = 0;  // frames answered RESOURCE_EXHAUSTED
};

/// Corpus identity plus a ServiceMetrics snapshot: what a load generator
/// needs to shape a workload (record count) and report the server-side
/// latency histogram without a side channel.
struct ServerInfo {
  uint64_t num_records = 0;
  uint64_t num_matches = 0;
  uint64_t checksum = 0;
  ServiceMetrics metrics;
  NetGauges net;
};

/// Appends a kInfoRequest frame (empty payload).
void EncodeInfoRequest(std::string* out);

/// Appends a kInfo frame for `info`.
void EncodeInfo(const ServerInfo& info, std::string* out);

/// Decodes a kInfo frame. DATA_LOSS on size mismatch, INVALID_ARGUMENT
/// when either of the two reserved u64 slots (after deadline_exceeded
/// and after pinned_readers) is nonzero.
util::StatusOr<ServerInfo> DecodeInfo(const Frame& frame);

// ---------------------------------------------------------------------------
// Live ingest

/// The server's answer to a kAppendRequest: the record index the appended
/// report was assigned (it becomes queryable at that index once the
/// builder publishes) and the generation being served at ack time — the
/// client polls Info until the generation advances past this to know the
/// record is live.
struct AppendAck {
  uint64_t record_idx = 0;
  uint64_t generation = 0;
  /// True when the server wrote the record through a write-ahead log
  /// before acking — this ack survives a server crash (DESIGN.md §14).
  /// False from a server running without a WAL: the record is enqueued
  /// but a crash before the next snapshot loses it.
  bool durable = false;
  /// The WAL sequence the record occupies when durable (1-based;
  /// 0 when not durable). Mostly diagnostic — the record_idx is the
  /// queryable identity — but lets a client correlate acks with WAL
  /// segment files during recovery drills.
  uint64_t wal_sequence = 0;
};

/// Appends a kAppendRequest frame carrying one report: source metadata
/// plus the raw (attribute, value) entries. Values are length-prefixed
/// bytes, entries travel in insertion order (the item-interning sequence
/// depends on it, so the order is part of the determinism contract).
void EncodeAppend(const data::Record& record, std::string* out);

/// Decodes a kAppendRequest frame. DATA_LOSS on truncation or trailing
/// bytes, INVALID_ARGUMENT on an unknown source kind, an out-of-schema
/// attribute id, or an empty value (Record::Add would silently drop it,
/// breaking the round trip — reject instead).
util::StatusOr<data::Record> DecodeAppend(const Frame& frame);

/// Appends a kAppendAck frame.
void EncodeAppendAck(const AppendAck& ack, std::string* out);

/// Decodes a kAppendAck frame. DATA_LOSS on size mismatch,
/// INVALID_ARGUMENT on a durable flag other than 0 or 1.
util::StatusOr<AppendAck> DecodeAppendAck(const Frame& frame);

}  // namespace yver::serve::wire

#endif  // YVER_SERVE_WIRE_H_
