// Property tests of the serve::wire codec (DESIGN.md §12): encode ->
// extract -> decode -> re-encode must be byte-identical for arbitrary
// queries and results; truncated, bit-flipped, or version-skewed bytes
// must produce typed util::Status errors — never a crash or over-read.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "serve/net/replay.h"
#include "serve/query.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/status.h"

namespace yver::serve {
namespace {

using util::StatusCode;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

Query RandomQuery(util::Rng& rng) {
  Query query;
  query.record = static_cast<data::RecordIdx>(rng.Next() & 0xffffffff);
  query.certainty = rng.UniformDouble() * 2 - 1;
  query.k = static_cast<size_t>(rng.UniformInt(0, 100));
  query.granularity =
      rng.Bernoulli(0.5) ? Granularity::kEntity : Granularity::kMatches;
  return query;
}

QueryResult RandomResult(util::Rng& rng) {
  QueryResult result;
  result.query = RandomQuery(rng);
  size_t matches = static_cast<size_t>(rng.UniformInt(0, 20));
  for (size_t i = 0; i < matches; ++i) {
    core::RankedMatch m;
    auto a = static_cast<data::RecordIdx>(rng.UniformInt(0, 1000));
    auto b = static_cast<data::RecordIdx>(rng.UniformInt(1001, 2000));
    m.pair = data::RecordPair(a, b);
    m.confidence = rng.UniformDouble();
    m.block_score = rng.UniformDouble();
    result.matches.push_back(m);
  }
  size_t entity = static_cast<size_t>(rng.UniformInt(0, 30));
  for (size_t i = 0; i < entity; ++i) {
    result.entity.push_back(
        static_cast<data::RecordIdx>(rng.UniformInt(0, 5000)));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Round trips

TEST(WireCodecTest, QueryRoundTripIsByteIdentical) {
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Query query = RandomQuery(rng);
    double deadline_ms = rng.Bernoulli(0.5) ? rng.UniformDouble() * 100 : 0;
    std::string bytes;
    wire::EncodeQuery(query, deadline_ms, &bytes);

    wire::Frame frame;
    auto consumed = wire::ExtractFrame(bytes, &frame);
    ASSERT_TRUE(consumed.ok());
    ASSERT_EQ(*consumed, bytes.size());
    auto decoded = wire::DecodeQuery(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->query, query);  // semantic fields
    EXPECT_EQ(decoded->deadline_ms, deadline_ms);
    // A wire deadline materializes into a real Deadline at decode time.
    EXPECT_EQ(decoded->query.deadline.is_infinite(), deadline_ms == 0);

    std::string again;
    wire::EncodeQuery(decoded->query, decoded->deadline_ms, &again);
    EXPECT_EQ(bytes, again);
  }
}

TEST(WireCodecTest, ResultRoundTripIsByteIdentical) {
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    QueryResult result = RandomResult(rng);
    std::string bytes;
    wire::EncodeResult(result, &bytes);

    wire::Frame frame;
    auto consumed = wire::ExtractFrame(bytes, &frame);
    ASSERT_TRUE(consumed.ok());
    ASSERT_EQ(*consumed, bytes.size());
    ASSERT_EQ(frame.type, wire::FrameType::kResult);
    auto decoded = wire::DecodeResult(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->entity, result.entity);
    ASSERT_EQ(decoded->matches.size(), result.matches.size());

    std::string again;
    wire::EncodeResult(*decoded, &again);
    EXPECT_EQ(bytes, again);
  }
}

TEST(WireCodecTest, ErrorRoundTripPreservesCodeAndMessage) {
  const util::Status statuses[] = {
      util::Status::InvalidArgument("certainty is NaN"),
      util::Status::NotFound("no such record"),
      util::Status::OutOfRange("record 999 beyond corpus"),
      util::Status::DataLoss("torn read"),
      util::Status::Internal("invariant"),
      util::Status::DeadlineExceeded("budget spent"),
      util::Status::ResourceExhausted("shed"),
      util::Status::Unavailable("try again"),
  };
  for (const util::Status& status : statuses) {
    std::string bytes;
    wire::EncodeResult(status, &bytes);
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(bytes, &frame);
    ASSERT_TRUE(consumed.ok());
    ASSERT_EQ(frame.type, wire::FrameType::kError);
    auto decoded = wire::DecodeResult(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), status.code());
    EXPECT_EQ(decoded.status().message(), status.message());
  }
}

TEST(WireCodecTest, DoubleBitPatternsSurviveExactly) {
  // NaN certainty must travel bit-exactly: the server rejects it with the
  // same typed error the in-process API gives, which requires it to arrive
  // intact rather than be mangled by a lossy text encoding.
  Query query;
  query.certainty = std::numeric_limits<double>::quiet_NaN();
  std::string bytes;
  wire::EncodeQuery(query, 0, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto decoded = wire::DecodeQuery(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->query.certainty),
            std::bit_cast<uint64_t>(query.certainty));
}

TEST(WireCodecTest, InfoRoundTrip) {
  wire::ServerInfo info;
  info.num_records = 123;
  info.num_matches = 456;
  info.checksum = 0xdeadbeefcafef00dULL;
  info.metrics.queries = 9;
  info.metrics.errors = 2;
  info.metrics.shed = 1;
  info.metrics.deadline_exceeded = 1;
  info.metrics.latency_histogram_ns.assign(kServiceLatencyBuckets, 0);
  info.metrics.latency_histogram_ns[20] = 9;
  std::string bytes;
  wire::EncodeInfo(info, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto decoded = wire::DecodeInfo(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_records, info.num_records);
  EXPECT_EQ(decoded->num_matches, info.num_matches);
  EXPECT_EQ(decoded->checksum, info.checksum);
  EXPECT_EQ(decoded->metrics.queries, info.metrics.queries);
  EXPECT_EQ(decoded->metrics.latency_histogram_ns,
            info.metrics.latency_histogram_ns);
}

// ---------------------------------------------------------------------------
// Frozen layouts: WAL segments and captures store frames written by older
// binaries, so a kResult or kInfo layout change must show up here as a
// deliberate edit of these bytes, never as a side effect.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

QueryResult PinnedResult() {
  QueryResult result;
  result.query.record = 7;
  result.query.certainty = 0.5;
  result.query.k = 3;
  result.query.granularity = Granularity::kMatches;
  core::RankedMatch m;
  m.pair = data::RecordPair(2, 9);
  m.confidence = 0.75;
  m.block_score = 2.0;
  result.matches.push_back(m);
  result.entity = {7, 12};
  result.generation = 9;
  return result;
}

constexpr std::string_view kPinnedResultHex =
    "5957" "04" "02" "46000000"  // magic, version 4, kResult, length 70
    "00"                         // result flags: always 0
    "07000000"                   // echo: record 7
    "000000000000e03f"           //       certainty 0.5
    "0300000000000000"           //       k 3
    "00"                         //       granularity kMatches
    "01000000"                   // one match:
    "02000000" "09000000"        //   pair (2, 9)
    "000000000000e83f"           //   confidence 0.75
    "0000000000000040"           //   block score 2.0
    "02000000" "07000000" "0c000000"  // entity {7, 12}
    "0900000000000000";          // generation 9

wire::ServerInfo PinnedInfo() {
  wire::ServerInfo info;
  info.num_records = 123;
  info.num_matches = 456;
  info.checksum = 0x0123456789abcdefULL;
  info.metrics.queries = 9;
  info.metrics.errors = 2;
  info.metrics.shed = 4;
  info.metrics.deadline_exceeded = 1;
  info.metrics.latency_histogram_ns = {5, 0, 1};
  info.metrics.generation = 5;
  info.metrics.publishes = 4;
  info.metrics.pinned_readers = 2;
  info.net.open_connections = 3;
  info.net.paused_reads = 1;
  info.net.disconnects_idle = 2;
  info.net.disconnects_slowloris = 4;
  info.net.disconnects_oversize = 5;
  info.net.disconnects_rate_limited = 6;
  info.net.disconnects_write_stall = 7;
  info.net.rate_limited_frames = 41;
  return info;
}

constexpr std::string_view kPinnedInfoHex =
    "5957" "04" "05" "d4000000"  // magic, version 4, kInfo, length 212
    "7b00000000000000"           // num_records 123
    "c801000000000000"           // num_matches 456
    "efcdab8967452301"           // checksum
    "0900000000000000"           // queries 9
    "0200000000000000"           // errors 2
    "0000000000000000"           // reserved slot 1: always 0
    "0000000000000000"           // reserved slot 2: always 0
    "0400000000000000"           // shed 4
    "0100000000000000"           // deadline exceeded 1
    "0000000000000000"           // reserved slot 3: always 0
    "0000000000000000"           // reserved slot 4: always 0
    "03000000"                   // three histogram buckets:
    "0500000000000000" "0000000000000000" "0100000000000000"
    "0500000000000000"           // generation 5
    "0400000000000000"           // publishes 4
    "0200000000000000"           // pinned readers 2
    "0000000000000000"           // reserved slot 5: always 0
    "0300000000000000"           // net: open connections 3
    "0100000000000000"           //      paused reads 1
    "0200000000000000"           //      idle disconnects 2
    "0400000000000000"           //      slow-loris disconnects 4
    "0500000000000000"           //      oversize disconnects 5
    "0600000000000000"           //      rate-limited disconnects 6
    "0700000000000000"           //      write-stall disconnects 7
    "2900000000000000";          //      rate-limited frames 41

TEST(WireCodecTest, ResultAndInfoFrameBytesArePinned) {
  std::string bytes;
  wire::EncodeResult(PinnedResult(), &bytes);
  EXPECT_EQ(Hex(bytes), kPinnedResultHex);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto result = wire::DecodeResult(frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->query, PinnedResult().query);
  EXPECT_EQ(result->matches, PinnedResult().matches);
  EXPECT_EQ(result->entity, PinnedResult().entity);
  EXPECT_EQ(result->generation, 9u);

  bytes.clear();
  wire::EncodeInfo(PinnedInfo(), &bytes);
  EXPECT_EQ(Hex(bytes), kPinnedInfoHex);
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto info = wire::DecodeInfo(frame);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->checksum, 0x0123456789abcdefULL);
  EXPECT_EQ(info->metrics.shed, 4u);
  EXPECT_EQ(info->metrics.latency_histogram_ns,
            (std::vector<uint64_t>{5, 0, 1}));
  EXPECT_EQ(info->metrics.pinned_readers, 2u);
  EXPECT_EQ(info->net.rate_limited_frames, 41u);
}

// No result flag is defined, so any nonzero flags byte, bit 0 included,
// is not a frame this dialect wrote.
TEST(WireCodecTest, NonzeroResultFlagsAreRejected) {
  std::string bytes;
  wire::EncodeResult(PinnedResult(), &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  ASSERT_EQ(frame.payload[0], 0);  // the flags byte leads the payload
  for (int flags = 1; flags < 256; ++flags) {
    wire::Frame flagged = frame;
    flagged.payload[0] = static_cast<char>(flags);
    EXPECT_EQ(wire::DecodeResult(flagged).status().code(),
              StatusCode::kInvalidArgument)
        << "flags " << flags;
  }
}

TEST(WireCodecTest, NonzeroReservedInfoSlotsAreRejected) {
  std::string bytes;
  wire::EncodeInfo(PinnedInfo(), &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  // Payload offsets of the five reserved slots in kPinnedInfoHex: the two
  // after errors (5*8, 6*8), the two after the nine leading u64s (9*8,
  // 10*8), and the one after the 3-bucket histogram and the three
  // live-index gauges (9*8 + 8 + 8 + 4 + 3*8 + 3*8).
  for (size_t offset :
       {size_t{40}, size_t{48}, size_t{72}, size_t{80}, size_t{140}}) {
    ASSERT_EQ(frame.payload.substr(offset, 8), std::string(8, '\0'));
    for (size_t byte = 0; byte < 8; ++byte) {
      wire::Frame set = frame;
      set.payload[offset + byte] = 1;
      EXPECT_EQ(wire::DecodeInfo(set).status().code(),
                StatusCode::kInvalidArgument)
          << "offset " << offset << " byte " << byte;
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed input: typed errors, never crashes

TEST(WireCodecTest, TruncatedPrefixesAreIncompleteNeverError) {
  util::Rng rng(17);
  Query query = RandomQuery(rng);
  std::string bytes;
  wire::EncodeQuery(query, 5.0, &bytes);
  // Every strict prefix is either "incomplete, read more" (consumed == 0)
  // — a partial read is not an error — and never a crash.
  for (size_t len = 0; len < bytes.size(); ++len) {
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(std::string_view(bytes).substr(0, len),
                                       &frame);
    ASSERT_TRUE(consumed.ok()) << "prefix " << len;
    EXPECT_EQ(*consumed, 0u) << "prefix " << len;
  }
}

TEST(WireCodecTest, TruncatedPayloadIsTypedError) {
  // A frame whose header promises more payload than the type needs, or a
  // payload cut short relative to its own counts, must fail typed.
  util::Rng rng(19);
  QueryResult result = RandomResult(rng);
  std::string bytes;
  wire::EncodeResult(result, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    wire::Frame shorter = frame;
    shorter.payload.resize(cut);
    auto decoded = wire::DecodeResult(shorter);
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut " << cut;
  }
}

TEST(WireCodecTest, BitFlipsNeverCrashTheDecoder) {
  util::Rng rng(23);
  Query query = RandomQuery(rng);
  std::string bytes;
  wire::EncodeQuery(query, 2.5, &bytes);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      wire::Frame frame;
      auto consumed = wire::ExtractFrame(flipped, &frame);
      if (!consumed.ok()) continue;  // typed header rejection — fine
      if (*consumed == 0) continue;  // looks incomplete now — fine
      // A frame that still parses decodes to a value or a typed error.
      if (frame.type == wire::FrameType::kQuery) {
        auto decoded = wire::DecodeQuery(frame);
        (void)decoded;
      } else {
        auto decoded = wire::DecodeResult(frame);
        (void)decoded;
      }
    }
  }
}

TEST(WireCodecTest, HeaderRejectionsAreTyped) {
  std::string bytes;
  wire::EncodeQuery(Query{}, 0, &bytes);
  {
    std::string bad = bytes;
    bad[0] = 'X';  // magic
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(bad, &frame);
    ASSERT_FALSE(consumed.ok());
    EXPECT_EQ(consumed.status().code(), StatusCode::kDataLoss);
  }
  // One dialect: version 0, every older version, and a newer one are all
  // rejected from the header alone, for every frame type — an append frame
  // claiming an old version included.
  std::vector<std::string> frames = {bytes};
  data::Record record;
  record.book_id = 1;
  record.Add(data::AttributeId::kFirstName, "x");
  wire::EncodeAppend(record, &frames.emplace_back());
  wire::EncodeInfoRequest(&frames.emplace_back());
  for (const std::string& good : frames) {
    for (int version = 0; version <= wire::kVersion + 1; ++version) {
      if (version == wire::kVersion) continue;
      std::string bad = good;
      bad[2] = static_cast<char>(version);
      wire::FrameHeader header;
      auto peeked = wire::PeekFrameHeader(bad, &header);
      ASSERT_FALSE(peeked.ok()) << "version " << version;
      EXPECT_EQ(peeked.status().code(), StatusCode::kInvalidArgument)
          << "version " << version;
      wire::Frame frame;
      auto consumed = wire::ExtractFrame(bad, &frame);
      ASSERT_FALSE(consumed.ok()) << "version " << version;
      EXPECT_EQ(consumed.status().code(), StatusCode::kInvalidArgument)
          << "version " << version;
    }
  }
  {
    std::string bad = bytes;
    bad[3] = 99;  // unknown frame type
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(bad, &frame);
    ASSERT_FALSE(consumed.ok());
    EXPECT_EQ(consumed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::string bad = bytes;
    bad[7] = 0x7f;  // length field far beyond kMaxFramePayload
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(bad, &frame);
    ASSERT_FALSE(consumed.ok());
    EXPECT_EQ(consumed.status().code(), StatusCode::kDataLoss);
  }
}

TEST(WireCodecTest, QueryPayloadSizeIsExact) {
  std::string bytes;
  wire::EncodeQuery(Query{}, 0, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  frame.payload.push_back('\0');
  auto decoded = wire::DecodeQuery(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, NaNWireDeadlineIsRejected) {
  std::string bytes;
  wire::EncodeQuery(Query{}, std::numeric_limits<double>::quiet_NaN(),
                    &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto decoded = wire::DecodeQuery(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, PipelinedFramesExtractOneAtATime) {
  util::Rng rng(29);
  std::string stream;
  std::vector<Query> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(RandomQuery(rng));
    wire::EncodeQuery(queries.back(), 0, &stream);
  }
  std::string_view rest(stream);
  for (int i = 0; i < 10; ++i) {
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(rest, &frame);
    ASSERT_TRUE(consumed.ok());
    ASSERT_GT(*consumed, 0u);
    auto decoded = wire::DecodeQuery(frame);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->query, queries[static_cast<size_t>(i)]);
    rest.remove_prefix(*consumed);
  }
  EXPECT_TRUE(rest.empty());
}

// ---------------------------------------------------------------------------
// Live-ingest frames (v2): kAppendRequest / kAppendAck

data::Record RandomRecord(util::Rng& rng) {
  data::Record record;
  record.book_id = rng.Next();
  record.source_id = static_cast<uint32_t>(rng.Next() & 0xffffffff);
  record.source_kind = rng.Bernoulli(0.5) ? data::SourceKind::kPageOfTestimony
                                          : data::SourceKind::kVictimList;
  record.entity_id = static_cast<int64_t>(rng.Next());
  record.family_id = static_cast<int64_t>(rng.Next());
  size_t entries = static_cast<size_t>(rng.UniformInt(1, 8));
  for (size_t i = 0; i < entries; ++i) {
    auto attr = static_cast<data::AttributeId>(
        rng.UniformInt(0, static_cast<int64_t>(data::kNumAttributes) - 1));
    size_t len = static_cast<size_t>(rng.UniformInt(1, 12));
    std::string value;
    for (size_t c = 0; c < len; ++c) {
      value.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
    }
    record.Add(attr, value);
  }
  return record;
}

TEST(WireCodecTest, AppendRoundTripIsByteIdentical) {
  util::Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    data::Record record = RandomRecord(rng);
    std::string bytes;
    wire::EncodeAppend(record, &bytes);

    wire::Frame frame;
    auto consumed = wire::ExtractFrame(bytes, &frame);
    ASSERT_TRUE(consumed.ok());
    ASSERT_EQ(*consumed, bytes.size());
    ASSERT_EQ(frame.type, wire::FrameType::kAppendRequest);
    auto decoded = wire::DecodeAppend(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->book_id, record.book_id);
    EXPECT_EQ(decoded->source_id, record.source_id);
    EXPECT_EQ(decoded->source_kind, record.source_kind);
    EXPECT_EQ(decoded->entity_id, record.entity_id);
    EXPECT_EQ(decoded->family_id, record.family_id);
    ASSERT_EQ(decoded->entries().size(), record.entries().size());
    for (size_t e = 0; e < record.entries().size(); ++e) {
      EXPECT_EQ(decoded->entries()[e].attr, record.entries()[e].attr);
      EXPECT_EQ(decoded->entries()[e].value, record.entries()[e].value);
    }

    std::string again;
    wire::EncodeAppend(*decoded, &again);
    EXPECT_EQ(bytes, again) << "append re-encode is not byte-identical";
  }
}

TEST(WireCodecTest, AppendAckRoundTrip) {
  wire::AppendAck ack;
  ack.record_idx = 0x123456789abcdefULL;
  ack.generation = 42;
  ack.durable = true;
  ack.wal_sequence = 17;
  std::string bytes;
  wire::EncodeAppendAck(ack, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  ASSERT_EQ(frame.type, wire::FrameType::kAppendAck);
  auto decoded = wire::DecodeAppendAck(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->record_idx, ack.record_idx);
  EXPECT_EQ(decoded->generation, ack.generation);
  EXPECT_TRUE(decoded->durable);
  EXPECT_EQ(decoded->wal_sequence, 17u);

  frame.payload.push_back('\0');
  EXPECT_EQ(wire::DecodeAppendAck(frame).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireCodecTest, TruncatedAppendPayloadIsTypedError) {
  util::Rng rng(41);
  data::Record record = RandomRecord(rng);
  std::string bytes;
  wire::EncodeAppend(record, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    wire::Frame shorter = frame;
    shorter.payload.resize(cut);
    auto decoded = wire::DecodeAppend(shorter);
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut " << cut;
  }
}

TEST(WireCodecTest, MalformedAppendFieldsAreTypedErrors) {
  data::Record record;
  record.book_id = 7;
  record.Add(data::AttributeId::kFirstName, "x");
  std::string bytes;
  wire::EncodeAppend(record, &bytes);
  wire::Frame good;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &good).ok());
  // Payload layout: book_id u64, source_id u32, source_kind u8, ...
  {
    wire::Frame bad = good;
    bad.payload[12] = 99;  // source kind beyond the enum
    EXPECT_EQ(wire::DecodeAppend(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    wire::Frame bad = good;
    // First entry's attribute byte sits right after the fixed header +
    // entry count: 8 + 4 + 1 + 8 + 8 + 2 = 31.
    bad.payload[31] = static_cast<char>(data::kNumAttributes);
    EXPECT_EQ(wire::DecodeAppend(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(WireCodecTest, AppendBitFlipsNeverCrashTheDecoder) {
  util::Rng rng(43);
  data::Record record = RandomRecord(rng);
  std::string bytes;
  wire::EncodeAppend(record, &bytes);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      wire::Frame frame;
      auto consumed = wire::ExtractFrame(flipped, &frame);
      if (!consumed.ok()) continue;  // typed header rejection — fine
      if (*consumed == 0) continue;  // looks incomplete now — fine
      switch (frame.type) {
        case wire::FrameType::kAppendRequest: {
          auto decoded = wire::DecodeAppend(frame);
          (void)decoded;
          break;
        }
        case wire::FrameType::kAppendAck: {
          auto decoded = wire::DecodeAppendAck(frame);
          (void)decoded;
          break;
        }
        default: {
          auto decoded = wire::DecodeResult(frame);
          (void)decoded;
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Version evolution: v2 payload additions, v1 decode defaults

TEST(WireCodecTest, ResultCarriesItsGeneration) {
  util::Rng rng(47);
  QueryResult result = RandomResult(rng);
  result.generation = 17;
  std::string bytes;
  wire::EncodeResult(result, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto decoded = wire::DecodeResult(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->generation, 17u);
}

TEST(WireCodecTest, InfoCarriesLiveIndexGauges) {
  wire::ServerInfo info;
  info.num_records = 10;
  info.metrics.latency_histogram_ns.assign(kServiceLatencyBuckets, 0);
  info.metrics.generation = 5;
  info.metrics.publishes = 4;
  info.metrics.pinned_readers = 2;
  std::string bytes;
  wire::EncodeInfo(info, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto decoded = wire::DecodeInfo(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->metrics.generation, 5u);
  EXPECT_EQ(decoded->metrics.publishes, 4u);
  EXPECT_EQ(decoded->metrics.pinned_readers, 2u);
}

TEST(WireCodecTest, V4InfoRoundTripsNetGauges) {
  wire::ServerInfo info;
  info.metrics.latency_histogram_ns.assign(kServiceLatencyBuckets, 0);
  info.net.open_connections = 3;
  info.net.paused_reads = 1;
  info.net.disconnects_idle = 2;
  info.net.disconnects_slowloris = 4;
  info.net.disconnects_oversize = 5;
  info.net.disconnects_rate_limited = 6;
  info.net.disconnects_write_stall = 7;
  info.net.rate_limited_frames = 41;
  std::string bytes;
  wire::EncodeInfo(info, &bytes);
  wire::Frame frame;
  EXPECT_EQ(static_cast<uint8_t>(bytes[2]), wire::kVersion);
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  auto decoded = wire::DecodeInfo(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->net.open_connections, 3u);
  EXPECT_EQ(decoded->net.paused_reads, 1u);
  EXPECT_EQ(decoded->net.disconnects_idle, 2u);
  EXPECT_EQ(decoded->net.disconnects_slowloris, 4u);
  EXPECT_EQ(decoded->net.disconnects_oversize, 5u);
  EXPECT_EQ(decoded->net.disconnects_rate_limited, 6u);
  EXPECT_EQ(decoded->net.disconnects_write_stall, 7u);
  EXPECT_EQ(decoded->net.rate_limited_frames, 41u);
}

TEST(WireCodecTest, PeekFrameHeaderReportsDeclaredLengthBeforePayload) {
  Query query;
  query.record = static_cast<data::RecordIdx>(4);
  query.certainty = 0.5;
  std::string bytes;
  wire::EncodeQuery(query, 0, &bytes);
  // Peek succeeds on the bare 8-byte header — no payload bytes needed.
  std::string header_only = bytes.substr(0, wire::kHeaderSize);
  wire::FrameHeader header;
  auto peeked = wire::PeekFrameHeader(header_only, &header);
  ASSERT_TRUE(peeked.ok()) << peeked.status().ToString();
  EXPECT_EQ(*peeked, wire::kHeaderSize);
  EXPECT_EQ(header.type, wire::FrameType::kQuery);
  EXPECT_EQ(header.payload_length, bytes.size() - wire::kHeaderSize);
  // Under kHeaderSize bytes: incomplete (0), never an error.
  for (size_t n = 0; n < wire::kHeaderSize; ++n) {
    auto partial = wire::PeekFrameHeader(bytes.substr(0, n), &header);
    ASSERT_TRUE(partial.ok()) << "prefix length " << n;
    EXPECT_EQ(*partial, 0u) << "prefix length " << n;
  }
}

// Fuzz-style regression: an adversarial header declaring a giant payload
// must be rejected from the 8 header bytes alone — no buffer is reserved,
// no payload is awaited. This is the pre-allocation check ExtractFrame
// callers rely on (DESIGN.md §15).
TEST(WireCodecTest, GiantDeclaredLengthIsRejectedFromHeaderAlone) {
  util::Rng rng(211);
  for (int trial = 0; trial < 64; ++trial) {
    uint64_t declared =
        wire::kMaxFramePayload + 1 +
        rng.UniformInt(0, std::numeric_limits<uint32_t>::max() -
                              static_cast<int64_t>(wire::kMaxFramePayload) -
                              1);
    std::string header_bytes;
    header_bytes.push_back(0x59);  // 'Y'
    header_bytes.push_back(0x57);  // 'W'
    header_bytes.push_back(static_cast<char>(wire::kVersion));
    header_bytes.push_back(
        static_cast<char>(wire::FrameType::kQuery));
    for (int i = 0; i < 4; ++i) {
      header_bytes.push_back(
          static_cast<char>((declared >> (8 * i)) & 0xff));
    }
    wire::FrameHeader header;
    auto peeked = wire::PeekFrameHeader(header_bytes, &header);
    ASSERT_FALSE(peeked.ok()) << "declared " << declared;
    EXPECT_EQ(peeked.status().code(), StatusCode::kDataLoss);
    // ExtractFrame agrees and allocates nothing for the phantom payload.
    wire::Frame frame;
    auto consumed = wire::ExtractFrame(header_bytes, &frame);
    ASSERT_FALSE(consumed.ok());
    EXPECT_EQ(consumed.status().code(), StatusCode::kDataLoss);
    EXPECT_TRUE(frame.payload.empty());
  }
}

TEST(WireCodecTest, AppendAckRejectsUnknownDurableFlag) {
  wire::AppendAck ack;
  ack.record_idx = 1;
  ack.generation = 1;
  std::string bytes;
  wire::EncodeAppendAck(ack, &bytes);
  wire::Frame frame;
  ASSERT_TRUE(wire::ExtractFrame(bytes, &frame).ok());
  // The durable byte sits after record_idx + generation (16 bytes in).
  frame.payload[16] = 2;
  EXPECT_EQ(wire::DecodeAppendAck(frame).status().code(),
            StatusCode::kInvalidArgument);
}

// The status-code map is wire ABI: these bytes are frozen forever. A new
// code may only ever be appended (with its byte pinned here); renumbering
// breaks every capture and every old client.
TEST(WireCodecTest, StatusCodeWireBytesAreFrozen) {
  const struct {
    StatusCode code;
    uint8_t wire_byte;
  } kFrozen[] = {
      {StatusCode::kOk, 0},
      {StatusCode::kInvalidArgument, 1},
      {StatusCode::kNotFound, 2},
      {StatusCode::kOutOfRange, 3},
      {StatusCode::kDataLoss, 4},
      {StatusCode::kInternal, 5},
      {StatusCode::kDeadlineExceeded, 6},
      {StatusCode::kResourceExhausted, 7},
      {StatusCode::kUnavailable, 8},
  };
  EXPECT_EQ(std::size(kFrozen), 9u) << "added a StatusCode? pin it here";
  for (const auto& entry : kFrozen) {
    EXPECT_EQ(static_cast<uint8_t>(entry.code), entry.wire_byte)
        << util::StatusCodeName(entry.code) << " moved — wire ABI break";
  }
}

// ---------------------------------------------------------------------------
// Capture files (record/replay)

TEST(CaptureFileTest, RoundTripsFramesByteIdentically) {
  util::Rng rng(31);
  std::vector<std::string> frames;
  for (int i = 0; i < 50; ++i) {
    std::string frame;
    wire::EncodeQuery(RandomQuery(rng), rng.UniformDouble() * 10, &frame);
    frames.push_back(frame);
  }
  std::string path = TempPath("capture_roundtrip.yvq");
  auto writer = net::CaptureWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  for (const auto& frame : frames) ASSERT_TRUE(writer->Append(frame).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto loaded = net::LoadCapture(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, frames);
  std::remove(path.c_str());
}

TEST(CaptureFileTest, TruncatedTailIsTypedError) {
  std::string path = TempPath("capture_truncated.yvq");
  auto writer = net::CaptureWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  std::string frame;
  wire::EncodeQuery(Query{}, 0, &frame);
  ASSERT_TRUE(writer->Append(frame).ok());
  ASSERT_TRUE(writer->Close().ok());

  // Chop the last byte: the final frame is now a torn write.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()) - 1);
  out.close();

  auto loaded = net::LoadCapture(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CaptureFileTest, BadMagicAndVersionAreTypedErrors) {
  std::string path = TempPath("capture_bad_header.yvq");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTACAPT";
  }
  auto loaded = net::LoadCapture(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // A capture speaks the single wire dialect: every other version byte in
  // the header — 0, each older version, a newer one — is refused, even
  // when the frames that follow are well-formed.
  std::string frame;
  wire::EncodeQuery(Query{}, 0, &frame);
  for (int version = 0; version <= wire::kVersion + 1; ++version) {
    if (version == wire::kVersion) continue;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const char header[8] = {0x59, 0x57, 0x52, 0x43,
                              static_cast<char>(version), 0, 0, 0};
      out.write(header, sizeof(header));
      out << frame;
    }
    loaded = net::LoadCapture(path);
    ASSERT_FALSE(loaded.ok()) << "version " << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "version " << version;
  }
  std::remove(path.c_str());
}

TEST(CaptureFileTest, MissingFileIsNotFound) {
  auto loaded = net::LoadCapture(TempPath("does_not_exist.yvq"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace yver::serve
