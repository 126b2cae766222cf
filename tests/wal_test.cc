// Tests of the durable-ingest layer (DESIGN.md §14): WriteAheadLog
// framing, concurrent appenders, segment rotation, and the recovery
// contract — acked records always survive, unacked records never
// reappear, torn tails are truncated, mid-file corruption is a typed
// refusal. The kill-and-restart process-level harness lives in
// scripts/check.sh; these are the in-process property tests behind it.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/ranked_resolution.h"
#include "data/dataset.h"
#include "serve/ingest.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "serve/wal.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace yver::serve {
namespace {

using util::FaultConfig;
using util::FaultInjector;
using util::FaultPoint;
using util::StatusCode;

class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultConfig& config) {
    FaultInjector::Global().Arm(config);
  }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }
};

data::Record MakeReport(uint64_t book_id, const std::string& first,
                        const std::string& last, const std::string& town) {
  data::Record r;
  r.book_id = book_id;
  r.source_id = static_cast<uint32_t>(book_id % 3);
  r.Add(data::AttributeId::kFirstName, first);
  r.Add(data::AttributeId::kLastName, last);
  r.Add(data::AttributeId::kBirthCity, town);
  return r;
}

data::Dataset MakeSeedCorpus() {
  data::Dataset dataset;
  dataset.Add(MakeReport(1, "chaim", "levi", "vilna"));
  dataset.Add(MakeReport(2, "chaim", "levi", "vilna"));
  dataset.Add(MakeReport(3, "sara", "cohen", "lodz"));
  dataset.Add(MakeReport(4, "dvora", "katz", "warsaw"));
  return dataset;
}

// Empties (and removes) `name` under the test temp dir so every test run
// starts from a log that does not exist yet; WriteAheadLog::Open creates
// it.
std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* ent = ::readdir(d)) {
      std::string n = ent->d_name;
      if (n == "." || n == "..") continue;
      ::unlink((dir + "/" + n).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
  }
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Segment files in the directory, oldest first (the name sorts by first
// sequence).
std::vector<std::string> SegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return paths;
  while (struct dirent* ent = ::readdir(d)) {
    std::string n = ent->d_name;
    if (n.size() > 8 && n.compare(0, 4, "wal-") == 0 &&
        n.compare(n.size() - 4, 4, ".yvw") == 0) {
      paths.push_back(dir + "/" + n);
    }
  }
  ::closedir(d);
  std::sort(paths.begin(), paths.end());
  return paths;
}

uint32_t ReadU32At(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

// End offset of every record in a segment file, in order: records start
// after the 16-byte header and are length-prefixed, so the boundaries can
// be walked without decoding payloads.
std::vector<size_t> RecordEnds(const std::string& bytes) {
  constexpr size_t kHeader = 16;
  constexpr size_t kOverhead = 20;  // length + sequence + digest
  std::vector<size_t> ends;
  size_t off = kHeader;
  while (off + kOverhead <= bytes.size()) {
    size_t end = off + kOverhead + ReadU32At(bytes, off);
    if (end > bytes.size()) break;
    ends.push_back(end);
    off = end;
  }
  return ends;
}

util::StatusOr<std::unique_ptr<WriteAheadLog>> OpenWal(
    const std::string& dir, std::vector<WalRecoveredRecord>* recovered,
    size_t segment_bytes = 4u << 20) {
  WalOptions options;
  options.segment_bytes = segment_bytes;
  return WriteAheadLog::Open(dir, options, recovered);
}

// ---------------------------------------------------------------------------
// WriteAheadLog: append / recover round trips

TEST(WalTest, AppendAndReopenRoundTrip) {
  std::string dir = FreshDir("wal_roundtrip");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(recovered.empty());
  EXPECT_EQ((*wal)->durable_sequence(), 0u);

  for (uint64_t i = 0; i < 5; ++i) {
    auto seq = (*wal)->Append(
        MakeReport(700 + i, "name" + std::to_string(i), "x", "town"));
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, i + 1);
  }
  EXPECT_EQ((*wal)->durable_sequence(), 5u);
  EXPECT_EQ((*wal)->stats().appends, 5u);
  wal->reset();  // close the fd; simulate a clean restart

  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), 5u);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, i + 1);
    EXPECT_EQ(recovered[i].record.book_id, 700 + i);
    auto names = recovered[i].record.Values(data::AttributeId::kFirstName);
    ASSERT_NE(names.begin(), names.end());
    EXPECT_EQ(*names.begin(), "name" + std::to_string(i));
  }
  auto stats = (*reopened)->stats();
  EXPECT_EQ(stats.recovered_records, 5u);
  EXPECT_EQ(stats.durable_sequence, 5u);
  EXPECT_EQ(stats.truncated_tail_bytes, 0u);

  // The sequence counter survives the restart.
  auto next = (*reopened)->Append(MakeReport(800, "after", "restart", "z"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 6u);
}

TEST(WalTest, ConcurrentAppendersGroupCommit) {
  std::string dir = FreshDir("wal_concurrent_appenders");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::mutex mu;
  std::vector<std::pair<uint64_t, uint64_t>> acked;  // (sequence, book_id)
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t book_id = 1000 + static_cast<uint64_t>(t) * kPerThread + i;
        auto seq = (*wal)->Append(MakeReport(book_id, "c", "d", "e"));
        ASSERT_TRUE(seq.ok()) << seq.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        acked.emplace_back(*seq, book_id);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr uint64_t kTotal = kThreads * kPerThread;
  auto stats = (*wal)->stats();
  EXPECT_EQ(stats.appends, kTotal);
  EXPECT_EQ(stats.durable_sequence, kTotal);
  // Concurrent appenders serialize on the log: one fsync per append.
  EXPECT_EQ(stats.fsyncs, kTotal);

  // Sequences are exactly 1..N, each acked once.
  std::sort(acked.begin(), acked.end());
  ASSERT_EQ(acked.size(), kTotal);
  for (uint64_t s = 0; s < kTotal; ++s) EXPECT_EQ(acked[s].first, s + 1);

  wal->reset();
  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), kTotal);
  for (uint64_t s = 0; s < kTotal; ++s) {
    EXPECT_EQ(recovered[s].sequence, s + 1);
    EXPECT_EQ(recovered[s].record.book_id, acked[s].second)
        << "recovered record at sequence " << s + 1
        << " is not the one acked under it";
  }
}

// ---------------------------------------------------------------------------
// Recovery property tests: torn tails and corruption

// The torn-tail property (the crash-mid-write contract): for EVERY
// truncation point of the segment file, recovery yields exactly the
// records that fit wholly before the cut — a strict prefix of what was
// acked, never an error, never an invented record.
TEST(WalTest, TornTailTruncatedAtEveryOffset) {
  std::string dir = FreshDir("wal_torn_build");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*wal)->Append(MakeReport(900 + i, "torn" + std::to_string(i),
                                    "tail", "test"))
              .ok());
    }
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string original = ReadFileBytes(segments.front());
  std::string segment_name =
      segments.front().substr(segments.front().find_last_of('/') + 1);
  std::vector<size_t> ends = RecordEnds(original);
  ASSERT_EQ(ends.size(), 4u);
  ASSERT_EQ(ends.back(), original.size());

  std::string scratch = FreshDir("wal_torn_scratch");
  for (size_t cut = 0; cut <= original.size(); ++cut) {
    SCOPED_TRACE("truncated at byte " + std::to_string(cut));
    FreshDir("wal_torn_scratch");
    ASSERT_EQ(::mkdir(scratch.c_str(), 0755), 0);
    WriteFileBytes(scratch + "/" + segment_name, original.substr(0, cut));

    auto wal = OpenWal(scratch, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    ASSERT_EQ(recovered.size(), expected);
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(recovered[i].sequence, i + 1);
      EXPECT_EQ(recovered[i].record.book_id, 900 + i);
    }
    auto stats = (*wal)->stats();
    EXPECT_EQ(stats.durable_sequence, expected);
    size_t valid_end = expected > 0 ? ends[expected - 1] : 16;
    EXPECT_EQ(stats.truncated_tail_bytes,
              cut > valid_end ? cut - valid_end : 0);

    // The log is open for business again: the next append continues the
    // sequence right after the surviving prefix.
    auto seq = (*wal)->Append(MakeReport(999, "fresh", "append", "ok"));
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, expected + 1);
  }
}

// Bit-flip fuzz: no single-bit corruption anywhere in the file can make
// recovery invent or reorder a record. Either Open refuses typed
// (DATA_LOSS) or it returns a strict prefix of the acked stream.
TEST(WalTest, BitFlipsNeverInventRecords) {
  std::string dir = FreshDir("wal_flip_build");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*wal)->Append(MakeReport(300 + i, "flip" + std::to_string(i),
                                    "bits", "fuzz"))
              .ok());
    }
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string original = ReadFileBytes(segments.front());
  std::string segment_name =
      segments.front().substr(segments.front().find_last_of('/') + 1);

  std::string scratch = FreshDir("wal_flip_scratch");
  for (size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                   std::to_string(byte));
      FreshDir("wal_flip_scratch");
      ASSERT_EQ(::mkdir(scratch.c_str(), 0755), 0);
      std::string mutated = original;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      WriteFileBytes(scratch + "/" + segment_name, mutated);

      auto wal = OpenWal(scratch, &recovered);
      if (!wal.ok()) {
        EXPECT_EQ(wal.status().code(), StatusCode::kDataLoss)
            << wal.status().ToString();
        continue;
      }
      ASSERT_LE(recovered.size(), 3u);
      for (size_t i = 0; i < recovered.size(); ++i) {
        EXPECT_EQ(recovered[i].sequence, i + 1);
        EXPECT_EQ(recovered[i].record.book_id, 300 + i)
            << "recovery must only ever return a prefix of what was acked";
      }
    }
  }
}

// The same damage that recovery tolerates at the tail is a typed refusal
// when acked records come after it: corruption in a non-final segment
// means acked data is gone, and silently dropping it would break the
// durability contract.
TEST(WalTest, MidFileCorruptionInNonFinalSegmentIsDataLoss) {
  std::string dir = FreshDir("wal_midfile");
  std::vector<WalRecoveredRecord> recovered;
  {
    // segment_bytes below the minimum clamps to one-record segments.
    auto wal = OpenWal(dir, &recovered, /*segment_bytes=*/1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeReport(400 + i, "mid", "file", "x")).ok());
    }
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 4u);
  std::string victim = segments[1];  // non-final, holds acked sequence 2
  std::string original = ReadFileBytes(victim);

  // Checksum damage: flip the record's digest byte.
  std::string mutated = original;
  mutated.back() = static_cast<char>(mutated.back() ^ 0x01);
  WriteFileBytes(victim, mutated);
  auto corrupt = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);

  // Truncation damage: the segment lost its tail but is not the final one.
  WriteFileBytes(victim, original.substr(0, original.size() / 2));
  auto truncated = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);

  // A torn header before the final segment is equally refused.
  WriteFileBytes(victim, original.substr(0, 10));
  auto torn_header = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_FALSE(torn_header.ok());
  EXPECT_EQ(torn_header.status().code(), StatusCode::kDataLoss);

  // Restoring the bytes restores the log: nothing was mutated in place.
  WriteFileBytes(victim, original);
  auto healed = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(recovered.size(), 4u);
}

// Segments are never deleted, so a log whose first segment does not start
// at sequence 1 has lost acked records. Replaying it anyway would put
// sequence 2 at the corpus index the ack for sequence 1 promised; Open
// and RecoverWal refuse it typed instead.
TEST(WalTest, MissingOldestSegmentIsDataLoss) {
  std::string dir = FreshDir("wal_missing_oldest");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered, /*segment_bytes=*/1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeReport(450 + i, "old", "est", "x")).ok());
    }
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 3u);
  ASSERT_EQ(segments.front(), dir + "/wal-0000000000000001.yvw");
  std::string oldest = ReadFileBytes(segments.front());
  ASSERT_EQ(::unlink(segments.front().c_str()), 0);

  auto opened = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);

  core::IncrementalResolver resolver(MakeSeedCorpus(),
                                     core::RankedResolution(), ml::AdTree());
  auto recovered_wal =
      RecoverWal(dir, WalOptions{.segment_bytes = 1}, &resolver);
  ASSERT_FALSE(recovered_wal.ok());
  EXPECT_EQ(recovered_wal.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(resolver.dataset().size(), 4u) << "a refused log replayed records";

  // Putting the segment back restores the log.
  WriteFileBytes(segments.front(), oldest);
  auto healed = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  ASSERT_EQ(recovered.size(), 3u);
  EXPECT_EQ(recovered.front().sequence, 1u);
  EXPECT_EQ(recovered.front().record.book_id, 450u);
}

// ---------------------------------------------------------------------------
// Rotation

// Segments rotate but are never deleted: ten one-record segments reopen
// as sequences 1..10, and the next append continues at 11.
TEST(WalTest, RotationKeepsEverySegment) {
  std::string dir = FreshDir("wal_rotation");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (uint64_t i = 0; i < 10; ++i) {
    auto seq = (*wal)->Append(MakeReport(600 + i, "rot", "ate", "y"));
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(*seq, i + 1);
  }
  auto stats = (*wal)->stats();
  EXPECT_EQ(stats.segments, 10u);
  EXPECT_EQ(stats.rotations, 9u);
  wal->reset();
  EXPECT_EQ(SegmentPaths(dir).size(), 10u);

  auto reopened = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), 10u);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, 1 + i);
    EXPECT_EQ(recovered[i].record.book_id, 600 + i);
  }
  EXPECT_EQ((*reopened)->stats().segments, 10u);
  auto seq = (*reopened)->Append(MakeReport(610, "post", "rotate", "z"));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 11u);
}

// ---------------------------------------------------------------------------
// Fault injection: the disk always equals the acked records

// Probabilistic chaos at serve.wal.append and serve.wal.fsync: whatever
// mix of appends fail, the bytes on disk after a restart are EXACTLY the
// acked records — a failed append never resurfaces, an acked one never
// disappears, and sequences stay contiguous because failed appends give
// their sequence back.
TEST(WalTest, AppendFaultChaosKeepsDiskEqualToAcks) {
  std::string dir = FreshDir("wal_chaos");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  std::vector<uint64_t> acked_books;
  size_t failures = 0;
  {
    FaultConfig config;
    config.seed = 29;
    config.io_error_probability = 0.2;
    config.short_read_probability = 0.1;
    ScopedFaultInjection arm(config);
    for (uint64_t i = 0; i < 200; ++i) {
      auto seq = (*wal)->Append(MakeReport(2000 + i, "chaos", "run", "q"));
      if (seq.ok()) {
        EXPECT_EQ(*seq, acked_books.size() + 1)
            << "failed appends must give their sequence back";
        acked_books.push_back(2000 + i);
      } else {
        ++failures;
        EXPECT_TRUE(seq.status().code() == StatusCode::kUnavailable ||
                    seq.status().code() == StatusCode::kDataLoss)
            << seq.status().ToString();
      }
    }
    // The mix must have exercised both injection points, including the
    // per-append fsync (reachable only when the append-point roll spares
    // the record).
    EXPECT_GT(FaultInjector::Global().injections(FaultPoint::kWalAppend), 0u);
    EXPECT_GT(FaultInjector::Global().injections(FaultPoint::kWalFsync), 0u);
  }
  ASSERT_GT(failures, 0u);
  ASSERT_GT(acked_books.size(), 0u);
  EXPECT_EQ((*wal)->durable_sequence(), acked_books.size());
  wal->reset();

  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), acked_books.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, i + 1);
    EXPECT_EQ(recovered[i].record.book_id, acked_books[i]);
  }
}

TEST(WalTest, ReplayFaultSurfacesTyped) {
  std::string dir = FreshDir("wal_replay_fault");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeReport(100 + i, "re", "play", "w")).ok());
    }
  }
  {
    FaultConfig config;
    config.seed = 7;
    config.io_error_probability = 1.0;
    config.max_injections = 1;
    ScopedFaultInjection arm(config);
    auto failed = OpenWal(dir, &recovered);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    EXPECT_GT(FaultInjector::Global().injections(FaultPoint::kWalReplay), 0u);
  }
  // The failure was the read path, not the bytes: a clean retry recovers.
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(recovered.size(), 3u);
}

// ---------------------------------------------------------------------------
// WAL-backed LiveIndexBuilder: durable acks and deterministic replay

struct LiveServing {
  std::shared_ptr<ResolutionService> service;
  std::shared_ptr<LiveIndexBuilder> builder;
};

LiveServing MakeWalServing(WriteAheadLog* wal, IngestOptions options = {}) {
  options.wal = wal;
  data::Dataset seed = MakeSeedCorpus();
  options.wal_base_records = seed.size();
  auto resolver = std::make_unique<core::IncrementalResolver>(
      seed, core::RankedResolution(), ml::AdTree());
  auto index = std::make_shared<const ResolutionIndex>(
      core::RankedResolution(), seed.size());
  auto service = std::make_shared<ResolutionService>(index);
  auto builder = std::make_shared<LiveIndexBuilder>(
      service, std::move(resolver), options);
  return {std::move(service), std::move(builder)};
}

// The acceptance invariant of DESIGN.md §14: under fault chaos across the
// append path, (a) every acked Submit survives the restart and nothing
// else does, and (b) replaying the WAL through a fresh resolver rebuilds
// an index with the exact checksum the live service was serving — the
// recovered index is a pure function of (seed corpus, acked prefix).
TEST(WalIngestTest, AckedRecordsSurviveAndReplayDeterministically) {
  std::string dir = FreshDir("wal_ingest_chaos");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  std::vector<std::pair<data::RecordIdx, uint64_t>> acked;  // (idx, book_id)
  uint64_t served_checksum = 0;
  {
    LiveServing live = MakeWalServing(wal->get());
    EXPECT_TRUE(live.builder->durable());
    {
      FaultConfig config;
      config.seed = 41;
      config.io_error_probability = 0.25;
      ScopedFaultInjection arm(config);
      for (uint64_t i = 0; i < 120; ++i) {
        auto idx = live.builder->Submit(
            MakeReport(3000 + i, "golda" + std::to_string(i % 7), "meir",
                       i % 2 ? "kiev" : "pinsk"));
        if (idx.ok()) acked.emplace_back(*idx, 3000 + i);
      }
    }
    ASSERT_GT(acked.size(), 0u);
    ASSERT_LT(acked.size(), 120u) << "chaos run unexpectedly fault-free";
    // Corpus indices are contiguous from the seed: a failed Submit takes
    // no slot (its WAL sequence was given back, so the wire-visible
    // idx<->sequence correspondence never drifts).
    for (size_t i = 0; i < acked.size(); ++i) {
      EXPECT_EQ(acked[i].first, 4 + i);
      EXPECT_EQ(live.builder->WalSequenceFor(acked[i].first), i + 1);
    }
    ASSERT_TRUE(live.builder->WaitForIdle().ok());
    served_checksum = live.service->PinIndex()->Checksum();
    live.builder->Stop();
  }
  EXPECT_EQ((*wal)->durable_sequence(), acked.size());
  wal->reset();

  // Restart: recovery returns exactly the acked records, in ack order.
  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), acked.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, i + 1);
    EXPECT_EQ(recovered[i].record.book_id, acked[i].second);
  }

  // Replay through a fresh resolver reproduces the served index bit for
  // bit.
  auto resolver = std::make_unique<core::IncrementalResolver>(
      MakeSeedCorpus(), core::RankedResolution(), ml::AdTree());
  for (const auto& rec : recovered) resolver->AddRecord(rec.record);
  ResolutionIndex rebuilt(resolver->Resolution(), resolver->dataset().size());
  EXPECT_EQ(rebuilt.num_records(), 4 + acked.size());
  EXPECT_EQ(rebuilt.Checksum(), served_checksum)
      << "replayed index diverged from the one served before the restart";
}

// Submit refuses before it touches the log: a record the builder will
// not enqueue must not become durable either.
TEST(WalIngestTest, FullQueueShedsBeforeTheLog) {
  std::string dir = FreshDir("wal_ingest_full_queue");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  IngestOptions options;
  options.max_queue_depth = 0;
  LiveServing live = MakeWalServing(wal->get(), options);
  auto shed = live.builder->Submit(MakeReport(9, "a", "b", "c"));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*wal)->stats().appends, 0u);
}

TEST(WalIngestTest, SubmitAfterStopIsUnavailableAndNotLogged) {
  std::string dir = FreshDir("wal_ingest_stopped");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  LiveServing live = MakeWalServing(wal->get());
  live.builder->Stop();
  auto refused = live.builder->Submit(MakeReport(9, "a", "b", "c"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*wal)->stats().appends, 0u);
}

// Reports that share names and towns with each other and with the seed
// corpus, so where each one lands changes the matches.
std::vector<data::Record> AppendStream(size_t n) {
  static const char* const kFirst[] = {"chaim", "sara", "dvora", "moshe"};
  static const char* const kTown[] = {"vilna", "lodz", "warsaw"};
  std::vector<data::Record> records;
  for (size_t i = 0; i < n; ++i) {
    records.push_back(MakeReport(7000 + i, kFirst[i % 4],
                                 i % 3 == 0 ? "levi" : "cohen",
                                 kTown[(i / 2) % 3]));
  }
  return records;
}

// FaultConfig::points bit of one point.
constexpr uint32_t Bit(FaultPoint point) {
  return 1u << static_cast<unsigned>(point);
}

// Serial replay of `acked` over the seed corpus: the checksum of the
// index after each prefix, indexed by prefix length.
std::vector<uint64_t> SerialPrefixChecksums(
    const std::vector<data::Record>& acked) {
  core::IncrementalResolver serial(MakeSeedCorpus(), core::RankedResolution(),
                                   ml::AdTree());
  std::vector<uint64_t> checksums;
  for (size_t n = 0;; ++n) {
    checksums.push_back(
        ResolutionIndex(serial.Resolution(), serial.dataset().size())
            .Checksum());
    if (n == acked.size()) break;
    serial.AddRecord(acked[n]);
  }
  return checksums;
}

// The builder applies a record while its fsync is in flight, but no
// generation holds it until Submit has acked it: while the fsync is held
// (a latency fault at serve.wal.fsync only), the record is applied yet
// the served corpus excludes it and a query for its index is out of range.
TEST(WalIngestTest, AppliedDuringTheFsyncButVisibleOnlyOnceAcked) {
  std::string dir = FreshDir("wal_ingest_held_fsync");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  LiveServing live = MakeWalServing(wal->get());
  FaultConfig config;
  config.latency_probability = 1.0;
  config.latency_micros = 1000000;
  config.max_injections = 1;
  config.points = Bit(FaultPoint::kWalFsync);
  ScopedFaultInjection arm(config);

  util::StatusOr<data::RecordIdx> submitted =
      util::Status::Unavailable("not submitted");
  std::thread submitter([&] {
    submitted = live.builder->Submit(MakeReport(9, "chaim", "levi", "vilna"));
  });
  util::Deadline deadline = util::Deadline::AfterMillis(30000);
  while (live.builder->stats().applied < 1 && !deadline.HasExpired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(live.builder->stats().applied, 1u);
  EXPECT_EQ(live.service->PinIndex()->num_records(), 4u);
  Query query;
  query.record = 4;
  auto early = live.service->QueryRecord(query);
  EXPECT_EQ(early.status().code(), StatusCode::kOutOfRange);
  // The checks above ran before the ack; otherwise they proved nothing.
  EXPECT_EQ(live.builder->stats().submitted, 0u)
      << "the fsync stall ended before the checks ran";
  submitter.join();
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(*submitted, 4u);
  EXPECT_EQ(FaultInjector::Global().injections(FaultPoint::kWalFsync), 1u);

  ASSERT_TRUE(live.builder->WaitForIdle().ok());
  EXPECT_EQ(live.service->PinIndex()->num_records(), 5u);
  auto answered = live.service->QueryRecord(query);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_FALSE(answered->matches.empty());
}

// Stop overtaking an append in its fsync: the record is durable (it will
// replay on restart) but not acked, so Submit refuses it and the builder,
// which applied it during the fsync, retracts it before it exits.
TEST(WalIngestTest, StopDuringTheFsyncRetractsTheAppliedRecord) {
  std::string dir = FreshDir("wal_ingest_stop_in_fsync");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  LiveServing live = MakeWalServing(wal->get());
  FaultConfig config;
  config.latency_probability = 1.0;
  config.latency_micros = 300000;
  config.max_injections = 1;
  config.points = Bit(FaultPoint::kWalFsync);
  ScopedFaultInjection arm(config);

  util::StatusOr<data::RecordIdx> submitted = data::RecordIdx{0};
  std::thread submitter([&] {
    submitted = live.builder->Submit(MakeReport(9, "chaim", "levi", "vilna"));
  });
  util::Deadline deadline = util::Deadline::AfterMillis(30000);
  while (live.builder->stats().applied < 1 && !deadline.HasExpired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(live.builder->stats().submitted, 0u)
      << "the fsync stall ended before Stop began";
  live.builder->Stop();
  submitter.join();
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
  IngestStats stats = live.builder->stats();
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.retracted, 1u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.published, 0u);
  EXPECT_EQ(live.service->PinIndex()->num_records(), 4u);
  EXPECT_EQ((*wal)->durable_sequence(), 1u);
}

// Appends that fail after the builder applied the record are retracted
// from the resolver: every generation a reader pins equals the serial
// replay of an acked prefix, the final one that of every ack, and the
// retraction path really ran (3 ms stalls at serve.wal.append give the
// builder time to take the record before serve.wal.fsync fails it).
// Faults at serve.index.publish as well make batches: records queue up
// behind a stalled or failed publish, so a retraction can hit the last
// record of a batch whose others stay.
void ExpectFailedAppendsRetracted(const std::string& name,
                                  size_t publish_batch, uint32_t points) {
  std::string dir = FreshDir(name);
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  IngestOptions options;
  options.publish_batch = publish_batch;
  LiveServing live = MakeWalServing(wal->get(), options);

  struct Seen {
    size_t num_records;
    uint64_t checksum;
    uint64_t acked;  // Submit acks counted after the pin
  };
  std::vector<Seen> seen;
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    uint64_t last_generation = 0;
    while (!done.load()) {
      auto pinned = live.service->PinIndex();
      if (pinned.generation() != last_generation) {
        last_generation = pinned.generation();
        seen.push_back({pinned->num_records(), pinned->Checksum(),
                        live.builder->stats().submitted});
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::vector<data::Record> acked;
  size_t refused = 0;
  {
    FaultConfig config;
    config.seed = 7;
    config.io_error_probability = 0.3;
    config.latency_probability = 0.7;
    config.latency_micros = 3000;
    config.points = points;
    ScopedFaultInjection arm(config);
    for (data::Record& record : AppendStream(60)) {
      auto idx = live.builder->Submit(record);
      if (!idx.ok()) {
        EXPECT_EQ(idx.status().code(), StatusCode::kUnavailable);
        ++refused;
        continue;
      }
      EXPECT_EQ(*idx, 4 + acked.size());
      acked.push_back(std::move(record));
    }
    util::Status idle =
        live.builder->WaitForIdle(util::Deadline::AfterMillis(30000));
    done = true;
    watcher.join();
    ASSERT_TRUE(idle.ok()) << idle.ToString();
  }

  IngestStats stats = live.builder->stats();
  EXPECT_GT(refused, 0u);
  EXPECT_GT(stats.retracted, 0u) << "no failure reached an applied record";
  EXPECT_LE(stats.retracted, refused);
  EXPECT_EQ(stats.submitted, acked.size());
  EXPECT_EQ(stats.applied - stats.retracted, acked.size());
  EXPECT_EQ((*wal)->durable_sequence(), acked.size());

  std::vector<uint64_t> serial = SerialPrefixChecksums(acked);
  EXPECT_EQ(live.service->PinIndex()->Checksum(), serial.back());
  ASSERT_FALSE(seen.empty());
  for (const Seen& generation : seen) {
    ASSERT_GE(generation.num_records, 4u);
    size_t n = generation.num_records - 4;
    ASSERT_LE(n, generation.acked) << "a generation held an unacked record";
    EXPECT_EQ(generation.checksum, serial[n])
        << "the generation over " << n << " appends is not their replay";
  }
}

TEST(WalIngestTest, FsyncFailuresAfterApplyAreRetracted) {
  ExpectFailedAppendsRetracted(
      "wal_ingest_retract", 1,
      Bit(FaultPoint::kWalAppend) | Bit(FaultPoint::kWalFsync));
}

TEST(WalIngestTest, FsyncFailuresInBatchesBehindPublishFaultsAreRetracted) {
  ExpectFailedAppendsRetracted(
      "wal_ingest_retract_batched", 4,
      Bit(FaultPoint::kWalAppend) | Bit(FaultPoint::kWalFsync) |
          Bit(FaultPoint::kIndexPublish));
}

// ---------------------------------------------------------------------------
// RecoverWal: the restart path of durable live ingest, in process. Every
// case checks the recovered corpus against the reference — the seed corpus
// plus the acked records applied one at a time, in ack order, through a
// fresh resolver — record by record and by index checksum.

struct RecoveryCheck {
  std::unique_ptr<WriteAheadLog> wal;
  std::vector<data::Record> appended;  // corpus order, past the seed
  uint64_t checksum = 0;
};

util::StatusOr<RecoveryCheck> Recover(const std::string& dir,
                                      WalOptions options = {}) {
  core::IncrementalResolver resolver(MakeSeedCorpus(),
                                     core::RankedResolution(), ml::AdTree());
  size_t seed_size = resolver.dataset().size();
  auto recovered = RecoverWal(dir, options, &resolver);
  if (!recovered.ok()) return recovered.status();
  RecoveryCheck check;
  check.wal = std::move(recovered).value();
  for (size_t i = seed_size; i < resolver.dataset().size(); ++i) {
    check.appended.push_back(
        resolver.dataset()[static_cast<data::RecordIdx>(i)]);
  }
  check.checksum =
      ResolutionIndex(resolver.Resolution(), resolver.dataset().size())
          .Checksum();
  return check;
}

std::vector<std::pair<data::AttributeId, std::string>> EntriesOf(
    const data::Record& record) {
  std::vector<std::pair<data::AttributeId, std::string>> entries;
  for (const data::Record::Entry& entry : record.entries()) {
    entries.emplace_back(entry.attr, entry.value);
  }
  return entries;
}

void ExpectRecoveredExactly(const RecoveryCheck& check,
                            const std::vector<data::Record>& acked) {
  core::IncrementalResolver serial(MakeSeedCorpus(), core::RankedResolution(),
                                   ml::AdTree());
  for (const data::Record& record : acked) serial.AddRecord(record);
  ASSERT_EQ(check.appended.size(), acked.size())
      << "recovery changed how many records were appended";
  for (size_t i = 0; i < acked.size(); ++i) {
    EXPECT_EQ(check.appended[i].book_id, acked[i].book_id)
        << "recovery changed which record sits at append " << i;
    EXPECT_EQ(EntriesOf(check.appended[i]), EntriesOf(acked[i]))
        << "recovery changed the values of append " << i;
  }
  EXPECT_EQ(check.checksum,
            ResolutionIndex(serial.Resolution(), serial.dataset().size())
                .Checksum())
      << "recovered index diverged from the serial replay of the acks";
}

// Submits `records` through a WAL-backed builder in `dir` and stops it;
// every Submit must be acked.
void IngestAndStop(const std::string& dir, const WalOptions& wal_options,
                   const std::vector<data::Record>& records) {
  std::vector<WalRecoveredRecord> recovered;
  auto wal = WriteAheadLog::Open(dir, wal_options, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  LiveServing live = MakeWalServing(wal->get());
  for (const data::Record& record : records) {
    auto idx = live.builder->Submit(record);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  }
  live.builder->Stop();
}

TEST(WalRecoveryTest, EmptyDirectoryRecoversNothing) {
  std::string dir = FreshDir("wal_recover_empty");
  auto check = Recover(dir);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_NE(check->wal, nullptr);
  EXPECT_EQ(check->wal->stats().recovered_records, 0u);
  EXPECT_EQ(check->wal->durable_sequence(), 0u);
  ExpectRecoveredExactly(*check, {});
}

TEST(WalRecoveryTest, LogOnlyReplaysEveryRecord) {
  std::string dir = FreshDir("wal_recover_log_only");
  std::vector<data::Record> acked = AppendStream(11);
  IngestAndStop(dir, WalOptions{}, acked);

  auto check = Recover(dir);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->wal->stats().recovered_records, 11u);
  EXPECT_EQ(check->wal->durable_sequence(), 11u);
  ExpectRecoveredExactly(*check, acked);
}

// Values may hold any byte the wire carries, ';' included (it separates
// values in the CSV format): the log keeps each record as its wire frame,
// so a restart brings back every value exactly, never split or refused.
TEST(WalRecoveryTest, SemicolonValuesRecoverExactly) {
  for (const char* value : {"a;b", "x;LN_y"}) {
    SCOPED_TRACE(value);
    std::string dir = FreshDir("wal_recover_semicolon");
    std::vector<data::Record> acked = {
        MakeReport(8000, value, "cohen", "lodz"),
        MakeReport(8001, "sara", value, "lodz")};
    IngestAndStop(dir, WalOptions{}, acked);

    auto check = Recover(dir);
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_EQ(check->wal->stats().recovered_records, 2u);
    ExpectRecoveredExactly(*check, acked);
  }
}

// A crash image taken while the builder is still running: every Submit
// returned (so every record is acked and fsync'd), and the builder may
// not have applied or published them all. The builder never writes to
// the log directory, so once the last Submit has returned the directory
// is quiescent and can be copied as a consistent image with no Stop run
// first; recovery from the copy must hold exactly the acked records.
TEST(WalRecoveryTest, BuilderAbandonedMidStreamRecoversEveryAck) {
  std::string dir = FreshDir("wal_recover_abandoned");
  std::string image = FreshDir("wal_recover_abandoned_image");
  WalOptions wal_options{.segment_bytes = 1};
  std::vector<WalRecoveredRecord> recovered;
  auto wal = WriteAheadLog::Open(dir, wal_options, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  LiveServing live = MakeWalServing(wal->get());
  std::vector<data::Record> acked = AppendStream(12);
  for (const data::Record& record : acked) {
    ASSERT_TRUE(live.builder->Submit(record).ok());
  }
  std::filesystem::create_directories(image);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::copy_file(entry.path(),
                               image + "/" + entry.path().filename().string());
  }
  ASSERT_EQ(SegmentPaths(image).size(), 12u);

  auto check = Recover(image, wal_options);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->wal->stats().recovered_records, 12u);
  ExpectRecoveredExactly(*check, acked);
}

}  // namespace
}  // namespace yver::serve
