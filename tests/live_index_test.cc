// Tests of the live-index layer (DESIGN.md §13): IndexManager's
// pin/publish/retire lifecycle, the generation-keyed service cache, and
// LiveIndexBuilder's append-to-publish pipeline. The swap-under-load
// chaos matrix lives in chaos_test.cc; these are the targeted unit and
// integration tests behind it.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/ranked_resolution.h"
#include "data/dataset.h"
#include "serve/index_manager.h"
#include "serve/ingest.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "util/fault_injector.h"
#include "util/rng.h"
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

core::RankedResolution MakeResolution(size_t num_records, size_t num_matches,
                                      uint64_t seed) {
  util::Rng rng(seed);
  std::set<data::RecordPair> seen;
  std::vector<core::RankedMatch> matches;
  while (matches.size() < num_matches) {
    auto a = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
    auto b = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
    if (a == b) continue;
    data::RecordPair pair(a, b);
    if (!seen.insert(pair).second) continue;
    core::RankedMatch m;
    m.pair = pair;
    m.confidence = rng.UniformInt(1, 20) / 20.0;
    m.block_score = rng.UniformDouble();
    matches.push_back(m);
  }
  return core::RankedResolution(std::move(matches));
}

std::shared_ptr<const ResolutionIndex> MakeIndex(size_t num_records,
                                                 size_t num_matches,
                                                 uint64_t seed) {
  return std::make_shared<const ResolutionIndex>(
      MakeResolution(num_records, num_matches, seed), num_records);
}

// ---------------------------------------------------------------------------
// IndexManager: pin / publish / retire

TEST(IndexManagerTest, StartsAtGenerationOne) {
  IndexManager manager(MakeIndex(16, 32, 1));
  EXPECT_EQ(manager.generation(), 1u);
  EXPECT_EQ(manager.publishes(), 0u);
  EXPECT_EQ(manager.pinned_readers(), 0u);
  EXPECT_EQ(manager.retained_snapshots(), 1u);
  PinnedIndex pin = manager.Acquire();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.generation(), 1u);
  EXPECT_EQ(pin->num_records(), 16u);
}

TEST(IndexManagerTest, PublishSequencesGenerations) {
  IndexManager manager(MakeIndex(16, 32, 1));
  for (uint64_t expected = 2; expected <= 10; ++expected) {
    auto published = manager.Publish(MakeIndex(16, 32, expected));
    ASSERT_TRUE(published.ok());
    EXPECT_EQ(*published, expected);
    EXPECT_EQ(manager.generation(), expected);
    EXPECT_EQ(manager.Acquire().generation(), expected);
  }
  EXPECT_EQ(manager.publishes(), 9u);
}

TEST(IndexManagerTest, PinnedReaderKeepsItsGenerationAlive) {
  auto initial = MakeIndex(16, 32, 1);
  std::weak_ptr<const ResolutionIndex> watch = initial;
  IndexManager manager(std::move(initial));

  PinnedIndex pin = manager.Acquire();
  EXPECT_EQ(manager.pinned_readers(), 1u);
  ASSERT_TRUE(manager.Publish(MakeIndex(16, 32, 2)).ok());

  // The retired generation survives exactly as long as its last pin.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(manager.retained_snapshots(), 2u);
  EXPECT_EQ(pin.generation(), 1u);
  EXPECT_EQ(pin->num_records(), 16u);  // still readable after the swap

  pin.Release();
  EXPECT_TRUE(watch.expired()) << "retired snapshot must be freed on the "
                                  "last release";
  EXPECT_EQ(manager.retained_snapshots(), 1u);
  EXPECT_EQ(manager.pinned_readers(), 0u);
}

TEST(IndexManagerTest, PinnedReadersGaugeCountsAndDrains) {
  IndexManager manager(MakeIndex(16, 32, 1));
  std::vector<PinnedIndex> pins;
  for (int i = 0; i < 5; ++i) pins.push_back(manager.Acquire());
  EXPECT_EQ(manager.pinned_readers(), 5u);
  pins.clear();  // dtor releases
  EXPECT_EQ(manager.pinned_readers(), 0u);
}

TEST(IndexManagerTest, ReleaseIsIdempotentAndMoveSafe) {
  IndexManager manager(MakeIndex(16, 32, 1));
  PinnedIndex pin = manager.Acquire();
  PinnedIndex moved = std::move(pin);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  moved.Release();  // second release is a no-op
  EXPECT_EQ(manager.pinned_readers(), 0u);
}

TEST(IndexManagerTest, PublishFaultInstallsNothing) {
  IndexManager manager(MakeIndex(16, 32, 1));
  FaultConfig config;
  config.seed = 5;
  config.io_error_probability = 1.0;
  config.max_injections = 1;
  ScopedFaultInjection arm(config);

  auto failed = manager.Publish(MakeIndex(16, 32, 2));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager.generation(), 1u) << "a failed publish must leave the "
                                         "old generation serving";
  EXPECT_EQ(manager.publishes(), 0u);
  EXPECT_EQ(manager.Acquire().generation(), 1u);

  // The injection budget is spent; the retry installs.
  auto retried = manager.Publish(MakeIndex(16, 32, 2));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, 2u);
}

TEST(IndexManagerTest, QuiescentSlotsRecycleWithoutBlocking) {
  // Far more generations than slots: with no pins outstanding, every
  // retired slot reclaims immediately and Publish never waits.
  IndexManager manager(MakeIndex(8, 8, 1));
  for (uint64_t i = 0; i < IndexManager::kNumSlots * 3; ++i) {
    ASSERT_TRUE(manager.Publish(MakeIndex(8, 8, i + 2)).ok());
    EXPECT_EQ(manager.retained_snapshots(), 1u);
  }
  EXPECT_EQ(manager.generation(), IndexManager::kNumSlots * 3 + 1);
}

TEST(IndexManagerTest, ReadersNeverBlockAcrossConcurrentPublishes) {
  // Readers acquire/release in a tight loop while a writer publishes 200
  // generations. Wait-freedom can't be asserted directly, but the
  // monotonicity contract can: each reader's observed generation never
  // decreases, and every pin is internally consistent.
  constexpr int kReaders = 4;
  IndexManager manager(MakeIndex(32, 64, 1));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acquired{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        PinnedIndex pin = manager.Acquire();
        EXPECT_GE(pin.generation(), last);
        last = pin.generation();
        EXPECT_EQ(pin->num_records(), 32u);
        acquired.fetch_add(1, std::memory_order_relaxed);
        if (first) started.fetch_add(1);
        first = false;
      }
    });
  }
  // Publish only once every reader has pinned: otherwise a slow thread
  // start can let all 200 publishes finish before any reader runs, and
  // the test would not be publishing "across" readers at all.
  while (started.load() < kReaders) std::this_thread::yield();
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(manager.Publish(MakeIndex(32, 64, i + 2)).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(acquired.load(), 0u);
  EXPECT_EQ(manager.pinned_readers(), 0u);
  EXPECT_EQ(manager.retained_snapshots(), 1u)
      << "all retired generations must be reclaimed once readers drain";
}

TEST(IndexManagerTest, RetiredSlotsReclaimUnderPinningReaders) {
  // Each batch publishes more generations than the ring has slots while
  // readers pin and release in a tight loop, so the last release of a
  // retired generation races its retire in Publish over and over. Every
  // lost race leaks a slot for good (and after kNumSlots - 1 leaks Publish
  // would wait forever); once readers drain, exactly the current snapshot
  // must be left.
  constexpr int kReaders = 4;
  constexpr int kBatches = 6;
  IndexManager manager(MakeIndex(16, 16, 1));
  uint64_t seed = 2;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::atomic<bool> stop{false};
    std::atomic<int> started{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        bool first = true;
        while (!stop.load(std::memory_order_relaxed)) {
          PinnedIndex pin = manager.Acquire();
          if (first) started.fetch_add(1);
          first = false;
        }
      });
    }
    while (started.load() < kReaders) std::this_thread::yield();
    for (size_t i = 0; i < IndexManager::kNumSlots + 8; ++i) {
      ASSERT_TRUE(manager.Publish(MakeIndex(16, 16, seed++)).ok());
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_EQ(manager.pinned_readers(), 0u) << "batch " << batch;
    ASSERT_EQ(manager.retained_snapshots(), 1u)
        << "batch " << batch << " leaked a retired snapshot";
  }
}

// ---------------------------------------------------------------------------
// ResolutionService: queries pin, publishes swap, the cache keys on
// generation

TEST(ServicePublishTest, QueriesSeeTheNewGenerationAfterPublish) {
  // Generation 1 has no matches at all; generation 2 has plenty. The same
  // semantic query must answer differently across the publish — in
  // particular the gen-1 answer cached before the swap must not be served
  // afterwards (the cache-key bugfix this PR carries).
  auto empty = std::make_shared<const ResolutionIndex>(
      core::RankedResolution(), 32);
  auto service = std::make_shared<ResolutionService>(empty);

  Query query;
  query.record = 3;
  query.certainty = 0.0;

  auto before = service->QueryRecord(query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->generation, 1u);
  EXPECT_TRUE(before->matches.empty());
  auto cached = service->QueryRecord(query);  // warm the gen-1 cache entry
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);

  auto published = service->PublishIndex(MakeIndex(32, 256, 7));
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 2u);

  auto after = service->QueryRecord(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 2u);
  EXPECT_FALSE(after->from_cache)
      << "a cached gen-1 answer leaked into gen-2";
  EXPECT_FALSE(after->matches.empty());

  auto metrics = service->metrics();
  EXPECT_EQ(metrics.generation, 2u);
  EXPECT_EQ(metrics.publishes, 1u);
  EXPECT_EQ(metrics.pinned_readers, 0u);
}

TEST(ServicePublishTest, EntityClustersFollowTheGeneration) {
  // The per-threshold cluster memo must be invalidated on publish: an
  // entity query after the swap reflects the new match graph.
  auto empty = std::make_shared<const ResolutionIndex>(
      core::RankedResolution(), 16);
  auto service = std::make_shared<ResolutionService>(empty);

  Query query;
  query.record = 2;
  query.granularity = Granularity::kEntity;
  query.certainty = 0.0;

  auto before = service->QueryRecord(query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->entity, std::vector<data::RecordIdx>{2});

  std::vector<core::RankedMatch> matches(1);
  matches[0].pair = data::RecordPair(2, 9);
  matches[0].confidence = 0.9;
  ASSERT_TRUE(service
                  ->PublishIndex(std::make_shared<const ResolutionIndex>(
                      core::RankedResolution(std::move(matches)), 16))
                  .ok());

  auto after = service->QueryRecord(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->entity, (std::vector<data::RecordIdx>{2, 9}));
  EXPECT_EQ(after->generation, 2u);
}

TEST(ServicePublishTest, GrowingCorpusWidensValidation) {
  // Publishing a bigger index makes previously OUT_OF_RANGE records
  // queryable — the ingest path's visibility contract.
  auto service = std::make_shared<ResolutionService>(MakeIndex(8, 16, 3));
  Query query;
  query.record = 11;
  auto before = service->QueryRecord(query);
  ASSERT_FALSE(before.ok());
  EXPECT_EQ(before.status().code(), StatusCode::kOutOfRange);

  ASSERT_TRUE(service->PublishIndex(MakeIndex(12, 24, 4)).ok());
  auto after = service->QueryRecord(query);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

// ---------------------------------------------------------------------------
// LiveIndexBuilder: append -> resolve -> publish

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

// A tiny seed corpus with real content, so the incremental resolver has
// items to intern and candidates to score.
data::Dataset MakeSeedCorpus() {
  data::Dataset dataset;
  dataset.Add(MakeReport(1, "chaim", "levi", "vilna"));
  dataset.Add(MakeReport(2, "chaim", "levi", "vilna"));
  dataset.Add(MakeReport(3, "sara", "cohen", "lodz"));
  dataset.Add(MakeReport(4, "dvora", "katz", "warsaw"));
  return dataset;
}

// The index a serial IncrementalResolver replay of `appended` over the
// seed corpus resolves to: what the served generation must equal, byte
// for byte, however publishes were batched or failed along the way.
uint64_t SerialReplayChecksum(const std::vector<data::Record>& appended) {
  core::IncrementalResolver replay(MakeSeedCorpus(), core::RankedResolution(),
                                   ml::AdTree());
  for (const data::Record& record : appended) replay.AddRecord(record);
  EXPECT_GT(replay.num_matches(), 0u) << "the replay has nothing to compare";
  return ResolutionIndex(replay.Resolution(), replay.dataset().size())
      .Checksum();
}

struct LiveServing {
  std::shared_ptr<ResolutionService> service;
  std::shared_ptr<LiveIndexBuilder> builder;
};

LiveServing MakeLiveServing(IngestOptions options = {}) {
  data::Dataset seed = MakeSeedCorpus();
  auto resolver = std::make_unique<core::IncrementalResolver>(
      seed, core::RankedResolution(), ml::AdTree());
  auto index = std::make_shared<const ResolutionIndex>(
      core::RankedResolution(), seed.size());
  auto service = std::make_shared<ResolutionService>(index);
  auto builder = std::make_shared<LiveIndexBuilder>(
      service, std::move(resolver), options);
  return {std::move(service), std::move(builder)};
}

TEST(LiveIndexBuilderTest, AppendedRecordBecomesQueryable) {
  LiveServing live = MakeLiveServing();
  EXPECT_EQ(live.builder->base_records(), 4u);

  // A near-duplicate of records 1/2: the incremental resolver should match
  // it against them once published.
  auto idx = live.builder->Submit(MakeReport(5, "chaim", "levi", "vilna"));
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 4u);
  ASSERT_TRUE(live.builder->WaitForIdle().ok());

  auto stats = live.builder->stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_GE(stats.published, 1u);

  Query query;
  query.record = *idx;
  auto result = live.service->QueryRecord(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->generation, 2u);
  EXPECT_FALSE(result->matches.empty())
      << "the appended duplicate found no matches";
}

TEST(LiveIndexBuilderTest, IndicesFollowSubmissionOrder) {
  LiveServing live = MakeLiveServing();
  for (uint64_t i = 0; i < 8; ++i) {
    auto idx = live.builder->Submit(
        MakeReport(100 + i, "name" + std::to_string(i), "x", "y"));
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, 4u + i);
  }
  ASSERT_TRUE(live.builder->WaitForIdle().ok());
  EXPECT_EQ(live.service->PinIndex()->num_records(), 12u);
}

TEST(LiveIndexBuilderTest, ZeroDepthQueueShedsEverySubmit) {
  IngestOptions options;
  options.max_queue_depth = 0;
  LiveServing live = MakeLiveServing(options);
  auto shed = live.builder->Submit(MakeReport(9, "a", "b", "c"));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
}

TEST(LiveIndexBuilderTest, SubmitAfterStopIsUnavailable) {
  LiveServing live = MakeLiveServing();
  live.builder->Stop();
  auto refused = live.builder->Submit(MakeReport(9, "a", "b", "c"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
}

TEST(LiveIndexBuilderTest, PublishFaultsDelayButNeverLoseRecords) {
  // Fail the first two publishes; the builder retries with its cumulative
  // snapshot, so every submitted record still lands, in order.
  LiveServing live = MakeLiveServing();
  FaultConfig config;
  config.seed = 11;
  config.io_error_probability = 1.0;
  config.max_injections = 2;
  ScopedFaultInjection arm(config);

  std::vector<data::RecordIdx> indices;
  std::vector<data::Record> appended;
  for (uint64_t i = 0; i < 4; ++i) {
    appended.push_back(
        MakeReport(200 + i, "rivka" + std::to_string(i), "gold", "krakow"));
    auto idx = live.builder->Submit(appended.back());
    ASSERT_TRUE(idx.ok());
    indices.push_back(*idx);
  }
  ASSERT_TRUE(live.builder->WaitForIdle().ok());

  auto stats = live.builder->stats();
  EXPECT_EQ(stats.applied, 4u);
  EXPECT_EQ(stats.publish_failures, 2u);
  EXPECT_GE(stats.published, 1u);
  EXPECT_EQ(live.service->PinIndex()->num_records(), 8u)
      << "all four records must be in the served generation";
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], 4u + i);
  }
  // Retries republish the snapshot built before the failure, extended by
  // what was applied since: the result is still the serial replay.
  EXPECT_EQ(live.service->PinIndex()->Checksum(),
            SerialReplayChecksum(appended));
}

TEST(LiveIndexBuilderTest, BatchedPublishesCoalesceGenerations) {
  IngestOptions options;
  options.publish_batch = 8;
  LiveServing live = MakeLiveServing(options);
  std::vector<data::Record> appended;
  for (uint64_t i = 0; i < 8; ++i) {
    appended.push_back(MakeReport(300 + i, "m" + std::to_string(i), "n", "o"));
    ASSERT_TRUE(live.builder->Submit(appended.back()).ok());
  }
  ASSERT_TRUE(live.builder->WaitForIdle().ok());
  auto stats = live.builder->stats();
  EXPECT_EQ(stats.applied, 8u);
  // At least one publish happened and batching kept it well under
  // one-per-record.
  EXPECT_GE(stats.published, 1u);
  EXPECT_LE(stats.published, 8u);
  EXPECT_EQ(live.service->PinIndex()->num_records(), 12u);
  EXPECT_EQ(live.service->PinIndex()->Checksum(),
            SerialReplayChecksum(appended));
}

}  // namespace
}  // namespace yver::serve
