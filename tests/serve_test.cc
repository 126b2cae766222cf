// Tests of the query-serving layer: ResolutionIndex round-trips,
// ResolutionService answers and concurrency, and the typed Query API.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/entity_clusters.h"
#include "core/ranked_resolution.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "support/strided_queries.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/status.h"

namespace yver::serve {
namespace {

using core::RankedMatch;
using core::RankedResolution;
using data::RecordPair;

// Random resolution over `num_records` records with deliberate confidence
// ties, so determinism of the ordering contract is actually exercised.
RankedResolution MakeRandomResolution(size_t num_records, size_t num_matches,
                                      uint64_t seed) {
  util::Rng rng(seed);
  std::set<RecordPair> seen;
  std::vector<RankedMatch> matches;
  while (matches.size() < num_matches) {
    auto a = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
    auto b = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
    if (a == b) continue;
    RecordPair pair(a, b);
    if (!seen.insert(pair).second) continue;
    RankedMatch m;
    m.pair = pair;
    // Quantized confidences: plenty of exact ties.
    m.confidence = rng.UniformInt(-2, 20) / 10.0;
    m.block_score = rng.UniformDouble();
    matches.push_back(m);
  }
  return RankedResolution(std::move(matches));
}

// The pre-index reference semantics: linear scan of the sorted match list.
std::vector<RankedMatch> LinearForRecord(const std::vector<RankedMatch>& all,
                                         data::RecordIdx r,
                                         double certainty) {
  std::vector<RankedMatch> out;
  for (const auto& m : all) {
    if (m.confidence <= certainty) break;
    if (m.pair.a == r || m.pair.b == r) out.push_back(m);
  }
  return out;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// util::Status / StatusOr

TEST(StatusTest, OkAndErrorsRoundTrip) {
  EXPECT_TRUE(util::Status::Ok().ok());
  auto bad = util::Status::InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "INVALID_ARGUMENT: nope");
}

TEST(StatusTest, StatusOrHoldsValueOrStatus) {
  util::StatusOr<int> ok_value(42);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 42);
  util::StatusOr<int> error(util::Status::NotFound("missing"));
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), util::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// RankedResolution delegating to the adjacency index

TEST(RankedResolutionIndexTest, ForRecordMatchesLinearScan) {
  auto res = MakeRandomResolution(200, 600, /*seed=*/3);
  for (double certainty : {-3.0, -0.5, 0.0, 0.3, 0.7, 1.0, 2.5}) {
    for (data::RecordIdx r = 0; r < 200; r += 7) {
      EXPECT_EQ(res.ForRecord(r, certainty),
                LinearForRecord(res.matches(), r, certainty));
    }
  }
}

TEST(RankedResolutionIndexTest, DeterministicAcrossInputPermutations) {
  auto res = MakeRandomResolution(50, 200, /*seed=*/9);
  // Re-feed the same matches reversed: the ordering contract promises an
  // identical sorted list.
  std::vector<RankedMatch> reversed(res.matches().rbegin(),
                                    res.matches().rend());
  RankedResolution again(std::move(reversed));
  EXPECT_EQ(res.matches(), again.matches());
}

// ---------------------------------------------------------------------------
// ResolutionIndex

class ResolutionIndexTest : public testing::Test {
 protected:
  void SetUp() override {
    resolution_ = MakeRandomResolution(kRecords, kMatches, /*seed=*/11);
    index_ = ResolutionIndex(resolution_, kRecords);
  }

  static constexpr size_t kRecords = 300;
  static constexpr size_t kMatches = 900;
  RankedResolution resolution_;
  ResolutionIndex index_;
};

TEST_F(ResolutionIndexTest, AgreesWithRankedResolution) {
  for (double certainty : {-3.0, 0.0, 0.45, 1.0}) {
    EXPECT_EQ(index_.AboveThreshold(certainty),
              resolution_.AboveThreshold(certainty));
    EXPECT_EQ(index_.CountAbove(certainty),
              resolution_.CountAboveThreshold(certainty));
    for (data::RecordIdx r = 0; r < kRecords; r += 13) {
      EXPECT_EQ(index_.ForRecord(r, certainty),
                resolution_.ForRecord(r, certainty));
    }
  }
  EXPECT_EQ(index_.TopK(17), resolution_.TopK(17));
  EXPECT_EQ(index_.TopK(kMatches + 50), resolution_.matches());
}

TEST_F(ResolutionIndexTest, KTruncatesForRecord) {
  for (data::RecordIdx r = 0; r < kRecords; r += 29) {
    auto all = index_.ForRecord(r, -5.0);
    auto top2 = index_.ForRecord(r, -5.0, 2);
    ASSERT_LE(top2.size(), 2u);
    for (size_t i = 0; i < top2.size(); ++i) EXPECT_EQ(top2[i], all[i]);
  }
}

TEST_F(ResolutionIndexTest, SaveLoadRoundTripIsByteIdentical) {
  std::string path = TempPath("roundtrip.yvx");
  ASSERT_TRUE(index_.Save(path).ok());
  auto loaded = ResolutionIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_records(), index_.num_records());
  // Arena equality is bitwise for the doubles, so every query result over
  // the loaded index is byte-identical to the in-memory one.
  EXPECT_EQ(loaded->matches(), index_.matches());
  for (double certainty : {-1.0, 0.0, 0.5}) {
    for (data::RecordIdx r = 0; r < kRecords; r += 31) {
      EXPECT_EQ(loaded->ForRecord(r, certainty),
                index_.ForRecord(r, certainty));
    }
  }
  std::remove(path.c_str());
}

TEST_F(ResolutionIndexTest, LoadRejectsMissingCorruptAndTruncated) {
  EXPECT_EQ(ResolutionIndex::Load(TempPath("no-such-file.yvx")).status().code(),
            util::StatusCode::kNotFound);

  std::string garbage = TempPath("garbage.yvx");
  { std::ofstream(garbage, std::ios::binary) << "definitely not an index"; }
  EXPECT_EQ(ResolutionIndex::Load(garbage).status().code(),
            util::StatusCode::kDataLoss);
  std::remove(garbage.c_str());

  std::string truncated = TempPath("truncated.yvx");
  ASSERT_TRUE(index_.Save(truncated).ok());
  {
    std::ifstream in(truncated, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream(truncated, std::ios::binary) << bytes;
  }
  EXPECT_EQ(ResolutionIndex::Load(truncated).status().code(),
            util::StatusCode::kDataLoss);
  std::remove(truncated.c_str());
}

// Build is the validating factory for untrusted matches: it must refuse
// what Load refuses in an artifact, naming the row, rather than build an
// index that, for a self-pair, answers the same match twice.
TEST_F(ResolutionIndexTest, BuildRejectsWhatLoadRejects) {
  auto built = ResolutionIndex::Build(resolution_, kRecords);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->Checksum(), index_.Checksum());

  auto rejected = [](std::vector<RankedMatch> matches, size_t num_records) {
    auto result = ResolutionIndex::Build(RankedResolution(std::move(matches)),
                                         num_records);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
    return result.status().message();
  };
  RankedMatch good{RecordPair(0, 1), 0.9, 0.5};
  RankedMatch self{RecordPair(2, 2), 0.5, 0.5};
  RankedMatch nan{RecordPair(1, 3),
                  std::numeric_limits<double>::quiet_NaN(), 0.5};
  RankedMatch beyond{RecordPair(1, 4), 0.7, 0.5};
  EXPECT_NE(rejected({good, self}, 4).find("row 1 (2, 2)"), std::string::npos);
  EXPECT_NE(rejected({nan}, 4).find("row 0 (1, 3) has a NaN confidence"),
            std::string::npos);
  EXPECT_NE(rejected({good, beyond}, 4).find("row 1 (1, 4) references"),
            std::string::npos);

  // The same self-pair written into an artifact is refused by Load.
  std::string path = TempPath("self-pair.yvx");
  ASSERT_TRUE(
      ResolutionIndex(RankedResolution({good, self}), 4).Save(path).ok());
  EXPECT_EQ(ResolutionIndex::Load(path).status().code(),
            util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST_F(ResolutionIndexTest, ClustersMatchEntityClusters) {
  core::EntityClusters direct(resolution_, kRecords, 0.4);
  core::EntityClusters sliced = index_.ClustersAt(0.4);
  EXPECT_EQ(direct.clusters(), sliced.clusters());
}

// EntityOf walks one component; it must answer exactly what clustering the
// whole corpus answers, for every record and threshold. The dense fixture
// (degree ~6) has a giant component at low thresholds, past the walk's
// scan limit; the sparse one has only small entities. The thresholds hit
// quantized confidences exactly (the <= boundary), and include the
// infinities and a NaN.
TEST_F(ResolutionIndexTest, EntityOfEqualsClusterMembersAtEveryThreshold) {
  ResolutionIndex sparse(MakeRandomResolution(kRecords, kRecords / 2, 5),
                         kRecords);
  const double inf = std::numeric_limits<double>::infinity();
  for (const ResolutionIndex* index : {&index_, &sparse}) {
    for (double certainty : {-inf, -3.0, -0.2, 0.0, 0.5, 1.0, 1.9, 2.0, inf,
                             std::numeric_limits<double>::quiet_NaN()}) {
      core::EntityClusters clusters = index->ClustersAt(certainty);
      size_t largest = clusters.clusters().front().size();
      for (data::RecordIdx r = 0; r < kRecords; ++r) {
        ASSERT_EQ(index->EntityOf(r, certainty), clusters.Members(r))
            << "record " << r << " at certainty " << certainty
            << " (largest entity " << largest << ")";
      }
    }
  }
  EXPECT_GT(index_.ClustersAt(-3.0).clusters().front().size(), 32u);
}

// Crash-atomicity regression: Save writes through a temp file and renames,
// so a save that fails mid-write must leave a previously saved artifact
// untouched and loadable, and must not leave the temp file behind.
TEST_F(ResolutionIndexTest, FailedSaveLeavesOldArtifactIntact) {
  std::string path = TempPath("atomic-save.yvx");
  ASSERT_TRUE(index_.Save(path).ok());
  uint64_t old_checksum = index_.Checksum();

  // A different index targeting the same path.
  auto other_resolution = MakeRandomResolution(64, 128, /*seed=*/77);
  ResolutionIndex other(other_resolution, 64);
  ASSERT_NE(other.Checksum(), old_checksum);

  {
    util::FaultConfig config;
    config.seed = 17;
    config.io_error_probability = 1.0;
    config.max_injections = 1;
    util::FaultInjector::Global().Arm(config);
    auto failed = other.Save(path);
    util::FaultInjector::Global().Disarm();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), util::StatusCode::kUnavailable);
  }

  // The old artifact is still the one on disk, byte-for-byte loadable.
  auto loaded = ResolutionIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Checksum(), old_checksum);
  // No orphaned temp file next to the target.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ResolutionService

class ResolutionServiceTest : public testing::Test {
 protected:
  void SetUp() override {
    auto resolution = MakeRandomResolution(kRecords, kMatches, /*seed=*/23);
    index_ = std::make_shared<const ResolutionIndex>(resolution, kRecords);
  }

  static constexpr size_t kRecords = 500;
  static constexpr size_t kMatches = 1500;
  std::shared_ptr<const ResolutionIndex> index_;
};

TEST_F(ResolutionServiceTest, CertaintyEdgeCases) {
  ResolutionService service(index_);
  // certainty is a strict lower bound: at 0.0, confidence-0 matches drop.
  Query at_zero{3, 0.0, 0, Granularity::kMatches};
  auto r0 = service.QueryRecord(at_zero);
  ASSERT_TRUE(r0.ok());
  for (const auto& m : r0->matches) EXPECT_GT(m.confidence, 0.0);

  // At 1.0 nothing above the synthetic max of 2.0 except high scores; all
  // returned matches must be strictly greater.
  Query at_one{3, 1.0, 0, Granularity::kMatches};
  auto r1 = service.QueryRecord(at_one);
  ASSERT_TRUE(r1.ok());
  for (const auto& m : r1->matches) EXPECT_GT(m.confidence, 1.0);

  // Beyond the maximum confidence: empty, not an error.
  Query above_all{3, 1e9, 0, Granularity::kMatches};
  auto r2 = service.QueryRecord(above_all);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->matches.empty());

  // NaN certainty is rejected.
  Query nan_query{3, std::numeric_limits<double>::quiet_NaN(), 0,
                  Granularity::kMatches};
  auto rejected = service.QueryRecord(nan_query);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);

  // Out-of-corpus record is rejected.
  Query beyond{static_cast<data::RecordIdx>(kRecords), 0.0, 0,
               Granularity::kMatches};
  auto out_of_range = service.QueryRecord(beyond);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_EQ(service.metrics().errors, 2u);
}

TEST_F(ResolutionServiceTest, EntityGranularityMatchesClusters) {
  ResolutionService service(index_);
  core::EntityClusters clusters = index_->ClustersAt(0.3);
  for (data::RecordIdx r = 0; r < kRecords; r += 41) {
    Query query{r, 0.3, 0, Granularity::kEntity};
    auto result = service.QueryRecord(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->entity, clusters.Members(r));
    EXPECT_TRUE(result->matches.empty());
  }
  // k truncates entity members too.
  Query truncated{0, 0.3, 1, Granularity::kEntity};
  auto result = service.QueryRecord(truncated);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity.size(), 1u);
}

TEST_F(ResolutionServiceTest, BatchEqualsSingleUnderEightThreads) {
  // The acceptance-scale setup: a 5k-record synthetic corpus, >=10k
  // queries, answered by 8 concurrent workers vs the serial reference.
  constexpr size_t kCorpus = 5000;
  auto resolution = MakeRandomResolution(kCorpus, 15000, /*seed=*/31);
  auto index =
      std::make_shared<const ResolutionIndex>(resolution, kCorpus);
  ResolutionService service(index);

  util::Rng rng(99);
  std::vector<Query> queries;
  const double thresholds[] = {-1.0, 0.0, 0.3, 0.6, 1.0};
  for (size_t i = 0; i < 10000; ++i) {
    Query query;
    query.record = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(kCorpus) - 1));
    query.certainty = thresholds[rng.UniformInt(0, 4)];
    query.k = static_cast<size_t>(rng.UniformInt(0, 3));
    query.granularity =
        rng.Bernoulli(0.25) ? Granularity::kEntity : Granularity::kMatches;
    queries.push_back(query);
  }
  auto concurrent = QueryStrided(service, queries, /*threads=*/8);
  ASSERT_EQ(concurrent.size(), queries.size());

  // Reference: a fresh service answering serially, plus the linear-scan
  // semantics of RankedResolution::ForRecord.
  ResolutionService reference(index);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(concurrent[i].ok());
    auto single = reference.QueryRecord(queries[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(concurrent[i]->matches, single->matches);
    EXPECT_EQ(concurrent[i]->entity, single->entity);
    if (queries[i].granularity == Granularity::kMatches &&
        queries[i].k == 0) {
      EXPECT_EQ(concurrent[i]->matches,
                resolution.ForRecord(queries[i].record,
                                     queries[i].certainty));
      EXPECT_EQ(concurrent[i]->matches,
                LinearForRecord(index->matches(), queries[i].record,
                                queries[i].certainty));
    }
  }
}

TEST_F(ResolutionServiceTest, ConcurrentMixedTrafficIsRaceFree) {
  // Shared service hammered at once by overlapping single-query threads,
  // a strided multi-worker pass, and a metrics reader — the TSan preset
  // (cmake -DYVER_SANITIZE=thread) race-checks this.
  ResolutionService service(index_);

  std::vector<Query> workload;
  for (size_t i = 0; i < 512; ++i) {
    Query query;
    query.record = static_cast<data::RecordIdx>(i % kRecords);
    query.certainty = (i % 5) * 0.2;
    query.granularity =
        i % 3 == 0 ? Granularity::kEntity : Granularity::kMatches;
    workload.push_back(query);
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 4; ++t) {
    // Two threads on the even queries, two on the odd: twice the workload.
    threads.emplace_back([&service, &workload, t] {
      for (size_t i = t % 2; i < workload.size(); i += 2) {
        auto result = service.QueryRecord(workload[i]);
        ASSERT_TRUE(result.ok());
      }
    });
  }
  threads.emplace_back([&service, &workload] {
    for (const auto& r : QueryStrided(service, workload, /*threads=*/4)) {
      ASSERT_TRUE(r.ok());
    }
  });
  threads.emplace_back([&service, &done] {
    while (!done.load()) EXPECT_EQ(service.metrics().errors, 0u);
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  done.store(true);
  threads.back().join();
  auto metrics = service.metrics();
  EXPECT_EQ(metrics.queries, 3 * workload.size());
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_EQ(metrics.pinned_readers, 0u);
}

}  // namespace
}  // namespace yver::serve
