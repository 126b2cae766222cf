// Chaos harness for the failure model (DESIGN.md §11): with the
// deterministic fault injector armed at every registered point, thousands
// of concurrent queries and repeated artifact/CSV loads must each resolve
// to OK or a typed util::Status — never a crash, CHECK-failure, or
// deadlock — and a fault-free replay of the same workload must reproduce
// the fault-free baseline byte-for-byte (faults may change statuses and
// latency, never computed data).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/ranked_resolution.h"
#include "core/resolution_io.h"
#include "data/csv_io.h"
#include "serve/index_manager.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "support/strided_queries.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"

namespace yver {
namespace {

using util::Deadline;
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

/// The typed codes a faulted query is allowed to resolve to. Anything
/// else — in particular kInternal — means a failure leaked through a path
/// that should have classified it.
bool IsAllowedFaultOutcome(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable:      // injected I/O error
    case StatusCode::kDataLoss:         // injected short read
    case StatusCode::kDeadlineExceeded: // budget expired (injected latency)
      return true;
    default:
      return false;
  }
}

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
    m.confidence = rng.UniformInt(-2, 20) / 10.0;
    m.block_score = rng.UniformDouble();
    matches.push_back(m);
  }
  return core::RankedResolution(std::move(matches));
}

bool SameResult(const serve::QueryResult& a, const serve::QueryResult& b) {
  if (a.matches.size() != b.matches.size()) return false;
  for (size_t i = 0; i < a.matches.size(); ++i) {
    if (!(a.matches[i].pair == b.matches[i].pair) ||
        a.matches[i].confidence != b.matches[i].confidence ||
        a.matches[i].block_score != b.matches[i].block_score) {
      return false;
    }
  }
  return a.entity == b.entity;
}

class ChaosTest : public testing::Test {
 protected:
  static constexpr size_t kNumRecords = 256;
  static constexpr size_t kNumMatches = 1024;
  static constexpr size_t kQueriesPerRun = 4096;

  void SetUp() override {
    index_ = std::make_shared<const serve::ResolutionIndex>(
        MakeResolution(kNumRecords, kNumMatches, /*seed=*/21), kNumRecords);
    workload_ = MakeWorkload(/*with_deadlines=*/false);
    // Fault-free baseline, computed serially before anything is armed.
    serve::ResolutionService service(index_);
    for (const auto& query : workload_) {
      auto result = service.QueryRecord(query);
      ASSERT_TRUE(result.ok());
      baseline_.push_back(*result);
    }
  }

  std::vector<serve::Query> MakeWorkload(bool with_deadlines) const {
    util::Rng rng(4242);
    std::vector<serve::Query> workload;
    workload.reserve(kQueriesPerRun);
    for (size_t i = 0; i < kQueriesPerRun; ++i) {
      serve::Query query;
      query.record = static_cast<data::RecordIdx>(
          rng.UniformInt(0, kNumRecords - 1));
      query.certainty = rng.UniformInt(-1, 15) / 10.0;
      query.k = static_cast<size_t>(rng.UniformInt(0, 4));
      query.granularity = rng.UniformInt(0, 3) == 0
                              ? serve::Granularity::kEntity
                              : serve::Granularity::kMatches;
      // Always draw, so both workload variants see the same rng stream and
      // queries[i] is the same semantic query with or without deadlines.
      bool expired_budget = rng.UniformInt(0, 15) == 0;
      if (with_deadlines && expired_budget) {
        // A sprinkle of already-expired budgets keeps the deadline path
        // concurrent with the fault paths.
        query.deadline = Deadline::ExpiredNow();
      }
      workload.push_back(query);
    }
    return workload;
  }

  std::shared_ptr<const serve::ResolutionIndex> index_;
  std::vector<serve::Query> workload_;
  std::vector<serve::QueryResult> baseline_;
};

// The acceptance scenario: >= 10k queries across a {1, 2, 8}-thread
// matrix with every fault kind armed. Every answer is OK-and-correct or
// a typed allowed status; the run never crashes or deadlocks.
TEST_F(ChaosTest, ConcurrentQueriesUnderFaultsAreOkOrTyped) {
  FaultConfig config;
  config.seed = 1337;
  config.io_error_probability = 0.02;
  config.latency_probability = 0.02;
  config.short_read_probability = 0.02;
  config.latency_micros = 50;
  ScopedFaultInjection arm(config);

  std::vector<serve::Query> faulted_workload =
      MakeWorkload(/*with_deadlines=*/true);
  size_t total_queries = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    serve::ResolutionService service(index_);
    auto results = serve::QueryStrided(service, faulted_workload, threads);
    ASSERT_EQ(results.size(), faulted_workload.size());
    total_queries += results.size();
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        // A fault may delay or deny an answer, never corrupt one: every
        // OK answer must match the fault-free baseline.
        EXPECT_TRUE(SameResult(*results[i], baseline_[i]))
            << "query " << i << " answered differently under faults";
      } else {
        EXPECT_TRUE(IsAllowedFaultOutcome(results[i].status().code()))
            << "query " << i << " leaked untyped failure: "
            << results[i].status().ToString();
      }
    }
    auto metrics = service.metrics();
    EXPECT_EQ(metrics.queries, faulted_workload.size());
  }
  EXPECT_GE(total_queries, 10000u);
  EXPECT_GT(FaultInjector::Global().injections(), 0u)
      << "the chaos run must actually fire faults";
  // The serving point was exercised.
  EXPECT_GT(FaultInjector::Global().hits(FaultPoint::kServiceCompute), 0u);
}

// Same workload, faults disarmed, across thread counts: byte-identical to
// the serial fault-free baseline (the determinism contract survives the
// chaos machinery being compiled in).
TEST_F(ChaosTest, FaultFreeReplayIsByteIdentical) {
  ASSERT_FALSE(FaultInjector::Global().armed());
  for (size_t threads : {1u, 2u, 8u}) {
    serve::ResolutionService service(index_);
    auto results = serve::QueryStrided(service, workload_, threads);
    ASSERT_EQ(results.size(), baseline_.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      EXPECT_TRUE(SameResult(*results[i], baseline_[i]))
          << "replay diverged at query " << i << " with " << threads
          << " thread(s)";
    }
  }
}

// The ingest-side points: repeated loads of a real artifact and real CSVs
// with faults armed either produce the exact fault-free object or a typed
// status, and every registered point fires at least once overall.
TEST_F(ChaosTest, IngestPathsUnderFaultsAreOkOrTyped) {
  std::string index_path = testing::TempDir() + "/chaos.yvx";
  ASSERT_TRUE(index_->Save(index_path).ok());
  uint64_t checksum = index_->Checksum();

  data::Dataset dataset;
  for (uint64_t i = 1; i <= 32; ++i) {
    data::Record r;
    r.book_id = i;
    r.source_id = static_cast<uint32_t>(i % 5);
    r.Add(data::AttributeId::kFirstName, "Name" + std::to_string(i));
    dataset.Add(std::move(r));
  }
  std::string dataset_path = testing::TempDir() + "/chaos_dataset.csv";
  ASSERT_TRUE(data::SaveDatasetCsv(dataset, dataset_path));
  core::RankedResolution small = MakeResolution(32, 64, /*seed=*/5);
  std::string matches_path = testing::TempDir() + "/chaos_matches.csv";
  ASSERT_TRUE(core::SaveMatchesCsv(dataset, small, matches_path).ok());

  FaultConfig config;
  config.seed = 77;
  config.io_error_probability = 0.15;
  config.latency_probability = 0.05;
  config.short_read_probability = 0.15;
  config.latency_micros = 20;
  ScopedFaultInjection arm(config);

  util::RetryPolicy no_retry;  // surface raw faults: retries would hide them
  no_retry.max_attempts = 1;
  no_retry.sleep_fn = [](double) {};
  for (int round = 0; round < 64; ++round) {
    auto loaded = serve::ResolutionIndex::Load(index_path);
    if (loaded.ok()) {
      EXPECT_EQ(loaded->Checksum(), checksum);
    } else {
      EXPECT_TRUE(IsAllowedFaultOutcome(loaded.status().code()))
          << loaded.status().ToString();
    }
    auto csv = core::LoadMatchesCsvWithRetry(dataset, matches_path, no_retry);
    if (csv.ok()) {
      EXPECT_EQ(csv->size(), small.size());
    } else {
      EXPECT_TRUE(IsAllowedFaultOutcome(csv.status().code()))
          << csv.status().ToString();
    }
    auto ds = data::LoadDatasetCsvLenient(dataset_path);
    if (ds.ok()) {
      EXPECT_EQ(ds->size(), dataset.size());
    } else {
      EXPECT_TRUE(IsAllowedFaultOutcome(ds.status().code()))
          << ds.status().ToString();
    }
    auto save = core::SaveMatchesCsvWithRetry(
        dataset, small, testing::TempDir() + "/chaos_matches_out.csv",
        no_retry);
    if (!save.ok()) {
      EXPECT_TRUE(IsAllowedFaultOutcome(save.code())) << save.ToString();
    }
  }
  auto& injector = FaultInjector::Global();
  EXPECT_GT(injector.hits(FaultPoint::kIndexLoadOpen), 0u);
  EXPECT_GT(injector.hits(FaultPoint::kIndexLoadRead), 0u);
  EXPECT_GT(injector.hits(FaultPoint::kMatchesCsvLoad), 0u);
  EXPECT_GT(injector.hits(FaultPoint::kMatchesCsvSave), 0u);
  EXPECT_GT(injector.hits(FaultPoint::kDatasetCsvLoad), 0u);
  EXPECT_GT(injector.injections(), 0u);
}

// With retries layered on top, a bounded fault burst is fully absorbed:
// max_injections=3 at certainty-1 probability fails exactly the first
// three opens, and the fourth attempt reads the artifact clean and exact.
TEST_F(ChaosTest, RetriesRecoverFaultedLoads) {
  std::string index_path = testing::TempDir() + "/chaos_retry.yvx";
  ASSERT_TRUE(index_->Save(index_path).ok());
  uint64_t checksum = index_->Checksum();

  FaultConfig config;
  config.seed = 3;
  config.io_error_probability = 1.0;
  config.max_injections = 3;
  ScopedFaultInjection arm(config);

  util::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.sleep_fn = [](double) {};
  util::RetryStats stats;
  auto loaded =
      serve::ResolutionIndex::LoadWithRetry(index_path, policy, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(stats.attempts, 4) << "three injected failures, then success";
  EXPECT_EQ(loaded->Checksum(), checksum);

  // A burst longer than the budget is a typed error, not an abort.
  FaultInjector::Global().Arm([] {
    FaultConfig exhausting;
    exhausting.seed = 3;
    exhausting.io_error_probability = 1.0;
    exhausting.max_injections = 100;
    return exhausting;
  }());
  auto failed =
      serve::ResolutionIndex::LoadWithRetry(index_path, policy, &stats);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(stats.attempts, 6) << "the whole budget was spent retrying";
}

// ---------------------------------------------------------------------------
// Swap-under-load (DESIGN.md §13): queries race live index publishes.

// The acceptance scenario of the live-update layer: across a {1, 2, 8}
// reader-thread matrix (12K queries total), a writer keeps publishing new
// index generations — with faults armed, including the serve.index.publish
// point, so some installs fail and are retried — while every reader
// hammers QueryRecord. Correctness bar: every OK answer byte-equals the
// serial fault-free baseline of the exact generation it reports, each
// reader observes a non-decreasing generation sequence, and once the run
// drains, every retired generation has been freed.
TEST_F(ChaosTest, SwapUnderLoadServesSomeConsistentGeneration) {
  constexpr uint64_t kGenerations = 6;  // 1 initial + 5 published
  constexpr size_t kTotalQueries = 12000;

  // Generation g serves its own resolution; pre-compute each
  // generation's serial fault-free baseline over the shared workload.
  std::vector<core::RankedResolution> resolutions;
  resolutions.push_back(  // generation 1: SetUp's index
      MakeResolution(kNumRecords, kNumMatches, /*seed=*/21));
  for (uint64_t g = 2; g <= kGenerations; ++g) {
    resolutions.push_back(
        MakeResolution(kNumRecords, kNumMatches, /*seed=*/100 + g));
  }
  std::vector<std::vector<serve::QueryResult>> baselines;
  for (const auto& resolution : resolutions) {
    serve::ResolutionService service(
        std::make_shared<const serve::ResolutionIndex>(resolution,
                                                       kNumRecords));
    std::vector<serve::QueryResult> baseline;
    baseline.reserve(workload_.size());
    for (const auto& query : workload_) {
      auto result = service.QueryRecord(query);
      ASSERT_TRUE(result.ok());
      baseline.push_back(*result);
    }
    baselines.push_back(std::move(baseline));
  }

  FaultConfig config;
  config.seed = 97;
  config.io_error_probability = 0.02;
  config.latency_probability = 0.01;
  config.short_read_probability = 0.01;
  config.latency_micros = 20;
  ScopedFaultInjection arm(config);

  size_t ok_answers = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    // Fresh snapshots that only the service and the writer hold, so each
    // generation's lifetime is observable through `watch`.
    std::vector<std::shared_ptr<const serve::ResolutionIndex>> indexes;
    std::vector<std::weak_ptr<const serve::ResolutionIndex>> watch;
    for (const auto& resolution : resolutions) {
      indexes.push_back(std::make_shared<const serve::ResolutionIndex>(
          resolution, kNumRecords));
      watch.push_back(indexes.back());
    }
    auto service =
        std::make_shared<serve::ResolutionService>(std::move(indexes[0]));

    // Writer: install generations 2..kGenerations in order, retrying
    // through injected serve.index.publish failures — a failed install
    // must be invisible to readers.
    std::thread writer([&] {
      for (uint64_t g = 2; g <= kGenerations; ++g) {
        for (;;) {
          auto published = service->PublishIndex(indexes[g - 1]);
          if (published.ok()) {
            EXPECT_EQ(*published, g);
            indexes[g - 1].reset();
            break;
          }
          EXPECT_EQ(published.status().code(), StatusCode::kUnavailable);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });

    const size_t per_thread = kTotalQueries / 3 / threads;
    std::atomic<size_t> ok_count{0};
    std::vector<std::thread> readers;
    for (size_t t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        util::Rng rng(900 + t);
        uint64_t last_generation = 0;  // per-reader monotonicity
        for (size_t i = 0; i < per_thread; ++i) {
          const serve::Query& query =
              workload_[static_cast<size_t>(rng.Next()) % workload_.size()];
          auto result = service->QueryRecord(query);
          if (!result.ok()) {
            EXPECT_TRUE(IsAllowedFaultOutcome(result.status().code()))
                << result.status().ToString();
            continue;
          }
          ASSERT_GE(result->generation, 1u);
          ASSERT_LE(result->generation, kGenerations);
          // Generations are swapped in ascending order, so within one
          // reader the served generation never goes backwards.
          EXPECT_GE(result->generation, last_generation)
              << "reader " << t << " saw the generation move backwards";
          last_generation = result->generation;
          // The answer must be internally consistent with exactly the
          // generation it claims — byte-equal to that generation's serial
          // fault-free baseline.
          size_t w = (&query - workload_.data());
          EXPECT_TRUE(
              SameResult(*result, baselines[result->generation - 1][w]))
              << "answer inconsistent with generation "
              << result->generation;
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : readers) t.join();
    writer.join();
    ok_answers += ok_count.load();

    // Drained: nothing pinned, every retired snapshot freed.
    const serve::IndexManager& manager = service->index_manager();
    EXPECT_EQ(manager.generation(), kGenerations);
    EXPECT_EQ(manager.pinned_readers(), 0u);
    for (uint64_t g = 1; g < kGenerations; ++g) {
      EXPECT_TRUE(watch[g - 1].expired())
          << "retired generation " << g << " leaked past its last release";
    }
    EXPECT_FALSE(watch[kGenerations - 1].expired());
  }
  EXPECT_GT(ok_answers, 0u);
  EXPECT_GT(FaultInjector::Global().hits(FaultPoint::kIndexPublish), 0u)
      << "the publish fault point was never exercised";
}

}  // namespace
}  // namespace yver
