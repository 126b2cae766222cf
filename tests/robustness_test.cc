// Tests of the failure model (DESIGN.md §11): deadlines, retry/backoff,
// the deterministic fault injector, the service's deadline checks, and
// the skip-and-quarantine CSV loader.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/ranked_resolution.h"
#include "core/resolution_io.h"
#include "data/csv_io.h"
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
using util::FaultKind;
using util::FaultPoint;
using util::RetryPolicy;
using util::RetryStats;
using util::Status;
using util::StatusCode;

/// RAII arm/disarm around a test body: the injector is process-global, so
/// leaking an armed state would contaminate every later test.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultConfig& config) {
    FaultInjector::Global().Arm(config);
  }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }
};

// ---------------------------------------------------------------------------
// util::Deadline

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.HasExpired());
  EXPECT_EQ(d.RemainingMillis(),
            std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, ZeroBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).HasExpired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).HasExpired());
  EXPECT_TRUE(Deadline::ExpiredNow().HasExpired());
}

TEST(DeadlineTest, FutureDeadlineIsNotExpired) {
  Deadline d = Deadline::AfterMillis(60000);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.HasExpired());
  EXPECT_GT(d.RemainingMillis(), 0.0);
  EXPECT_LE(d.RemainingMillis(), 60000.0);
}

TEST(DeadlineTest, ExceededProducesTypedStatusWithLocation) {
  Status s = Deadline::ExpiredNow().Exceeded("unit test");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.ToString().find("unit test"), std::string::npos);
}

// ---------------------------------------------------------------------------
// util::RetryPolicy

TEST(RetryTest, DefaultRetryableCodes) {
  EXPECT_TRUE(util::DefaultRetryable(Status::Unavailable("x")));
  EXPECT_TRUE(util::DefaultRetryable(Status::DataLoss("x")));
  EXPECT_FALSE(util::DefaultRetryable(Status::NotFound("x")));
  EXPECT_FALSE(util::DefaultRetryable(Status::InvalidArgument("x")));
}

TEST(RetryTest, BackoffIsJitteredBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10.0;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 25.0;
  util::Rng rng_a(7), rng_b(7);
  for (int attempt = 2; attempt <= 6; ++attempt) {
    double cap = std::min(policy.max_backoff_ms,
                          policy.initial_backoff_ms *
                              std::pow(policy.multiplier, attempt - 2));
    double a = util::NextBackoffMillis(policy, attempt, rng_a);
    double b = util::NextBackoffMillis(policy, attempt, rng_b);
    EXPECT_EQ(a, b) << "same seed must give the same schedule";
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, cap);
  }
}

TEST(RetryTest, SucceedsAfterTransientFailures) {
  int calls = 0;
  std::vector<double> slept;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleep_fn = [&slept](double ms) { slept.push_back(ms); };
  RetryStats stats;
  Status result = util::RetryWithPolicy(
      policy,
      [&calls] {
        return ++calls < 3 ? Status::Unavailable("transient")
                           : Status::Ok();
      },
      &stats);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(slept.size(), 2u);
}

TEST(RetryTest, ExhaustionReturnsLastUnderlyingError) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.sleep_fn = [](double) {};
  RetryStats stats;
  Status result = util::RetryWithPolicy(
      policy, [] { return Status::Unavailable("still down"); }, &stats);
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_EQ(stats.attempts, 4);
  EXPECT_EQ(stats.last_error.code(), StatusCode::kUnavailable);
}

TEST(RetryTest, NonRetryableFailsFast) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleep_fn = [](double) {};
  RetryStats stats;
  Status result = util::RetryWithPolicy(
      policy, [] { return Status::NotFound("gone"); }, &stats);
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.attempts, 1);
}

TEST(RetryTest, ExpiredDeadlineWinsBeforeFirstAttempt) {
  RetryPolicy policy;
  policy.sleep_fn = [](double) {};
  RetryStats stats;
  Status result = util::RetryWithPolicy(
      policy, [] { return Status::Ok(); }, &stats, Deadline::ExpiredNow());
  EXPECT_EQ(result.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.attempts, 0);
}

TEST(RetryTest, BackoffLongerThanDeadlineBecomesDeadlineExceeded) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 1e6;  // any jitter draw dwarfs the budget
  policy.max_backoff_ms = 1e6;
  policy.retryable = [](const Status&) { return true; };
  policy.sleep_fn = [](double) { FAIL() << "must not sleep past deadline"; };
  RetryStats stats;
  Status result = util::RetryWithPolicy(
      policy, [] { return Status::Unavailable("down"); }, &stats,
      Deadline::AfterMillis(50));
  EXPECT_EQ(result.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.last_error.code(), StatusCode::kDeadlineExceeded);
}

TEST(RetryTest, WorksWithStatusOrReturningCallables) {
  int calls = 0;
  RetryPolicy policy;
  policy.sleep_fn = [](double) {};
  util::StatusOr<int> result = util::RetryWithPolicy(
      policy, [&calls]() -> util::StatusOr<int> {
        if (++calls < 2) return Status::DataLoss("torn read");
        return 42;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------------------
// util::FaultInjector

TEST(FaultInjectorTest, DisarmedIsANoOp) {
  auto& injector = FaultInjector::Global();
  ASSERT_FALSE(injector.armed());
  EXPECT_EQ(injector.Evaluate(FaultPoint::kIndexLoadOpen), FaultKind::kNone);
  EXPECT_TRUE(injector.InjectIo(FaultPoint::kMatchesCsvLoad).ok());
}

TEST(FaultInjectorTest, EveryPointHasAStableName) {
  for (size_t p = 0; p < util::kNumFaultPoints; ++p) {
    const char* name = util::FaultPointName(static_cast<FaultPoint>(p));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

TEST(FaultInjectorTest, SameSeedReplaysTheSameFaultSequence) {
  FaultConfig config;
  config.seed = 99;
  config.io_error_probability = 0.3;
  config.short_read_probability = 0.3;
  std::vector<FaultKind> first, second;
  {
    ScopedFaultInjection arm(config);
    for (int i = 0; i < 64; ++i) {
      first.push_back(
          FaultInjector::Global().Evaluate(FaultPoint::kIndexLoadRead));
    }
  }
  {
    ScopedFaultInjection arm(config);
    for (int i = 0; i < 64; ++i) {
      second.push_back(
          FaultInjector::Global().Evaluate(FaultPoint::kIndexLoadRead));
    }
  }
  EXPECT_EQ(first, second);
}

TEST(FaultInjectorTest, CertainIoErrorBecomesUnavailable) {
  FaultConfig config;
  config.io_error_probability = 1.0;
  ScopedFaultInjection arm(config);
  Status s = FaultInjector::Global().InjectIo(FaultPoint::kIndexLoadOpen);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.ToString().find("serve.index_load.open"), std::string::npos);
}

TEST(FaultInjectorTest, CertainShortReadBecomesDataLoss) {
  FaultConfig config;
  config.short_read_probability = 1.0;
  ScopedFaultInjection arm(config);
  Status s = FaultInjector::Global().InjectIo(FaultPoint::kMatchesCsvLoad);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(FaultInjectorTest, MaxInjectionsBoundsTotalFires) {
  FaultConfig config;
  config.io_error_probability = 1.0;
  config.max_injections = 3;
  ScopedFaultInjection arm(config);
  auto& injector = FaultInjector::Global();
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    fired +=
        injector.Evaluate(FaultPoint::kServiceCompute) != FaultKind::kNone;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.injections(), 3u);
  EXPECT_EQ(injector.injections(FaultPoint::kServiceCompute), 3u);
  EXPECT_EQ(injector.hits(FaultPoint::kServiceCompute), 10u);
}

TEST(FaultInjectorTest, FaultedIndexLoadIsRecoveredByRetry) {
  // Build and save a small artifact, then load it while the open path
  // fails once deterministically: the retry layer must absorb the fault.
  core::RankedMatch m;
  m.pair = data::RecordPair(0, 1);
  m.confidence = 0.9;
  m.block_score = 1.0;
  serve::ResolutionIndex index(
      core::RankedResolution(std::vector<core::RankedMatch>{m}), 2);
  std::string path = testing::TempDir() + "/faulted.yvx";
  ASSERT_TRUE(index.Save(path).ok());

  FaultConfig config;
  config.io_error_probability = 1.0;
  config.max_injections = 1;  // first open fails, the re-read succeeds
  ScopedFaultInjection arm(config);
  RetryPolicy policy;
  policy.sleep_fn = [](double) {};
  RetryStats stats;
  auto loaded = serve::ResolutionIndex::LoadWithRetry(path, policy, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_EQ(loaded->Checksum(), index.Checksum());
}

// ---------------------------------------------------------------------------
// data::DatasetFromCsvLenient — skip-and-quarantine ingest

constexpr char kGoodHeader[] =
    "book_id,source_id,source_kind,entity_id,family_id,values\n";

TEST(CsvLenientTest, QuarantinesBadRowsWithinBudget) {
  std::string text = std::string(kGoodHeader) +
                     "1,10,POT,5,7,FN_Guido;LN_Foa\n"
                     "oops,10,POT,5,7,FN_Bad\n"        // bad book_id
                     "2,11,LIST,6,8,FN_Rosa;G_F\n";
  data::CsvLoadOptions options;
  options.max_row_errors = 1;
  data::CsvLoadReport report;
  auto dataset = data::DatasetFromCsvLenient(text, options, &report);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->size(), 2u);
  EXPECT_EQ(report.rows_loaded, 2u);
  ASSERT_EQ(report.row_errors.size(), 1u);
  EXPECT_EQ(report.row_errors[0].row, 3u);     // 1-based, header is row 1
  EXPECT_EQ(report.row_errors[0].column, 1u);  // book_id field
  EXPECT_NE(report.row_errors[0].message.find("book_id"), std::string::npos);
}

TEST(CsvLenientTest, ExceedingTheBudgetIsDataLoss) {
  std::string text = std::string(kGoodHeader) +
                     "1,10,POT,5,7,FN_Guido\n"
                     "oops,10,POT,5,7,FN_Bad\n"
                     "2,11,LIST,bad,8,FN_Rosa\n";
  data::CsvLoadOptions options;
  options.max_row_errors = 1;  // two bad rows: one over budget
  auto dataset = data::DatasetFromCsvLenient(text, options);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(dataset.status().ToString().find("budget"), std::string::npos);
}

TEST(CsvLenientTest, BudgetExactlyCoveringErrorsSucceeds) {
  std::string text = std::string(kGoodHeader) +
                     "oops,10,POT,5,7,FN_Bad\n"
                     "2,11,LIST,bad,8,FN_Rosa\n"
                     "3,12,POT,9,9,FN_Ugo\n";
  data::CsvLoadOptions options;
  options.max_row_errors = 2;
  data::CsvLoadReport report;
  auto dataset = data::DatasetFromCsvLenient(text, options, &report);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->size(), 1u);
  EXPECT_EQ(report.row_errors.size(), 2u);
}

TEST(CsvLenientTest, ZeroBudgetReproducesStrictBehaviour) {
  std::string bad = std::string(kGoodHeader) + "oops,10,POT,5,7,FN_Bad\n";
  auto lenient = data::DatasetFromCsvLenient(bad);
  EXPECT_EQ(lenient.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(data::DatasetFromCsv(bad).has_value());

  std::string good = std::string(kGoodHeader) + "1,10,POT,5,7,FN_Guido\n";
  auto strict = data::DatasetFromCsv(good);
  ASSERT_TRUE(strict.has_value());
  EXPECT_EQ(strict->size(), 1u);
}

TEST(CsvLenientTest, BadHeaderHasNoBudget) {
  data::CsvLoadOptions options;
  options.max_row_errors = 1000;
  auto dataset = data::DatasetFromCsvLenient("not,a,dataset\n", options);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvLenientTest, ValueColumnDiagnosticsPointAtColumnSix) {
  std::string text = std::string(kGoodHeader) +
                     "1,10,POT,5,7,XX_NoSuchAttribute\n";
  data::CsvLoadOptions options;
  options.max_row_errors = 1;
  data::CsvLoadReport report;
  auto dataset = data::DatasetFromCsvLenient(text, options, &report);
  ASSERT_TRUE(dataset.ok());
  ASSERT_EQ(report.row_errors.size(), 1u);
  EXPECT_EQ(report.row_errors[0].column, 6u);
}

// ---------------------------------------------------------------------------
// core::LoadMatchesCsv corruption handling

TEST(MatchesCsvTest, NanConfidenceIsDataLossNotData) {
  data::Dataset dataset;
  for (uint64_t i = 1; i <= 2; ++i) {
    data::Record r;
    r.book_id = i;
    dataset.Add(std::move(r));
  }
  std::string path = testing::TempDir() + "/nan_matches.csv";
  {
    std::ofstream f(path, std::ios::binary);
    f << "book_id_a,book_id_b,confidence,block_score\n"
      << "1,2,nan,0.5\n";
  }
  auto loaded = core::LoadMatchesCsv(dataset, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().ToString().find("NaN"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ResolutionService deadline behaviour

class ServiceRobustnessTest : public testing::Test {
 protected:
  static core::RankedResolution MakeResolution(size_t num_records) {
    util::Rng rng(11);
    std::vector<core::RankedMatch> matches;
    for (data::RecordIdx a = 0; a + 1 < num_records; ++a) {
      core::RankedMatch m;
      m.pair = data::RecordPair(a, a + 1);
      m.confidence = 0.5 + 0.4 * rng.UniformDouble();
      m.block_score = rng.UniformDouble();
      matches.push_back(m);
    }
    return core::RankedResolution(std::move(matches));
  }

  std::shared_ptr<const serve::ResolutionIndex> MakeIndex(
      size_t num_records = 64) {
    return std::make_shared<const serve::ResolutionIndex>(
        MakeResolution(num_records), num_records);
  }

  static serve::Query MakeQuery(data::RecordIdx record) {
    serve::Query query;
    query.record = record;
    query.certainty = 0.0;
    return query;
  }
};

TEST_F(ServiceRobustnessTest, ExpiredDeadlineIsTypedAndCounted) {
  serve::ResolutionService service(MakeIndex());
  serve::Query query = MakeQuery(3);
  query.deadline = Deadline::ExpiredNow();
  auto result = service.QueryRecord(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  query.deadline = Deadline::AfterMillis(0);  // zero budget, same outcome
  result = service.QueryRecord(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  auto metrics = service.metrics();
  EXPECT_EQ(metrics.deadline_exceeded, 2u);
  EXPECT_EQ(metrics.errors, 2u);
  EXPECT_EQ(metrics.shed, 0u);
}

TEST_F(ServiceRobustnessTest, InfiniteAndGenerousDeadlinesAnswerNormally) {
  serve::ResolutionService service(MakeIndex());
  serve::Query query = MakeQuery(3);
  ASSERT_TRUE(service.QueryRecord(query).ok());
  query.deadline = Deadline::AfterMillis(60000);
  ASSERT_TRUE(service.QueryRecord(query).ok());
  auto metrics = service.metrics();
  EXPECT_EQ(metrics.deadline_exceeded, 0u);
  EXPECT_EQ(metrics.errors, 0u);
}

TEST_F(ServiceRobustnessTest, ExpiredDeadlinesInsideBatchAreTyped) {
  serve::ResolutionService service(MakeIndex());
  std::vector<serve::Query> batch;
  for (data::RecordIdx r = 0; r < 16; ++r) {
    serve::Query query = MakeQuery(r);
    if (r % 2 == 0) query.deadline = Deadline::ExpiredNow();
    batch.push_back(query);
  }
  // Four concurrent workers, so each one meets expired and live budgets.
  auto results = serve::QueryStrided(service, batch, /*threads=*/4);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_FALSE(results[i].ok());
      EXPECT_EQ(results[i].status().code(), StatusCode::kDeadlineExceeded);
    } else {
      EXPECT_TRUE(results[i].ok());
    }
  }
  EXPECT_EQ(service.metrics().deadline_exceeded, 8u);
}

TEST_F(ServiceRobustnessTest, QueryEqualityIgnoresDeadline) {
  serve::Query a = MakeQuery(4);
  serve::Query b = MakeQuery(4);
  b.deadline = Deadline::AfterMillis(5);
  EXPECT_EQ(a, b) << "deadline is delivery metadata, not query identity";
}

TEST_F(ServiceRobustnessTest, MetricsExposeLatencyPercentiles) {
  serve::ResolutionService service(MakeIndex());
  for (data::RecordIdx r = 0; r < 32; ++r) {
    ASSERT_TRUE(service.QueryRecord(MakeQuery(r)).ok());
  }
  auto metrics = service.metrics();
  ASSERT_EQ(metrics.latency_histogram_ns.size(),
            serve::kServiceLatencyBuckets);
  uint64_t total = 0;
  for (uint64_t c : metrics.latency_histogram_ns) total += c;
  EXPECT_EQ(total, 32u);
  double p50 = metrics.LatencyPercentileMs(0.50);
  double p99 = metrics.LatencyPercentileMs(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
}

TEST_F(ServiceRobustnessTest, ResetMetricsClearsFailureCounters) {
  serve::ResolutionService service(MakeIndex());
  serve::Query query = MakeQuery(1);
  query.deadline = Deadline::ExpiredNow();
  ASSERT_FALSE(service.QueryRecord(query).ok());
  service.ResetMetrics();
  auto metrics = service.metrics();
  EXPECT_EQ(metrics.queries, 0u);
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_EQ(metrics.deadline_exceeded, 0u);
  double total = 0;
  for (uint64_t c : metrics.latency_histogram_ns) total += c;
  EXPECT_EQ(total, 0);
}

}  // namespace
}  // namespace yver
