#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace yver::util {
namespace {

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardLowIndices) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.Zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(RngTest, PickWeightedRespectsZeroWeight) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.PickWeighted(weights), 1u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------------------------
// String utilities

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("123-ABC"), "123-abc");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\nabc\r "), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, SplitEmptyString) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ";"), "a;b;c");
  EXPECT_EQ(Join({}, ";"), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("kaminski", "ski"));
  EXPECT_FALSE(EndsWith("ski", "kaminski"));
}

// ---------------------------------------------------------------------------
// CSV

TEST(CsvTest, SimpleRoundTrip) {
  std::vector<std::string> row = {"a", "b", "c"};
  auto parsed = ParseCsv(FormatCsvRow(row) + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], row);
}

TEST(CsvTest, QuotedFieldWithCommaAndQuote) {
  std::vector<std::string> row = {"a,b", "say \"hi\"", ""};
  auto parsed = ParseCsv(FormatCsvRow(row) + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], row);
}

TEST(CsvTest, EmbeddedNewline) {
  std::vector<std::string> row = {"line1\nline2", "x"};
  auto parsed = ParseCsv(FormatCsvRow(row) + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], row);
}

TEST(CsvTest, CrLfHandling) {
  auto parsed = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0][1], "b");
  EXPECT_EQ(parsed[1][0], "c");
}

TEST(CsvTest, LastLineWithoutNewline) {
  auto parsed = ParseCsv("a,b\nc,d");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1][1], "d");
}

TEST(CsvTest, EmptyInput) { EXPECT_TRUE(ParseCsv("").empty()); }

TEST(CsvTest, BareCrIsFieldDataNotTerminator) {
  // Regression: a bare \r mid-field in unquoted data used to be swallowed
  // ("a\rb" parsed as "ab"). Only CRLF terminates a record.
  auto parsed = ParseCsv("a\rb,c\n");
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].size(), 2u);
  EXPECT_EQ(parsed[0][0], "a\rb");
  EXPECT_EQ(parsed[0][1], "c");
}

TEST(CsvTest, BareCrAtEndOfInputPreserved) {
  auto parsed = ParseCsv("a,b\r");
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].size(), 2u);
  EXPECT_EQ(parsed[0][1], "b\r");
}

TEST(CsvTest, CrLfInsideQuotedFieldPreserved) {
  std::vector<std::string> row = {"a\r\nb", "c\rd"};
  auto parsed = ParseCsv(FormatCsvRow(row) + "\r\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], row);
}

// Property: any field content pushed through FormatCsvRow then
// ParseCsvRecord must come back unchanged, including CR, LF, quote, and
// comma characters in every position.
TEST(CsvTest, FormatParseRoundTripIsIdentityOnRandomRows) {
  const char alphabet[] = {'a', 'b', ',', '"', '\r', '\n', ' ', 'z'};
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> row(
        1 + static_cast<size_t>(rng.UniformInt(0, 4)));
    for (auto& field : row) {
      size_t len = static_cast<size_t>(rng.UniformInt(0, 8));
      for (size_t i = 0; i < len; ++i) {
        field.push_back(alphabet[rng.UniformInt(0, 7)]);
      }
    }
    std::string data = FormatCsvRow(row) + "\n";
    size_t pos = 0;
    auto parsed = ParseCsvRecord(data, &pos);
    ASSERT_TRUE(parsed.has_value()) << "trial " << trial;
    EXPECT_EQ(*parsed, row) << "trial " << trial << " data: " << data;
    EXPECT_EQ(pos, data.size()) << "trial " << trial;
  }
}

// Multi-row round trip through the full-document parser, with fields that
// embed record terminators.
TEST(CsvTest, MultiRowRoundTripWithEmbeddedTerminators) {
  std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma"},
      {"with\rcr", "with\r\ncrlf", "with\"quote"},
      {"", "trailing\n"},
  };
  std::string data;
  for (const auto& row : rows) data += FormatCsvRow(row) + "\n";
  auto parsed = ParseCsv(data);
  EXPECT_EQ(parsed, rows);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(),
                   [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ChunkedIndexedCoversRangeWithAnnouncedChunks) {
  ThreadPool pool(3);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
    size_t num_chunks = pool.NumChunks(n);
    std::vector<std::atomic<int>> hits(n);
    std::vector<std::atomic<int>> chunk_sizes(std::max<size_t>(num_chunks, 1));
    size_t max_chunk_seen = 0;
    std::mutex mu;
    pool.ParallelForChunkedIndexed(
        n, [&](size_t chunk, size_t begin, size_t end) {
          ASSERT_LT(chunk, num_chunks);
          chunk_sizes[chunk].fetch_add(static_cast<int>(end - begin));
          for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          std::lock_guard<std::mutex> lock(mu);
          max_chunk_seen = std::max(max_chunk_seen, chunk);
        });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    if (n > 0) {
      EXPECT_EQ(max_chunk_seen + 1, num_chunks) << "n=" << n;
      for (size_t c = 0; c < num_chunks; ++c) {
        EXPECT_GT(chunk_sizes[c].load(), 0) << "empty chunk " << c;
      }
    } else {
      EXPECT_EQ(num_chunks, 0u);
    }
  }
}

TEST(ThreadPoolTest, ThrowingTaskIsRethrownFromWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // All sibling tasks still ran — the exception is captured, not a worker
  // death — and the pool stays fully usable afterwards.
  EXPECT_EQ(counter.load(), 16);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();  // no stale exception: rethrow cleared it
  EXPECT_EQ(counter.load(), 17);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsKept) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The remaining seven were dropped; a clean batch waits cleanly.
  pool.Submit([] {});
  pool.Wait();
}

TEST(ThreadPoolTest, ParallelForPropagatesTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](size_t i) {
                                  if (i == 33) throw std::logic_error("i33");
                                }),
               std::logic_error);
  // Pool unharmed: the next parallel loop completes normally.
  std::atomic<int> hits{0};
  pool.ParallelFor(64, [&hits](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPoolTest, ParallelForDynamicRunsEveryIndexOnce) {
  for (size_t num_threads : {size_t{1}, size_t{3}}) {
    ThreadPool pool(num_threads);
    for (size_t n : {size_t{0}, size_t{1}, 4 * num_threads + 7}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelForDynamic(n, [&hits](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << " at " << num_threads
            << " threads";
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForDynamicRethrowsFirstException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelForDynamic(64,
                                       [&ran](size_t i) {
                                         ran.fetch_add(1);
                                         if (i == 5) {
                                           throw std::logic_error("i5");
                                         }
                                       }),
               std::logic_error);
  EXPECT_GE(ran.load(), 6);  // indices are claimed in ascending order
  // Pool unharmed: the next loop runs every index and nothing stale is
  // rethrown.
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelForDynamic(hits.size(),
                          [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  pool.Submit([] {});
  pool.Wait();
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

// ---------------------------------------------------------------------------
// Timer

TEST(TimerTest, MonotonicNonNegative) {
  Timer t;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  double first = t.ElapsedSeconds();
  EXPECT_GE(t.ElapsedSeconds(), first);
}

TEST(TimerTest, ResetRestarts) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace yver::util
