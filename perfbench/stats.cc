#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  size_t n = samples.size();
  // Rank in 1..n; the small epsilon keeps p * n exact for products such
  // as 0.99 * 100 that round up in binary floating point.
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> WindowPercentiles(const std::vector<double>& ordered,
                                      double p, size_t window) {
  size_t n = ordered.size();
  size_t windows = std::max<size_t>(1, n / std::max<size_t>(1, window));
  std::vector<double> out;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    auto end =
        ordered.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    out.push_back(Percentile(std::vector<double>(begin, end), p));
  }
  return out;
}

std::string SelfTestPercentile() {
  struct Case {
    std::vector<double> samples;
    double p;
    double want;
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // 1..100, reversed
  std::vector<double> thousand;
  for (int i = 0; i < 1000; ++i) thousand.push_back((i * 7919) % 1000);
  const Case cases[] = {
      {{}, 0.5, 0.0},
      {{42.0}, 0.99, 42.0},
      {{3, 1, 2}, 0.5, 2.0},
      {{1, 2, 3, 4}, 0.5, 2.0},
      {{1, 2, 3, 4}, 0.75, 3.0},
      {{1, 2, 3, 4}, 1.0, 4.0},
      {{1, 2, 3, 4}, 0.0, 1.0},
      {hundred, 0.50, 50.0},
      {hundred, 0.99, 99.0},
      {hundred, 0.991, 100.0},
      // A log2 histogram would report 2^n bucket bounds here; the exact
      // answer sits between them.
      {{0.30, 0.30, 0.30, 0.70, 0.70, 0.70, 0.70, 0.70, 0.70, 0.70}, 0.5,
       0.70},
      {thousand, 0.99, 989.0},
      {thousand, 0.999, 998.0},
  };
  char buf[160];
  for (const Case& c : cases) {
    double got = Percentile(c.samples, c.p);
    if (got != c.want) {
      std::snprintf(buf, sizeof(buf),
                    "Percentile(n=%zu, p=%.3f) = %.6f, want %.6f",
                    c.samples.size(), c.p, got, c.want);
      return buf;
    }
  }
  // A hiccup spoils the p99 of the whole sample but only its own window.
  std::vector<double> bursty(5000, 1.0);
  for (size_t i = 1000; i < 1100; ++i) bursty[i] = 50.0;
  if (Percentile(bursty, 0.99) != 50.0 ||
      WindowPercentiles(bursty, 0.99, 1000) !=
          std::vector<double>{1.0, 50.0, 1.0, 1.0, 1.0} ||
      WindowPercentiles({1, 2, 3}, 0.5, 1000) != std::vector<double>{2.0}) {
    return "WindowPercentiles self-test failed";
  }
  if (Median({4, 1, 3, 2}) != 2.5 || Median({5, 1, 3}) != 3.0 ||
      Median({}) != 0.0) {
    return "Median self-test failed";
  }
  return "";
}

}  // namespace perfbench
