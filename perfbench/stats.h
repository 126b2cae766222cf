// Exact order statistics over raw per-request samples.
//
// The program's own latency reports (ServiceMetrics, LoadGenReport) keep
// log2 histograms whose bucket bounds can be off by up to 2x; every
// percentile this benchmark prints comes from the samples themselves.
#ifndef YVER_PERFBENCH_STATS_H_
#define YVER_PERFBENCH_STATS_H_

#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample x such that at least
/// `p` (in [0, 1]) of the samples are <= x. Exact; no interpolation.
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Median that averages the two middle samples of an even-sized sample
/// (used for per-run repetitions, where the count is small).
double Median(std::vector<double> samples);

/// Exact percentile of each consecutive window of `window` samples of a
/// time-ordered sample (for a fixed-rate schedule, of each time window);
/// the last window takes the remainder, and a sample shorter than two
/// windows is one window. The benchmark reports the best of these values:
/// a host hiccup that spoils some windows does not move it, a slowdown in
/// every window does. A p99 needs windows of 1000 to have ten samples
/// beyond it; a median is well supported by far fewer.
std::vector<double> WindowPercentiles(const std::vector<double>& ordered,
                                      double p, size_t window);

/// Checks Percentile and Median against hand-computed answers. Returns
/// an empty string on success, otherwise a description of the failure.
std::string SelfTestPercentile();

}  // namespace perfbench

#endif  // YVER_PERFBENCH_STATS_H_
