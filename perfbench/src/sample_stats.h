// Exact order statistics over raw latency samples. Every timing the
// benchmark reports comes from here, never from a bucketed histogram: a
// quantile is the nearest-rank element of the sorted samples, and a tail
// quantile is withheld unless at least kMinTailSamples samples lie beyond
// it.

#ifndef PERFBENCH_SAMPLE_STATS_H_
#define PERFBENCH_SAMPLE_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail quantile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Summary of one sample set.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  /// Absent when fewer than kMinTailSamples samples lie beyond p99.
  std::optional<double> p99;
};

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

/// Sorts a copy of `samples` and summarizes it; n == 0 yields zeros.
Summary Summarize(std::vector<double> samples);

/// Nearest-rank q-quantile of `samples`; absent when fewer than
/// kMinTailSamples samples lie beyond it.
std::optional<double> TailQuantile(std::vector<double> samples, double q);

/// Median of `values` (non-empty); the mean of the middle pair when even.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLE_STATS_H_
