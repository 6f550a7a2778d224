#include "sample_stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

std::size_t Rank(std::size_t n, double q) {
  // 1-based nearest rank ceil(q * n), clamped into [1, n].
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank q-quantile of `sorted` (ascending, non-empty).
double NearestRank(const std::vector<double>& sorted, double q) {
  return sorted[Rank(sorted.size(), q) - 1];
}

}  // namespace

std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

Summary Summarize(std::vector<double> samples) {
  Summary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
                 static_cast<double>(samples.size());
  summary.p50 = NearestRank(samples, 0.50);
  if (SamplesBeyond(samples.size(), 0.99) >= kMinTailSamples) {
    summary.p99 = NearestRank(samples, 0.99);
  }
  return summary;
}

std::optional<double> TailQuantile(std::vector<double> samples, double q) {
  if (SamplesBeyond(samples.size(), q) < kMinTailSamples) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, q);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
