// Histogram counts over an interval grid, plus the distances used by the
// reconstruction convergence test (χ²) and accuracy reporting (total
// variation, KS).

#ifndef PPDM_STATS_HISTOGRAM_H_
#define PPDM_STATS_HISTOGRAM_H_

#include <cstddef>
#include <vector>

#include "stats/partition.h"

namespace ppdm::stats {

/// Observation counts over a Partition. Values outside the grid are
/// clamped into the first / last bin (Partition::IntervalOf) — perturbed
/// values routinely overshoot the true domain, and the paper folds them
/// back the same way.
class Histogram {
 public:
  /// Counts over Partition(lo, hi, bins).
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one observation.
  void Add(double value);

  /// Adds a batch of observations.
  void AddAll(const std::vector<double>& values);

  const Partition& partition() const { return partition_; }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  const std::vector<std::size_t>& counts() const { return counts_; }

  /// Probability masses per bin (sum to 1; all-zero when empty).
  std::vector<double> Masses() const;

 private:
  Partition partition_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Total variation distance ½·Σ|p_k − q_k| between two mass vectors of
/// equal length. Both inputs must sum to ~1.
double TotalVariation(const std::vector<double>& p,
                      const std::vector<double>& q);

/// χ² statistic Σ (p_k − q_k)² / q_k, skipping bins where q_k ≈ 0 — the
/// paper's stopping criterion compares successive reconstruction iterates
/// with this statistic.
double ChiSquareDistance(const std::vector<double>& p,
                         const std::vector<double>& q);

/// Kolmogorov–Smirnov distance max_k |P_k − Q_k| between the running sums.
double KolmogorovSmirnov(const std::vector<double>& p,
                         const std::vector<double>& q);

}  // namespace ppdm::stats

#endif  // PPDM_STATS_HISTOGRAM_H_
