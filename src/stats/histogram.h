// Equi-width histogram plus the distances used by the reconstruction
// convergence test (χ²) and accuracy reporting (total variation, KS).

#ifndef PPDM_STATS_HISTOGRAM_H_
#define PPDM_STATS_HISTOGRAM_H_

#include <cstddef>
#include <vector>

namespace ppdm::stats {

/// Fixed-width binning of [lo, hi] into `bins` cells. Values outside the
/// range are clamped into the first / last bin — perturbed values routinely
/// overshoot the true domain, and the paper folds them back the same way.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one observation.
  void Add(double value);

  /// Adds a batch of observations.
  void AddAll(const std::vector<double>& values);

  /// Bin index for a value (after clamping).
  std::size_t BinOf(double value) const;

  /// Inclusive lower edge of bin b.
  double BinLo(std::size_t b) const;

  /// Exclusive upper edge of bin b (inclusive for the last bin).
  double BinHi(std::size_t b) const;

  /// Midpoint of bin b.
  double BinMid(std::size_t b) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double width() const { return width_; }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  const std::vector<std::size_t>& counts() const { return counts_; }

  /// Probability masses per bin (sum to 1; all-zero when empty).
  std::vector<double> Masses() const;

 private:
  double lo_, hi_, width_;
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
