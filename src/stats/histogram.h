// Histogram counts over an interval grid — the paper's one sufficient
// statistic (§4.3): how many values fell in each interval — plus the
// distances used by the reconstruction convergence test (χ²) and accuracy
// reporting (total variation, KS).

#ifndef PPDM_STATS_HISTOGRAM_H_
#define PPDM_STATS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/partition.h"

namespace ppdm::stats {

/// Observation counts over a Partition. Values outside the grid are
/// clamped into the first / last bin (Partition::IntervalOf) — perturbed
/// values routinely overshoot the true domain, and the paper folds them
/// back the same way. The grid never changes after construction. Counts
/// are integers, so any split of the same values into runs, batches or
/// shards yields the same counts bit for bit.
class Histogram {
 public:
  /// Counts over Partition(lo, hi, bins).
  Histogram(double lo, double hi, std::size_t bins);

  /// Empty counts over `partition`.
  explicit Histogram(const Partition& partition);

  /// Counts over `partition` rebuilt from `counts`, one per interval
  /// (PPDM_CHECK; a session restore validates untrusted counts first).
  Histogram(const Partition& partition, std::vector<std::uint64_t> counts);

  /// Adds one observation.
  void Add(double value);

  /// Adds a batch of observations.
  void AddAll(const std::vector<double>& values);

  /// Adds one observation in each interval `bins[0..n)`: equal to an Add()
  /// loop over values in those intervals. The run is checked once, not per
  /// value: its largest index must be below bins() (PPDM_CHECK), so a bad
  /// index aborts before any count moves. n == 0 is a no-op.
  void AddIndices(const std::uint32_t* bins, std::size_t n);

  const Partition& partition() const { return partition_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t total() const { return total_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// The counts as doubles: the EM's observation weights.
  std::vector<double> Weights() const;

  /// Probability masses per bin (sum to 1; all-zero when empty).
  std::vector<double> Masses() const;

  /// Heap bytes held by the counts, the unit of session memory budgets:
  /// size(), not capacity(), which could over-report by an
  /// allocator-dependent amount and make budget admission non-portable.
  std::size_t ApproxHeapBytes() const {
    return counts_.size() * sizeof(std::uint64_t);
  }

 private:
  Partition partition_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
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
