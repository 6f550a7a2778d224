// The equal-width interval grid (paper §4.3 "partitioning into
// intervals"): reconstruction estimates one probability mass per interval,
// perturbed values are binned on the same grid widened by the noise
// support, histograms count over it, and the decision tree uses the
// interval boundaries as candidate splits.

#ifndef PPDM_STATS_PARTITION_H_
#define PPDM_STATS_PARTITION_H_

#include <cstddef>
#include <vector>

namespace ppdm::stats {

/// K equal-width intervals covering [lo, hi].
class Partition {
 public:
  Partition(double lo, double hi, std::size_t intervals);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t intervals() const { return intervals_; }
  double width() const { return width_; }

  /// Midpoint of interval k.
  double Mid(std::size_t k) const;

  /// Lower edge of interval k.
  double Lo(std::size_t k) const;

  /// Upper edge of interval k.
  double Hi(std::size_t k) const;

  /// All K+1 interval edges.
  std::vector<double> Edges() const;

  /// Interval containing `value` (values outside [lo, hi] clamp to the
  /// first / last interval, matching the paper's treatment of overshooting
  /// perturbed values).
  std::size_t IntervalOf(double value) const;

 private:
  double lo_, hi_, width_;
  std::size_t intervals_;
};

}  // namespace ppdm::stats

#endif  // PPDM_STATS_PARTITION_H_
