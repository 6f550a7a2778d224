#include "stats/partition.h"

#include <algorithm>

#include "common/check.h"

namespace ppdm::stats {

Partition::Partition(double lo, double hi, std::size_t intervals)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(intervals)),
      intervals_(intervals) {
  PPDM_CHECK_LT(lo, hi);
  PPDM_CHECK_GT(intervals, 0u);
}

double Partition::Mid(std::size_t k) const {
  PPDM_CHECK_LT(k, intervals_);
  return lo_ + width_ * (static_cast<double>(k) + 0.5);
}

double Partition::Lo(std::size_t k) const {
  PPDM_CHECK_LT(k, intervals_);
  return lo_ + width_ * static_cast<double>(k);
}

double Partition::Hi(std::size_t k) const {
  PPDM_CHECK_LT(k, intervals_);
  return lo_ + width_ * static_cast<double>(k + 1);
}

std::vector<double> Partition::Edges() const {
  std::vector<double> edges(intervals_ + 1);
  for (std::size_t k = 0; k <= intervals_; ++k) {
    edges[k] = lo_ + width_ * static_cast<double>(k);
  }
  edges.back() = hi_;  // avoid drift on the last edge
  return edges;
}

std::size_t Partition::IntervalOf(double value) const {
  if (value <= lo_) return 0;
  if (value >= hi_) return intervals_ - 1;
  auto k = static_cast<std::size_t>((value - lo_) / width_);
  return std::min(k, intervals_ - 1);
}

}  // namespace ppdm::stats
