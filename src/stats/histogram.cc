#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace ppdm::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : Histogram(Partition(lo, hi, bins)) {}

Histogram::Histogram(const Partition& partition)
    : partition_(partition), counts_(partition.intervals(), 0) {}

Histogram::Histogram(const Partition& partition,
                     std::vector<std::uint64_t> counts)
    : partition_(partition), counts_(std::move(counts)) {
  PPDM_CHECK_EQ(counts_.size(), partition_.intervals());
  for (std::uint64_t c : counts_) total_ += c;
}

void Histogram::Add(double value) {
  ++counts_[partition_.IntervalOf(value)];
  ++total_;
}

void Histogram::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
}

void Histogram::AddIndices(const std::uint32_t* bins, std::size_t n) {
  // One bound check for the run: its largest index must name a bin, so no
  // increment below can land outside the counts. The OR of the run is at
  // least its largest index and vectorizes on every x86-64 target, so the
  // largest index itself is looked for only when the OR does not name a bin.
  std::uint32_t any = 0;
  for (std::size_t i = 0; i < n; ++i) any |= bins[i];
  if (any >= counts_.size()) {
    PPDM_CHECK_LT(*std::max_element(bins, bins + n), counts_.size());
  }
  std::uint64_t* const counts = counts_.data();
  for (std::size_t i = 0; i < n; ++i) ++counts[bins[i]];
  total_ += n;
}

std::vector<double> Histogram::Weights() const {
  return std::vector<double>(counts_.begin(), counts_.end());
}

std::vector<double> Histogram::Masses() const {
  std::vector<double> masses(counts_.size(), 0.0);
  if (total_ == 0) return masses;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    masses[b] =
        static_cast<double>(counts_[b]) / static_cast<double>(total_);
  }
  return masses;
}

double TotalVariation(const std::vector<double>& p,
                      const std::vector<double>& q) {
  PPDM_CHECK_EQ(p.size(), q.size());
  double sum = 0.0;
  for (std::size_t k = 0; k < p.size(); ++k) sum += std::fabs(p[k] - q[k]);
  return 0.5 * sum;
}

double ChiSquareDistance(const std::vector<double>& p,
                         const std::vector<double>& q) {
  PPDM_CHECK_EQ(p.size(), q.size());
  constexpr double kTinyMass = 1e-12;
  double sum = 0.0;
  for (std::size_t k = 0; k < p.size(); ++k) {
    if (q[k] > kTinyMass) {
      const double d = p[k] - q[k];
      sum += d * d / q[k];
    }
  }
  return sum;
}

double KolmogorovSmirnov(const std::vector<double>& p,
                         const std::vector<double>& q) {
  PPDM_CHECK_EQ(p.size(), q.size());
  double cp = 0.0, cq = 0.0, worst = 0.0;
  for (std::size_t k = 0; k < p.size(); ++k) {
    cp += p[k];
    cq += q[k];
    worst = std::max(worst, std::fabs(cp - cq));
  }
  return worst;
}

}  // namespace ppdm::stats
