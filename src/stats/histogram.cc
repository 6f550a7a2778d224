#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ppdm::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : partition_(lo, hi, bins), counts_(bins, 0) {}

void Histogram::Add(double value) {
  ++counts_[partition_.IntervalOf(value)];
  ++total_;
}

void Histogram::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
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
