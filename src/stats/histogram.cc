#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ppdm::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  PPDM_CHECK_LT(lo, hi);
  PPDM_CHECK_GT(bins, 0u);
  counts_.assign(bins, 0);
}

void Histogram::Add(double value) {
  ++counts_[BinOf(value)];
  ++total_;
}

void Histogram::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
}

std::size_t Histogram::BinOf(double value) const {
  if (value <= lo_) return 0;
  if (value >= hi_) return counts_.size() - 1;
  auto b = static_cast<std::size_t>((value - lo_) / width_);
  return std::min(b, counts_.size() - 1);
}

double Histogram::BinLo(std::size_t b) const {
  PPDM_CHECK_LT(b, counts_.size());
  return lo_ + width_ * static_cast<double>(b);
}

double Histogram::BinHi(std::size_t b) const {
  PPDM_CHECK_LT(b, counts_.size());
  return lo_ + width_ * static_cast<double>(b + 1);
}

double Histogram::BinMid(std::size_t b) const {
  PPDM_CHECK_LT(b, counts_.size());
  return lo_ + width_ * (static_cast<double>(b) + 0.5);
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
