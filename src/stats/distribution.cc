#include "stats/distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace ppdm::stats {

// ---------------------------------------------------------------- Triangle

TriangleDistribution::TriangleDistribution(double lo, double hi)
    : lo_(lo), hi_(hi), mid_(0.5 * (lo + hi)) {
  PPDM_CHECK_LT(lo, hi);
}

double TriangleDistribution::Pdf(double x) const {
  if (x < lo_ || x > hi_) return 0.0;
  const double h = 2.0 / (hi_ - lo_);  // peak density
  if (x <= mid_) return h * (x - lo_) / (mid_ - lo_);
  return h * (hi_ - x) / (hi_ - mid_);
}

double TriangleDistribution::Cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  const double span = hi_ - lo_;
  if (x <= mid_) {
    const double t = x - lo_;
    return 2.0 * t * t / (span * span);
  }
  const double t = hi_ - x;
  return 1.0 - 2.0 * t * t / (span * span);
}

double TriangleDistribution::Quantile(double p) const {
  PPDM_CHECK(p >= 0.0 && p <= 1.0);
  const double span = hi_ - lo_;
  if (p <= 0.5) return lo_ + span * std::sqrt(p / 2.0);
  return hi_ - span * std::sqrt((1.0 - p) / 2.0);
}

double TriangleDistribution::Sample(Rng* rng) const {
  return Quantile(rng->UniformDouble());
}

// ---------------------------------------------------------------- Plateau

PlateauDistribution::PlateauDistribution(double lo, double hi,
                                         double ramp_frac)
    : lo_(lo), hi_(hi) {
  PPDM_CHECK_LT(lo, hi);
  PPDM_CHECK(ramp_frac > 0.0 && ramp_frac <= 0.5);
  ramp_ = ramp_frac * (hi - lo);
  // Total mass: ramp triangles contribute peak*ramp, plateau contributes
  // peak*(span - 2*ramp); solve peak * (span - ramp) = 1.
  peak_ = 1.0 / ((hi_ - lo_) - ramp_);
}

double PlateauDistribution::Pdf(double x) const {
  if (x < lo_ || x > hi_) return 0.0;
  if (x < lo_ + ramp_) return peak_ * (x - lo_) / ramp_;
  if (x > hi_ - ramp_) return peak_ * (hi_ - x) / ramp_;
  return peak_;
}

double PlateauDistribution::Cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  if (x < lo_ + ramp_) {
    const double t = x - lo_;
    return 0.5 * peak_ * t * t / ramp_;
  }
  if (x <= hi_ - ramp_) {
    return 0.5 * peak_ * ramp_ + peak_ * (x - lo_ - ramp_);
  }
  const double t = hi_ - x;
  return 1.0 - 0.5 * peak_ * t * t / ramp_;
}

double PlateauDistribution::Quantile(double p) const {
  PPDM_CHECK(p >= 0.0 && p <= 1.0);
  const double ramp_mass = 0.5 * peak_ * ramp_;
  if (p <= ramp_mass) {
    return lo_ + std::sqrt(2.0 * p * ramp_ / peak_);
  }
  if (p <= 1.0 - ramp_mass) {
    return lo_ + ramp_ + (p - ramp_mass) / peak_;
  }
  return hi_ - std::sqrt(2.0 * (1.0 - p) * ramp_ / peak_);
}

double PlateauDistribution::Sample(Rng* rng) const {
  return Quantile(rng->UniformDouble());
}

// ---------------------------------------------------------------- Mixture

MixtureDistribution::MixtureDistribution(
    std::vector<std::shared_ptr<const Distribution>> parts,
    std::vector<double> weights)
    : parts_(std::move(parts)), weights_(std::move(weights)) {
  PPDM_CHECK(!parts_.empty());
  PPDM_CHECK_EQ(parts_.size(), weights_.size());
  double total = 0.0;
  for (double w : weights_) {
    PPDM_CHECK_GT(w, 0.0);
    total += w;
  }
  for (double& w : weights_) w /= total;
}

double MixtureDistribution::Pdf(double x) const {
  double d = 0.0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    d += weights_[i] * parts_[i]->Pdf(x);
  }
  return d;
}

double MixtureDistribution::Cdf(double x) const {
  double c = 0.0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    c += weights_[i] * parts_[i]->Cdf(x);
  }
  return c;
}

double MixtureDistribution::Quantile(double p) const {
  PPDM_CHECK(p > 0.0 && p < 1.0);
  double lo = SupportLo();
  double hi = SupportHi();
  // Fall back to a wide bracket when a component has unbounded support.
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    lo = -1e12;
    hi = 1e12;
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (Cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double MixtureDistribution::Sample(Rng* rng) const {
  double u = rng->UniformDouble();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (u < weights_[i] || i + 1 == parts_.size()) {
      return parts_[i]->Sample(rng);
    }
    u -= weights_[i];
  }
  return parts_.back()->Sample(rng);
}

double MixtureDistribution::Mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    m += weights_[i] * parts_[i]->Mean();
  }
  return m;
}

double MixtureDistribution::SupportLo() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const auto& part : parts_) lo = std::min(lo, part->SupportLo());
  return lo;
}

double MixtureDistribution::SupportHi() const {
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& part : parts_) hi = std::max(hi, part->SupportHi());
  return hi;
}

}  // namespace ppdm::stats
