// One-dimensional probability distributions: the ground-truth generators
// of the reconstruction experiments (the paper's "plateau" and "triangle"
// figures). The noise densities live in perturb::NoiseModel.

#ifndef PPDM_STATS_DISTRIBUTION_H_
#define PPDM_STATS_DISTRIBUTION_H_

#include <memory>
#include <vector>

#include "common/random.h"

namespace ppdm::stats {

/// Abstract continuous distribution on the real line.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Density at x.
  virtual double Pdf(double x) const = 0;

  /// P(X <= x).
  virtual double Cdf(double x) const = 0;

  /// Inverse CDF for p in (0,1).
  virtual double Quantile(double p) const = 0;

  /// Draws one variate.
  virtual double Sample(Rng* rng) const = 0;

  /// Expected value.
  virtual double Mean() const = 0;

  /// Lower edge of the support (-inf allowed).
  virtual double SupportLo() const = 0;

  /// Upper edge of the support (+inf allowed).
  virtual double SupportHi() const = 0;
};

/// Symmetric triangle distribution on [lo, hi] peaking at the midpoint —
/// the "triangles" ground truth of the paper's reconstruction figure.
class TriangleDistribution final : public Distribution {
 public:
  TriangleDistribution(double lo, double hi);

  double Pdf(double x) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng* rng) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }
  double SupportLo() const override { return lo_; }
  double SupportHi() const override { return hi_; }

 private:
  double lo_, hi_, mid_;
};

/// Trapezoidal "plateau" on [lo, hi]: linear ramp-up on the first
/// `ramp_frac` of the span, flat plateau, linear ramp-down on the last
/// `ramp_frac` — the paper's second reconstruction ground truth.
class PlateauDistribution final : public Distribution {
 public:
  PlateauDistribution(double lo, double hi, double ramp_frac = 0.25);

  double Pdf(double x) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng* rng) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }
  double SupportLo() const override { return lo_; }
  double SupportHi() const override { return hi_; }

 private:
  double lo_, hi_, ramp_;  // ramp_ = absolute ramp width
  double peak_;            // plateau density height
};

/// Finite mixture of component distributions with the given weights.
class MixtureDistribution final : public Distribution {
 public:
  /// Weights must be positive; they are normalized internally.
  MixtureDistribution(std::vector<std::shared_ptr<const Distribution>> parts,
                      std::vector<double> weights);

  double Pdf(double x) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;  // bisection on the CDF
  double Sample(Rng* rng) const override;
  double Mean() const override;
  double SupportLo() const override;
  double SupportHi() const override;

 private:
  std::vector<std::shared_ptr<const Distribution>> parts_;
  std::vector<double> weights_;  // normalized
};

}  // namespace ppdm::stats

#endif  // PPDM_STATS_DISTRIBUTION_H_
