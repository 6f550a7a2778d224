#include "core/infotheory.h"

#include <cmath>

#include "common/check.h"
#include "stats/histogram.h"

namespace ppdm::core {
namespace {

constexpr double kTiny = 1e-15;

double Log2(double x) { return std::log2(x); }

}  // namespace

double DiscreteEntropyBits(const std::vector<double>& masses) {
  double h = 0.0;
  for (double p : masses) {
    PPDM_CHECK_GE(p, -kTiny);
    if (p > kTiny) h -= p * Log2(p);
  }
  return h;
}

double DifferentialEntropyBits(const std::vector<double>& masses,
                               double interval_width) {
  PPDM_CHECK_GT(interval_width, 0.0);
  double h = 0.0;
  for (double p : masses) {
    if (p > kTiny) h += p * Log2(interval_width / p);
  }
  return h;
}

double EntropyPrivacy(const std::vector<double>& masses,
                      double interval_width) {
  return std::exp2(DifferentialEntropyBits(masses, interval_width));
}

double MutualInformationBits(const std::vector<double>& masses,
                             const stats::Partition& partition,
                             const perturb::NoiseModel& noise) {
  PPDM_CHECK_EQ(masses.size(), partition.intervals());
  const std::size_t num_x = masses.size();
  const double width = partition.width();
  const auto extension = static_cast<std::size_t>(
      std::ceil(noise.EffectiveHalfWidth() / width)) + 1;
  const double margin = width * static_cast<double>(extension);
  const stats::Partition wgrid(partition.lo() - margin,
                               partition.hi() + margin,
                               num_x + 2 * extension);
  const std::size_t num_w = wgrid.intervals();

  // P(W-bin j | X-bin k), placing X at the interval midpoint and
  // integrating the noise CDF across the W bin.
  std::vector<double> pw(num_w, 0.0);
  std::vector<double> joint(num_w * num_x, 0.0);
  for (std::size_t k = 0; k < num_x; ++k) {
    if (masses[k] <= kTiny) continue;
    const double mid = partition.Mid(k);
    for (std::size_t j = 0; j < num_w; ++j) {
      const double pj_given_k =
          noise.Cdf(wgrid.Hi(j) - mid) - noise.Cdf(wgrid.Lo(j) - mid);
      const double pj = masses[k] * pj_given_k;
      joint[j * num_x + k] = pj;
      pw[j] += pj;
    }
  }

  double mi = 0.0;
  for (std::size_t j = 0; j < num_w; ++j) {
    if (pw[j] <= kTiny) continue;
    for (std::size_t k = 0; k < num_x; ++k) {
      const double pjk = joint[j * num_x + k];
      if (pjk <= kTiny) continue;
      mi += pjk * Log2(pjk / (pw[j] * masses[k]));
    }
  }
  return mi;
}

double InformationLoss(const std::vector<double>& truth,
                       const std::vector<double>& estimate) {
  return stats::TotalVariation(truth, estimate);
}

}  // namespace ppdm::core
