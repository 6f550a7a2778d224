#include "attack/interval_attack.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace ppdm::attack {

IntervalAttackResult RunIntervalAttack(
    const std::vector<double>& original, const std::vector<double>& perturbed,
    const stats::Partition& partition,
    const perturb::NoiseModel& noise, const std::vector<double>& prior) {
  PPDM_CHECK_EQ(original.size(), perturbed.size());
  PPDM_CHECK_EQ(prior.size(), partition.intervals());

  IntervalAttackResult result;
  result.records = original.size();
  if (original.empty()) return result;

  const std::size_t num_intervals = partition.intervals();
  const auto prior_mode = static_cast<std::size_t>(
      std::max_element(prior.begin(), prior.end()) - prior.begin());

  std::size_t map_hits = 0, prior_hits = 0, covered = 0;
  double total_width = 0.0;
  std::vector<double> posterior(num_intervals);
  std::vector<std::size_t> order(num_intervals);

  for (std::size_t i = 0; i < original.size(); ++i) {
    const std::size_t truth = partition.IntervalOf(original[i]);
    if (truth == prior_mode) ++prior_hits;

    double total = 0.0;
    for (std::size_t k = 0; k < num_intervals; ++k) {
      posterior[k] = prior[k] * noise.Pdf(perturbed[i] - partition.Mid(k));
      total += posterior[k];
    }
    if (total <= 0.0) {
      // Perturbed value unreachable from every interval midpoint under
      // bounded noise: fall back to the nearest interval.
      std::fill(posterior.begin(), posterior.end(), 0.0);
      posterior[partition.IntervalOf(perturbed[i])] = 1.0;
      total = 1.0;
    }
    for (double& p : posterior) p /= total;

    const auto map = static_cast<std::size_t>(
        std::max_element(posterior.begin(), posterior.end()) -
        posterior.begin());
    if (map == truth) ++map_hits;

    // Smallest credible set: take intervals in decreasing posterior order
    // until 95% of the mass is covered.
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return posterior[a] > posterior[b];
    });
    double mass = 0.0;
    std::size_t picked = 0;
    bool truth_in_set = false;
    for (std::size_t k : order) {
      mass += posterior[k];
      ++picked;
      if (k == truth) truth_in_set = true;
      if (mass >= 0.95) break;
    }
    total_width += static_cast<double>(picked) * partition.width();
    if (truth_in_set) ++covered;
  }

  const auto n = static_cast<double>(original.size());
  result.map_hit_rate = static_cast<double>(map_hits) / n;
  result.prior_hit_rate = static_cast<double>(prior_hits) / n;
  result.mean_credible_width95 = total_width / n;
  result.credible_coverage = static_cast<double>(covered) / n;
  return result;
}

}  // namespace ppdm::attack
