// Adversarial validation of the privacy quantification (paper §3): a
// Bayesian server that knows the noise model and the reconstructed
// distribution attacks each record, inferring a posterior over the
// intervals the true value could lie in. If the §3 privacy accounting is
// honest, the attacker's hit rate must stay near the prior's and its
// credible intervals must be as wide as the claimed privacy.
//
// This is the strongest inference consistent with the paper's model
// (per-record independence; follow-up work showed *correlated* attributes
// enable stronger spectral attacks, which is out of the 1-D model's scope
// and noted in DESIGN.md).

#ifndef PPDM_ATTACK_INTERVAL_ATTACK_H_
#define PPDM_ATTACK_INTERVAL_ATTACK_H_

#include <cstddef>
#include <vector>

#include "perturb/noise_model.h"
#include "stats/partition.h"

namespace ppdm::attack {

/// Aggregate outcome of attacking a set of records.
struct IntervalAttackResult {
  /// Fraction of records whose maximum-a-posteriori interval is the true
  /// interval.
  double map_hit_rate = 0.0;

  /// Baseline: hit rate of always guessing the prior's modal interval.
  double prior_hit_rate = 0.0;

  /// Mean width (in value units) of the smallest posterior-credible set
  /// of intervals covering 95% — the attacker's *achieved* 95% confidence
  /// interval, directly comparable to the §3 privacy claim.
  double mean_credible_width95 = 0.0;

  /// Fraction of records whose true interval lies inside that 95%
  /// credible set (calibration check; should be ≈ 0.95 or higher).
  double credible_coverage = 0.0;

  std::size_t records = 0;
};

/// Bayesian per-record attack. For each record i the attacker computes
/// P(interval k | w_i) ∝ prior[k] · f_Y(w_i − m_k) and reports the MAP
/// interval plus a 95% credible set. `original` supplies ground truth for
/// scoring only.
IntervalAttackResult RunIntervalAttack(
    const std::vector<double>& original, const std::vector<double>& perturbed,
    const stats::Partition& partition,
    const perturb::NoiseModel& noise, const std::vector<double>& prior);

}  // namespace ppdm::attack

#endif  // PPDM_ATTACK_INTERVAL_ATTACK_H_
