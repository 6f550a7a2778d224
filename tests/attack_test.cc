// Tests for the Bayesian interval-inference attack: the adversarial check
// that the paper's §3 privacy accounting is honest.

#include <vector>

#include <gtest/gtest.h>

#include "attack/interval_attack.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

namespace ppdm::attack {
namespace {

using perturb::NoiseKind;
using perturb::NoiseModel;
using stats::Partition;

struct AttackData {
  std::vector<double> original;
  std::vector<double> perturbed;
  std::vector<double> prior;
};

AttackData MakeData(const NoiseModel& noise, std::size_t n = 6000,
                    std::size_t bins = 20) {
  Rng rng(5);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
  AttackData data;
  stats::Histogram hist(0.0, 1.0, bins);
  data.original.resize(n);
  data.perturbed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.original[i] = truth.Sample(&rng);
    data.perturbed[i] = data.original[i] + noise.Sample(&rng);
    hist.Add(data.original[i]);
  }
  data.prior = hist.Masses();
  return data;
}

TEST(IntervalAttackTest, NearZeroNoiseIsFullyCompromised) {
  const NoiseModel noise = NoiseModel::Uniform(0.005);  // << interval width
  const AttackData data = MakeData(noise);
  const auto result = RunIntervalAttack(data.original, data.perturbed,
                                        Partition(0.0, 1.0, 20), noise,
                                        data.prior);
  EXPECT_GE(result.map_hit_rate, 0.85);
  EXPECT_LE(result.mean_credible_width95, 0.12);
}

TEST(IntervalAttackTest, FullPrivacyDefeatsTheAttack) {
  const NoiseModel noise =
      perturb::NoiseForPrivacy(NoiseKind::kUniform, 1.0, 1.0, 0.95);
  const AttackData data = MakeData(noise);
  const auto result = RunIntervalAttack(data.original, data.perturbed,
                                        Partition(0.0, 1.0, 20), noise,
                                        data.prior);
  // MAP can't do much better than guessing a modal interval.
  EXPECT_LE(result.map_hit_rate, 0.2);
  // And the attacker's own 95% interval is wide — consistent with the
  // claimed privacy (100% of range at 95% confidence, clipped by domain).
  EXPECT_GE(result.mean_credible_width95, 0.5);
}

TEST(IntervalAttackTest, CredibleSetsAreCalibrated) {
  for (double privacy : {0.25, 1.0}) {
    const NoiseModel noise =
        perturb::NoiseForPrivacy(NoiseKind::kGaussian, privacy, 1.0, 0.95);
    const AttackData data = MakeData(noise);
    const auto result = RunIntervalAttack(data.original, data.perturbed,
                                          Partition(0.0, 1.0, 20), noise,
                                          data.prior);
    EXPECT_GE(result.credible_coverage, 0.9) << "privacy " << privacy;
  }
}

TEST(IntervalAttackTest, HitRateDecreasesWithPrivacy) {
  double previous = 1.1;
  for (double privacy : {0.1, 0.25, 0.5, 1.0}) {
    const NoiseModel noise =
        perturb::NoiseForPrivacy(NoiseKind::kUniform, privacy, 1.0, 0.95);
    const AttackData data = MakeData(noise);
    const auto result = RunIntervalAttack(data.original, data.perturbed,
                                          Partition(0.0, 1.0, 20), noise,
                                          data.prior);
    EXPECT_LT(result.map_hit_rate, previous + 0.02)
        << "privacy " << privacy;
    previous = result.map_hit_rate;
  }
}

TEST(IntervalAttackTest, EmptyInput) {
  const NoiseModel noise = NoiseModel::Uniform(0.1);
  const auto result = RunIntervalAttack({}, {}, Partition(0.0, 1.0, 10),
                                        noise, std::vector<double>(10, 0.1));
  EXPECT_EQ(result.records, 0u);
  EXPECT_DOUBLE_EQ(result.map_hit_rate, 0.0);
}

TEST(IntervalAttackTest, PriorBaselineIsReported) {
  const NoiseModel noise =
      perturb::NoiseForPrivacy(NoiseKind::kUniform, 2.0, 1.0, 0.95);
  const AttackData data = MakeData(noise);
  const auto result = RunIntervalAttack(data.original, data.perturbed,
                                        Partition(0.0, 1.0, 20), noise,
                                        data.prior);
  // Plateau ground truth: modal interval holds ~1/17 of the mass.
  EXPECT_GT(result.prior_hit_rate, 0.02);
  EXPECT_LT(result.prior_hit_rate, 0.15);
}

}  // namespace
}  // namespace ppdm::attack
