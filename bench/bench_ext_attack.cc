// X4 — adversarial validation of §3: a Bayesian attacker (knows the noise
// model and the reconstructed distribution) tries to pin each record's
// true interval. Reported per privacy level: MAP hit rate vs the prior
// baseline, and the attacker's achieved 95% credible width vs the privacy
// the calibration promised.

#include <cstdio>
#include <vector>

#include "attack/interval_attack.h"
#include "bench/bench_util.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

int main() {
  using namespace ppdm;

  bench::PrintBanner("X4", "Bayesian interval-inference attack vs claimed "
                           "privacy");

  const std::size_t n = core::PaperScaleRequested() ? 100000 : 20000;
  const std::size_t bins = 20;
  const stats::Partition partition(0.0, 1.0, bins);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);

  std::printf("%-9s %-9s | %10s %12s | %16s %16s %10s\n", "privacy",
              "noise", "MAP hit", "prior hit", "claimed 95% w",
              "achieved 95% w", "coverage");
  for (perturb::NoiseKind kind :
       {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
    for (double pf : {0.1, 0.25, 0.5, 1.0, 2.0}) {
      Rng rng(17);
      const perturb::NoiseModel noise =
          perturb::NoiseForPrivacy(kind, pf, 1.0, 0.95);
      std::vector<double> original(n), perturbed(n);
      for (std::size_t i = 0; i < n; ++i) {
        original[i] = truth.Sample(&rng);
        perturbed[i] = original[i] + noise.Sample(&rng);
      }
      // The attacker uses the *reconstructed* distribution as its prior —
      // exactly what a malicious server would have.
      const reconstruct::BayesReconstructor reconstructor(noise, {});
      const auto recon = reconstructor.Fit(perturbed, partition);

      const auto result = attack::RunIntervalAttack(
          original, perturbed, partition, noise, recon.masses);
      std::printf("%7.0f%% %-9s | %9.1f%% %11.1f%% | %15.3f %16.3f %9.1f%%\n",
                  bench::Pct(pf), perturb::NoiseKindName(kind).c_str(),
                  bench::Pct(result.map_hit_rate),
                  bench::Pct(result.prior_hit_rate),
                  noise.PrivacyAtConfidence(0.95),
                  result.mean_credible_width95,
                  bench::Pct(result.credible_coverage));
    }
  }
  std::printf("\nExpected shape: as claimed privacy grows, MAP falls to "
              "the prior baseline and\nthe achieved credible width "
              "approaches the claimed width (clipped by the unit\ndomain). "
              "Coverage stays ≥95%%: the §3 accounting is honest under "
              "this model.\n");
  return 0;
}
