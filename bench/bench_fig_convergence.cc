// F2 — reconstruction convergence: the χ² statistic between successive EM
// iterates (the paper's stopping criterion) and the log-likelihood, per
// iteration. The log-likelihood column is monotone — the EM signature —
// while χ² decays to the stopping threshold.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"

int main() {
  using namespace ppdm;

  bench::PrintBanner("F2", "EM convergence (χ² stopping criterion)");

  const std::size_t n = core::PaperScaleRequested() ? 100000 : 20000;
  Rng rng(11);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
  const perturb::NoiseModel noise =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kGaussian, 1.0, 1.0, 0.95);
  std::vector<double> perturbed(n);
  for (double& w : perturbed) w = truth.Sample(&rng) + noise.Sample(&rng);

  reconstruct::ReconstructionOptions options;
  options.max_iterations = 40;
  options.chi_square_epsilon = 0.0;  // show the full trace
  const reconstruct::BayesReconstructor reconstructor(noise, options);
  const reconstruct::Reconstruction recon =
      reconstructor.Fit(perturbed, stats::Partition(0.0, 1.0, 20));

  std::printf("%-10s %16s %18s\n", "iteration", "chi-square",
              "log-likelihood");
  for (std::size_t i = 0; i < recon.iterations; ++i) {
    std::printf("%-10zu %16.3e %18.2f\n", i + 1,
                recon.chi_square_trace[i], recon.log_likelihood_trace[i]);
  }
  std::printf("\nDefault stopping threshold chi-square < %.0e (reached at "
              "iteration with comparable statistic above).\n",
              reconstruct::ReconstructionOptions{}.chi_square_epsilon);
  return 0;
}
