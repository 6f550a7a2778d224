// F2 — reconstruction convergence: the χ² statistic between successive EM
// iterates (the paper's stopping criterion) and the log-likelihood of each
// iterate. The log-likelihood column is monotone — the EM signature —
// while χ² decays to the stopping threshold.
//
// The fit returns only its final estimate, so iterate i is the fit capped
// at i iterations: every fit starts from the uniform prior, so the capped
// fit is iterate i of the uncapped one bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

namespace {

using namespace ppdm;

// Log-likelihood of the binned sample under `masses`, the objective EM
// climbs: sum_j w_j log(sum_k T[j][k] masses[k]) over the kernel table's
// rows, with the E-step's 1e-300 floor for a row no component reaches.
double LogLikelihood(const reconstruct::KernelTable& table,
                     const std::vector<double>& weights,
                     const std::vector<double>& masses) {
  double ll = 0.0;
  for (std::size_t j = 0; j < table.wbins; ++j) {
    if (weights[j] == 0.0) continue;
    double density = 0.0;
    for (std::size_t k = 0; k < masses.size(); ++k) {
      density += table.Row(j)[k] * masses[k];
    }
    ll += weights[j] * std::log(std::max(density, 1e-300));
  }
  return ll;
}

}  // namespace

int main() {
  bench::PrintBanner("F2", "EM convergence (χ² stopping criterion)");

  const std::size_t n = core::PaperScaleRequested() ? 100000 : 20000;
  Rng rng(11);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
  const perturb::NoiseModel noise =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kGaussian, 1.0, 1.0, 0.95);
  std::vector<double> perturbed(n);
  for (double& w : perturbed) w = truth.Sample(&rng) + noise.Sample(&rng);

  constexpr std::size_t kIterations = 40;
  const stats::Partition partition(0.0, 1.0, 20);
  reconstruct::ReconstructionOptions options;
  options.chi_square_epsilon = 0.0;  // run every capped fit to its cap
  const reconstruct::BayesReconstructor reconstructor(noise, options);
  stats::Histogram counts(reconstructor.PerturbedBinning(partition));
  counts.AddAll(perturbed);
  const std::vector<double> weights = counts.Weights();
  const reconstruct::KernelTable table =
      reconstructor.BuildKernelTable(partition);

  const double threshold =
      reconstruct::ReconstructionOptions{}.chi_square_epsilon;
  std::size_t default_stop = 0;
  std::vector<double> previous(partition.intervals(),
                               1.0 / static_cast<double>(
                                         partition.intervals()));
  std::printf("%-10s %16s %18s\n", "iteration", "chi-square",
              "log-likelihood");
  for (std::size_t i = 1; i <= kIterations; ++i) {
    options.max_iterations = i;
    const std::vector<double> masses =
        reconstruct::BayesReconstructor(noise, options)
            .FitFromCounts(weights, static_cast<double>(n), table, nullptr)
            .masses;
    const double chi2 = stats::ChiSquareDistance(masses, previous);
    if (default_stop == 0 && chi2 < threshold) default_stop = i;
    std::printf("%-10zu %16.3e %18.2f\n", i, chi2,
                LogLikelihood(table, weights, masses));
    previous = masses;
  }
  if (default_stop == 0) {
    std::printf("\nDefault stopping threshold chi-square < %.0e: not reached "
                "in %zu iterations.\n",
                threshold, kIterations);
  } else {
    std::printf("\nDefault stopping threshold chi-square < %.0e: the default "
                "rule stops at iteration %zu.\n",
                threshold, default_stop);
  }
  return 0;
}
