// A3 — ablation: the EM stopping criterion. Run to convergence the ML
// deconvolution estimate grows spiky artifacts (Richardson–Lucy "night
// sky"), so reconstruction error is U-shaped in the iteration count. This
// sweep justifies the default χ² threshold of 1e-4.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

int main() {
  using namespace ppdm;

  bench::PrintBanner("A3", "ablation: EM early stopping (plateau truth, "
                           "@100% privacy)");

  const std::size_t n = core::PaperScaleRequested() ? 100000 : 20000;
  const std::size_t bins = 20;
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
  const stats::Partition partition(0.0, 1.0, bins);

  std::printf("%-12s | %28s | %28s\n", "", "uniform noise", "gaussian noise");
  std::printf("%-12s | %8s %8s %9s | %8s %8s %9s\n", "chi2 eps", "iters",
              "TV err", "KS err", "iters", "TV err", "KS err");

  for (double eps : {1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 0.0}) {
    std::printf("%-12.0e |", eps);
    for (perturb::NoiseKind kind :
         {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
      Rng rng(9);
      const perturb::NoiseModel noise =
          perturb::NoiseForPrivacy(kind, 1.0, 1.0, 0.95);
      stats::Histogram hist(0.0, 1.0, bins);
      std::vector<double> perturbed(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = truth.Sample(&rng);
        hist.Add(x);
        perturbed[i] = x + noise.Sample(&rng);
      }
      reconstruct::ReconstructionOptions options;
      options.chi_square_epsilon = eps;
      options.max_iterations = 400;
      const reconstruct::BayesReconstructor reconstructor(noise, options);
      const auto recon = reconstructor.Fit(perturbed, partition);
      std::printf(" %8zu %8.4f %9.4f |", recon.iterations,
                  stats::TotalVariation(recon.masses, hist.Masses()),
                  stats::KolmogorovSmirnov(recon.masses, hist.Masses()));
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: TV error is U-shaped — loose thresholds "
              "under-fit, running\nto convergence (eps=0) over-fits; the "
              "1e-4 default sits at the bottom.\n");
  return 0;
}
