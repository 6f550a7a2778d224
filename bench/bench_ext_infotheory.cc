// X1 — information-theoretic extension (Agrawal–Aggarwal, PODS '01):
// entropy-based privacy Π(X), mutual information through the perturbation
// channel (the privacy actually surrendered), and the information loss of
// the reconstruction, as the privacy level sweeps.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/infotheory.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

int main() {
  using namespace ppdm;

  bench::PrintBanner("X1", "entropy privacy / mutual information / "
                           "information loss (AA'01 extension)");

  const std::size_t n = core::PaperScaleRequested() ? 100000 : 20000;
  const std::size_t bins = 20;
  const stats::Partition partition(0.0, 1.0, bins);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);

  std::printf("%-10s %-9s | %12s %14s %16s %14s\n", "privacy", "noise",
              "Pi(X)", "I(X;W) bits", "I/H(X) leaked", "recon loss");
  for (perturb::NoiseKind kind :
       {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
    for (double pf : {0.25, 0.5, 1.0, 2.0}) {
      Rng rng(3);
      const perturb::NoiseModel noise =
          perturb::NoiseForPrivacy(kind, pf, 1.0, 0.95);
      stats::Histogram original(0.0, 1.0, bins);
      std::vector<double> perturbed(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = truth.Sample(&rng);
        original.Add(x);
        perturbed[i] = x + noise.Sample(&rng);
      }
      const auto masses = original.Masses();
      const double pi_x = core::EntropyPrivacy(masses, partition.width());
      const double mi = core::MutualInformationBits(masses, partition, noise);
      const double hx = core::DiscreteEntropyBits(masses);
      const reconstruct::BayesReconstructor reconstructor(noise, {});
      const auto recon = reconstructor.Fit(perturbed, partition);
      const double loss = core::InformationLoss(masses, recon.masses);
      std::printf("%8.0f%% %-9s | %12.4f %14.4f %15.1f%% %14.4f\n",
                  bench::Pct(pf), perturb::NoiseKindName(kind).c_str(), pi_x,
                  mi, bench::Pct(mi / hx), loss);
    }
  }
  std::printf("\nExpected shape: leaked fraction I/H falls as privacy "
              "grows; reconstruction\nloss stays small even when most "
              "per-record information is destroyed —\nthe paper's central "
              "point (aggregates survive, individuals hide).\n");
  return 0;
}
