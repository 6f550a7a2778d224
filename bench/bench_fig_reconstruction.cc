// F1 — the paper's "reconstructing the original distribution" figures:
// original vs perturbed vs reconstructed histograms for the plateau and
// triangle ground truths, under uniform and Gaussian noise at 100%
// privacy, with total-variation / KS error summaries.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

namespace {

using namespace ppdm;

void RunCase(const char* shape_name, const stats::Distribution& truth,
             perturb::NoiseKind kind) {
  const std::size_t n = core::PaperScaleRequested() ? 100000 : 20000;
  const std::size_t bins = 20;
  Rng rng(7);
  const perturb::NoiseModel noise =
      perturb::NoiseForPrivacy(kind, 1.0, 1.0, 0.95);

  stats::Histogram original(0.0, 1.0, bins);
  stats::Histogram perturbed_hist(0.0, 1.0, bins);
  std::vector<double> perturbed(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = truth.Sample(&rng);
    const double w = x + noise.Sample(&rng);
    original.Add(x);
    perturbed_hist.Add(w);
    perturbed[i] = w;
  }

  const reconstruct::BayesReconstructor reconstructor(noise, {});
  const reconstruct::Reconstruction recon =
      reconstructor.Fit(perturbed, stats::Partition(0.0, 1.0, bins));

  const auto orig_m = original.Masses();
  const auto pert_m = perturbed_hist.Masses();

  std::printf("\n-- %s distribution, %s noise @100%% privacy "
              "(n=%zu, %zu EM iterations) --\n",
              shape_name, perturb::NoiseKindName(kind).c_str(), n,
              recon.iterations);
  std::printf("%-8s %10s %10s %13s\n", "bin mid", "original",
              "randomized", "reconstructed");
  for (std::size_t k = 0; k < bins; ++k) {
    std::printf("%-8.3f %9.2f%% %9.2f%% %12.2f%%\n",
                original.partition().Mid(k), bench::Pct(orig_m[k]),
                bench::Pct(pert_m[k]), bench::Pct(recon.masses[k]));
  }
  std::printf("error vs original:  randomized TV=%.4f KS=%.4f |  "
              "reconstructed TV=%.4f KS=%.4f\n",
              stats::TotalVariation(pert_m, orig_m),
              stats::KolmogorovSmirnov(pert_m, orig_m),
              stats::TotalVariation(recon.masses, orig_m),
              stats::KolmogorovSmirnov(recon.masses, orig_m));
}

}  // namespace

int main() {
  bench::PrintBanner("F1", "distribution reconstruction (paper §4 figures)");
  const stats::PlateauDistribution plateau(0.0, 1.0, 0.25);
  const stats::TriangleDistribution triangle(0.0, 1.0);
  for (perturb::NoiseKind kind :
       {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
    RunCase("plateau", plateau, kind);
    RunCase("triangle", triangle, kind);
  }
  return 0;
}
