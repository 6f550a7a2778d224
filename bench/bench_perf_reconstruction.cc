// P1 — timing of the Bayes/EM reconstructor: binned (the paper's
// O(K²)/iteration acceleration) vs exact (O(N·K)/iteration), across sample
// counts and interval counts, via the shared wall-clock reporter.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "engine/simd.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"

namespace {

using namespace ppdm;

std::vector<double> MakePerturbed(std::size_t n) {
  Rng rng(1);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
  const perturb::NoiseModel noise =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0, 0.95);
  std::vector<double> w(n);
  for (double& v : w) v = truth.Sample(&rng) + noise.Sample(&rng);
  return w;
}

void RunCase(bench::ThroughputReporter* reporter, bool binned, std::size_t n,
             std::size_t intervals) {
  const std::vector<double> w = MakePerturbed(n);
  const perturb::NoiseModel noise =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0, 0.95);
  reconstruct::ReconstructionOptions options;
  options.binned = binned;
  const reconstruct::BayesReconstructor rec(noise, options);
  const reconstruct::Partition p(0.0, 1.0, intervals);
  char label[64];
  std::snprintf(label, sizeof(label), "%s n=%zu K=%zu",
                binned ? "binned" : "exact", n, intervals);
  reporter->Measure(label, n, "", [&] {
    const reconstruct::Reconstruction r = rec.Fit(w, p);
    (void)r;
  });
}

}  // namespace

int main() {
  namespace simd = ppdm::engine::simd;
  bench::PrintBanner("P1", "EM reconstruction timing: binned vs exact");
  bench::ThroughputReporter reporter("records", 3, "perf_reconstruction");
  RunCase(&reporter, /*binned=*/true, 10000, 20);
  RunCase(&reporter, /*binned=*/true, 100000, 20);
  RunCase(&reporter, /*binned=*/true, 100000, 50);
  RunCase(&reporter, /*binned=*/true, 100000, 100);
  RunCase(&reporter, /*binned=*/false, 10000, 20);
  RunCase(&reporter, /*binned=*/false, 50000, 20);

  // SIMD path sweep on the hottest binned cell: scalar (the lane-blocked
  // reference) anchors, avx2 shows the vector gain on top.
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  const std::vector<double> w = MakePerturbed(100000);
  const perturb::NoiseModel noise =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0, 0.95);
  const reconstruct::BayesReconstructor rec(noise, {});
  const reconstruct::Partition p(0.0, 1.0, 100);
  for (simd::Path path : paths) {
    (void)simd::SetPath(path);
    char label[64];
    std::snprintf(label, sizeof(label), "binned n=100000 K=100 simd=%s",
                  simd::PathName(path));
    reporter.Measure(label, w.size(), "simd", [&] {
      const reconstruct::Reconstruction r = rec.Fit(w, p);
      (void)r;
    });
  }
  return 0;
}
