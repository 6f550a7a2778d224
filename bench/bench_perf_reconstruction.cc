// P1 — cost and accuracy of the Bayes/EM reconstructor (the paper's
// interval-partitioned form, §4.3: one O(N) binning pass, then O(K²) per
// iteration) across sample counts and interval counts. Each row reports
// µs per Fit, EM iterations per fit, and the total variation distance of
// the estimate to the histogram of the unperturbed plateau sample; the
// 100-interval cell runs once per SIMD path.
// PPDM_BENCH_RECORDS=N replaces the largest sample count (CI smoke); the
// small rows use a tenth of it.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "engine/simd.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

namespace {

using namespace ppdm;

// A plateau sample and its perturbation under 100% uniform noise.
struct Sample {
  std::vector<double> original;
  std::vector<double> perturbed;
};

Sample MakeSample(std::size_t n, const perturb::NoiseModel& noise) {
  Rng rng(1);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
  Sample s;
  s.original.resize(n);
  s.perturbed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.original[i] = truth.Sample(&rng);
    s.perturbed[i] = s.original[i] + noise.Sample(&rng);
  }
  return s;
}

// Fits once for the iterations and the TV, then times the best of five
// fits with nothing kept alive across them.
void RunCase(const char* label, const Sample& sample, std::size_t intervals,
             const reconstruct::BayesReconstructor& rec) {
  const reconstruct::Partition p(0.0, 1.0, intervals);
  stats::Histogram truth(0.0, 1.0, intervals);
  truth.AddAll(sample.original);
  const reconstruct::Reconstruction r = rec.Fit(sample.perturbed, p);
  const double tv = stats::TotalVariation(r.masses, truth.Masses());
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double seconds = bench::WallSeconds([&] {
      const reconstruct::Reconstruction fit = rec.Fit(sample.perturbed, p);
      (void)fit;
    });
    if (rep == 0 || seconds < best) best = seconds;
  }
  const double us_per_fit = 1e6 * best;
  std::printf("%-36s %10.1f %14zu %8.4f\n", label, us_per_fit, r.iterations,
              tv);
  bench::EmitBenchJson(
      "perf_reconstruction", label,
      {{"us_per_fit", us_per_fit},
       {"iterations_per_fit", static_cast<double>(r.iterations)},
       {"tv", tv},
       {"records", static_cast<double>(sample.perturbed.size())}});
}

}  // namespace

int main() {
  namespace simd = ppdm::engine::simd;
  bench::PrintBanner("P1", "EM reconstruction: cost per fit and accuracy");
  const perturb::NoiseModel noise =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0, 0.95);
  const reconstruct::BayesReconstructor rec(noise, {});
  const std::size_t large = bench::BenchRecords(100000);
  const Sample small_sample = MakeSample(large / 10, noise);
  const Sample large_sample = MakeSample(large, noise);

  std::printf("%-36s %10s %14s %8s\n", "case", "us/fit", "iterations/fit",
              "TV");
  char label[64];
  std::snprintf(label, sizeof(label), "n=%zu K=20", large / 10);
  RunCase(label, small_sample, 20, rec);
  for (const std::size_t intervals : {std::size_t{20}, std::size_t{50}}) {
    std::snprintf(label, sizeof(label), "n=%zu K=%zu", large, intervals);
    RunCase(label, large_sample, intervals, rec);
  }

  // The largest cell on each SIMD path: scalar (the lane-blocked
  // reference) anchors, avx2 shows the vector gain on top.
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  for (simd::Path path : paths) {
    (void)simd::SetPath(path);
    std::snprintf(label, sizeof(label), "n=%zu K=100 simd=%s", large,
                  simd::PathName(path));
    RunCase(label, large_sample, 100, rec);
  }
  return 0;
}
