// X2 — the paper's §2 alternative: value-class membership (disclose only
// the interval a value falls in) vs value distortion at comparable
// privacy. Discretization into C classes gives privacy 1/C of the range
// at 100% confidence; we train Original-mode trees on the discretized
// records and compare against ByClass under additive noise.

#include <cstdio>

#include "bench/bench_util.h"
#include "perturb/discretize.h"

int main() {
  using namespace ppdm;
  using tree::TrainingMode;

  bench::PrintBanner("X2", "value-class membership vs value distortion");

  std::printf("%-6s %10s | %14s %14s %14s | %12s\n", "fn", "privacy",
              "discretized", "ByClass(U)", "ByClass(G)", "Original");
  for (synth::Function fn :
       {synth::Function::kF2, synth::Function::kF3, synth::Function::kF4}) {
    for (std::size_t classes : {4u, 2u}) {
      const double privacy =
          perturb::DiscretizationPrivacyFraction(classes);
      core::ExperimentConfig config = bench::DefaultConfig(fn);
      config.privacy_fraction = privacy;

      const core::ExperimentData data = core::PrepareData(config);
      const data::Dataset discretized =
          perturb::DiscretizeValues(data.train, classes);
      const auto tree_model = tree::TrainDecisionTree(
          discretized, TrainingMode::kOriginal, config.tree);
      const double disc_acc =
          core::EvaluateTree(tree_model, data.test).Accuracy();

      double byclass[2];
      int i = 0;
      for (perturb::NoiseKind kind :
           {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
        core::ExperimentConfig c2 = config;
        c2.noise = kind;
        byclass[i++] =
            core::RunModes(c2, {TrainingMode::kByClass})[0].accuracy;
      }
      const double original =
          core::RunModes(config, {TrainingMode::kOriginal})[0].accuracy;
      std::printf("%-6s %8.0f%% | %13.1f%% %13.1f%% %13.1f%% | %11.1f%%\n",
                  synth::FunctionName(fn).c_str(), bench::Pct(privacy),
                  bench::Pct(disc_acc), bench::Pct(byclass[0]),
                  bench::Pct(byclass[1]), bench::Pct(original));
    }
  }
  std::printf("\nNote: discretization privacy holds at 100%% confidence; "
              "additive noise offers\nits privacy only at 95%% confidence, "
              "so at equal width the discretized column\nis the stricter "
              "guarantee (paper §2 discussion).\n");
  return 0;
}
