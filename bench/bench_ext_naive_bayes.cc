// X3 — classifier-agnosticism extension: naive Bayes trained from the
// same per-class reconstructions, vs the decision tree, across privacy
// levels. NB consumes only the reconstructed marginals (no record
// association), so it shows what reconstruction alone supports.

#include <cstdio>

#include "bayes/naive_bayes.h"
#include "bench/bench_util.h"

namespace {

using namespace ppdm;

double Accuracy(const bayes::NaiveBayesModel& model,
                const data::Dataset& test) {
  std::size_t correct = 0;
  for (std::size_t r = 0; r < test.NumRows(); ++r) {
    if (model.Predict(test.Row(r)) == test.Label(r)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.NumRows());
}

}  // namespace

int main() {
  bench::PrintBanner("X3", "naive Bayes over reconstructed distributions");

  std::printf("%-6s %10s | %12s %12s | %12s %12s\n", "fn", "privacy",
              "NB original", "NB recon", "NB raw-pert", "tree ByClass");
  for (synth::Function fn : bench::AllFunctions()) {
    for (double privacy : {0.5, 1.0}) {
      core::ExperimentConfig config = bench::DefaultConfig(fn);
      config.noise = perturb::NoiseKind::kUniform;
      config.privacy_fraction = privacy;
      const core::ExperimentData data = core::PrepareData(config);

      const double nb_original =
          Accuracy(bayes::TrainNaiveBayes(data.train), data.test);
      const double nb_recon = Accuracy(
          bayes::TrainNaiveBayesReconstructed(data.perturbed_train,
                                              data.randomizer),
          data.test);
      const double nb_raw = Accuracy(
          bayes::TrainNaiveBayes(data.perturbed_train), data.test);
      const double tree_byclass =
          core::RunMode(data, tree::TrainingMode::kByClass, config).accuracy;

      std::printf("%-6s %8.0f%% | %11.1f%% %11.1f%% | %11.1f%% %11.1f%%\n",
                  synth::FunctionName(fn).c_str(), bench::Pct(privacy),
                  bench::Pct(nb_original), bench::Pct(nb_recon),
                  bench::Pct(nb_raw), bench::Pct(tree_byclass));
    }
  }
  std::printf("\nExpected shape: reconstructed NB beats NB trained on raw "
              "perturbed values;\nthe reconstruction layer is classifier-"
              "agnostic (paper §7 outlook).\n");
  return 0;
}
