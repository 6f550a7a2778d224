// Scenario: a vendor must decide which training mode to deploy for a
// privacy-preserving classifier. This example trains all five algorithms
// on the same perturbed data (Fn4: education level selects the salary
// band), prints their trees' shapes and accuracy, and shows one decision
// tree so the learned structure is inspectable.
//
// The experiment cell is a core::ExperimentConfig checked by
// api::ValidateExperiment; one 4-thread engine::ThreadPool fans out the
// per-attribute (and Local's per-node) reconstructions without changing
// a single output bit.

#include <cstdio>

#include "api/spec.h"
#include "core/experiment.h"
#include "engine/thread_pool.h"

int main() {
  using namespace ppdm;
  using tree::TrainingMode;

  core::ExperimentConfig config;
  config.function = synth::Function::kF4;
  config.train_records = 20000;
  config.test_records = 5000;
  config.noise = perturb::NoiseKind::kGaussian;
  config.privacy_fraction = 1.0;
  config.num_threads = 4;
  if (Status s = api::ValidateExperiment(config); !s.ok()) {
    std::fprintf(stderr, "invalid config: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("Fn4, Gaussian noise @100%% privacy, %zu training records, "
              "%zu engine threads\n\n",
              config.train_records, config.num_threads);
  engine::ThreadPool pool(config.num_threads);
  const core::ExperimentData data = core::PrepareData(config, &pool);

  std::printf("%-11s %10s %8s %8s\n", "algorithm", "accuracy", "nodes",
              "depth");
  for (TrainingMode mode :
       {TrainingMode::kOriginal, TrainingMode::kRandomized,
        TrainingMode::kGlobal, TrainingMode::kByClass, TrainingMode::kLocal}) {
    const core::ModeResult r = core::RunMode(data, mode, config, &pool);
    std::printf("%-11s %9.1f%% %8zu %8zu\n",
                tree::TrainingModeName(mode).c_str(), 100.0 * r.accuracy,
                r.tree_nodes, r.tree_depth);
  }

  // Show the structure ByClass actually learned. The true concept tests
  // age bands, then an elevel-dependent salary band.
  const tree::DecisionTree model = tree::TrainDecisionTree(
      data.perturbed_train, TrainingMode::kByClass, config.tree,
      &data.randomizer, &pool);
  std::printf("\nByClass tree (grown deep, then pruned):\n%s",
              model.Describe(data.train.schema()).c_str());
  return 0;
}
