#include "core/experiment.h"

#include <cstdlib>

#include "common/check.h"

namespace ppdm::core {

perturb::RandomizerOptions NoiseOptions(const ExperimentConfig& config) {
  perturb::RandomizerOptions options;
  options.kind = config.privacy_fraction == 0.0 ? perturb::NoiseKind::kNone
                                                : config.noise;
  options.privacy_fraction = config.privacy_fraction;
  options.confidence = config.confidence;
  options.seed = config.seed + 0x9E1517BULL;
  return options;
}

ExperimentData PrepareData(const ExperimentConfig& config,
                           engine::ThreadPool* pool) {
  synth::GeneratorOptions train_gen;
  train_gen.num_records = config.train_records;
  train_gen.function = config.function;
  train_gen.seed = config.seed;

  synth::GeneratorOptions test_gen = train_gen;
  test_gen.num_records = config.test_records;
  test_gen.seed = config.seed + 0x5EED0FF5E7ULL;  // disjoint stream

  data::Dataset train = synth::Generate(train_gen);
  data::Dataset test = synth::Generate(test_gen);

  perturb::Randomizer randomizer(train.schema(), NoiseOptions(config));

  data::Dataset perturbed = randomizer.Perturb(train, pool);
  return ExperimentData{std::move(train), std::move(perturbed),
                        std::move(test), std::move(randomizer)};
}

ModeResult RunMode(const ExperimentData& data, tree::TrainingMode mode,
                   const ExperimentConfig& config,
                   engine::ThreadPool* pool) {
  const data::Dataset& training = mode == tree::TrainingMode::kOriginal
                                      ? data.train
                                      : data.perturbed_train;
  const perturb::Randomizer* randomizer =
      tree::ModeUsesReconstruction(mode) ? &data.randomizer : nullptr;
  const tree::DecisionTree model =
      tree::TrainDecisionTree(training, mode, config.tree, randomizer, pool);

  ModeResult result;
  result.mode = mode;
  result.accuracy = EvaluateTree(model, data.test).Accuracy();
  result.tree_nodes = model.NumNodes();
  result.tree_depth = model.Depth();
  return result;
}

std::vector<ModeResult> RunModes(
    const ExperimentConfig& config,
    const std::vector<tree::TrainingMode>& modes) {
  // One pool shared by the perturbation and every mode; 0 threads runs
  // everything inline.
  engine::ThreadPool pool(config.num_threads);
  const ExperimentData data = PrepareData(config, &pool);
  std::vector<ModeResult> results;
  results.reserve(modes.size());
  for (tree::TrainingMode mode : modes) {
    results.push_back(RunMode(data, mode, config, &pool));
  }
  return results;
}

bool PaperScaleRequested() {
  const char* env = std::getenv("PPDM_PAPER_SCALE");
  return env != nullptr && env[0] == '1';
}

void ApplyScale(ExperimentConfig* config) {
  PPDM_CHECK(config != nullptr);
  if (PaperScaleRequested()) {
    config->train_records = 100000;
    config->test_records = 5000;
  }
}

}  // namespace ppdm::core
