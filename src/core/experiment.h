// End-to-end experiment driver: generate → perturb → train → evaluate.
// This is the public API the examples and every figure/table bench use, so
// that the reported numbers all come from exactly one code path.
// ExperimentConfig is the one description of an experiment cell,
// api::ValidateExperiment its validator and RunModes its entry point.

#ifndef PPDM_CORE_EXPERIMENT_H_
#define PPDM_CORE_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "data/dataset.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "synth/generator.h"
#include "tree/trainer.h"

namespace ppdm::core {

/// Everything that defines one experimental cell of the paper's evaluation.
struct ExperimentConfig {
  synth::Function function = synth::Function::kF1;
  std::size_t train_records = 20000;
  std::size_t test_records = 5000;

  perturb::NoiseKind noise = perturb::NoiseKind::kUniform;
  /// Target privacy as a fraction of each attribute's range at
  /// `confidence` (1.0 == the paper's "100% privacy").
  double privacy_fraction = 1.0;
  double confidence = 0.95;

  tree::TreeOptions tree;
  std::uint64_t seed = 1;

  /// Worker threads of the parallel engine; 0 (the default) runs every
  /// primitive inline. Perturbation, reconstruction and tree training are
  /// bit-identical at every thread count.
  std::size_t num_threads = 0;
};

/// Result of training one mode within an experiment.
struct ModeResult {
  tree::TrainingMode mode = tree::TrainingMode::kOriginal;
  double accuracy = 0.0;
  std::size_t tree_nodes = 0;
  std::size_t tree_depth = 0;
};

/// The noise settings PrepareData perturbs the training data with. A
/// privacy fraction of 0 selects kNone whatever `config.noise` says.
perturb::RandomizerOptions NoiseOptions(const ExperimentConfig& config);

/// The datasets of one experimental cell, generated deterministically from
/// the config's seed: training data, its perturbed counterpart, and
/// unperturbed test data.
struct ExperimentData {
  data::Dataset train;
  data::Dataset perturbed_train;
  data::Dataset test;
  perturb::Randomizer randomizer;
};

/// Materializes the datasets for a config. Every mode evaluated against the
/// same config sees identical data and identical noise draws, so mode
/// comparisons are paired. `pool` (may be null) runs the perturbation's
/// per-column tasks, so the data are identical for every pool.
ExperimentData PrepareData(const ExperimentConfig& config,
                           engine::ThreadPool* pool = nullptr);

/// Trains and evaluates one mode on prepared data. `pool` (may be null)
/// fans the trainer's per-attribute reconstructions out; the result is
/// bit-identical for every pool size.
ModeResult RunMode(const ExperimentData& data, tree::TrainingMode mode,
                   const ExperimentConfig& config,
                   engine::ThreadPool* pool = nullptr);

/// Trains and evaluates several modes on one shared prepared dataset, over
/// one pool of config.num_threads workers.
std::vector<ModeResult> RunModes(const ExperimentConfig& config,
                                 const std::vector<tree::TrainingMode>& modes);

/// True when the environment requests the paper's full data scale
/// (PPDM_PAPER_SCALE=1: 100k training / 5k test records).
bool PaperScaleRequested();

/// Applies PaperScaleRequested() to a config's record counts.
void ApplyScale(ExperimentConfig* config);

}  // namespace ppdm::core

#endif  // PPDM_CORE_EXPERIMENT_H_
