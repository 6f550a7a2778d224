// Dataset-level perturbation: what the union of data providers sends to the
// server. Each attribute gets its own noise model scaled to its range so
// that every attribute enjoys the same privacy percentage.

#ifndef PPDM_PERTURB_RANDOMIZER_H_
#define PPDM_PERTURB_RANDOMIZER_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "engine/thread_pool.h"
#include "perturb/noise_model.h"

namespace ppdm::perturb {

/// Perturbation configuration for a whole dataset.
struct RandomizerOptions {
  NoiseKind kind = NoiseKind::kUniform;
  /// Target privacy as a fraction of each attribute's range (1.0 = the
  /// paper's "100% privacy").
  double privacy_fraction = 1.0;
  /// Confidence level at which the privacy is quantified.
  double confidence = 0.95;
  std::uint64_t seed = 7;
};

/// Applies independent additive noise per attribute per record.
class Randomizer {
 public:
  /// Builds per-attribute noise models from the schema ranges.
  Randomizer(const data::Schema& schema, const RandomizerOptions& options);

  /// Explicit per-attribute models (sizes must match the schema).
  Randomizer(const data::Schema& schema, std::vector<NoiseModel> models,
             std::uint64_t seed);

  /// The noise model applied to attribute `col`.
  const NoiseModel& ModelFor(std::size_t col) const;

  /// Returns a perturbed copy; labels are never perturbed (paper setting).
  /// Sequential layout: one noise stream per attribute.
  data::Dataset Perturb(const data::Dataset& dataset) const;

  /// Sharded perturbation: rows are cut into shards of `shard_size`
  /// (0 = one shard) and each (attribute, shard) cell draws from its own
  /// stream, derived via Rng::Fork(stream_index) so no two cells ever share
  /// one. Output depends only on (seed, shard_size) — identical for every
  /// pool size — but differs from the sequential overload's stream layout.
  /// The two layouts stay distinct on purpose: they are different samples
  /// of the same noise, and the experiment suites' accuracy bounds are
  /// pinned on the sequential one's draws (routing it through the sharded
  /// streams dropped integration_test's Fn5 by-class accuracy to 0.9085,
  /// below its 0.915 bound).
  data::Dataset Perturb(const data::Dataset& dataset,
                        engine::ThreadPool* pool,
                        std::size_t shard_size) const;

  /// The noise-stream layout rule of every offline job: the sequential
  /// layout when `engine.num_threads == 0`, the sharded one at
  /// `engine.shard_size` records per shard (run over `pool`) otherwise.
  /// So the output is the same at every positive thread count, and the
  /// default sequential configuration keeps the per-attribute streams.
  data::Dataset PerturbForEngine(const data::Dataset& dataset,
                                 const engine::BatchOptions& engine,
                                 engine::ThreadPool* pool) const;

  /// Perturbs a single record in place (the data-provider side).
  void PerturbRecord(std::vector<double>* record, Rng* rng) const;

 private:
  std::vector<NoiseModel> models_;
  std::uint64_t seed_;
};

}  // namespace ppdm::perturb

#endif  // PPDM_PERTURB_RANDOMIZER_H_
