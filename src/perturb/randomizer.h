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
  /// Each attribute draws from its own noise stream, forked from the seed
  /// in column order, and `pool` (may be null) runs one task per column,
  /// so the output is identical for every pool size.
  data::Dataset Perturb(const data::Dataset& dataset,
                        engine::ThreadPool* pool = nullptr) const;

 private:
  std::vector<NoiseModel> models_;
  std::uint64_t seed_;
};

}  // namespace ppdm::perturb

#endif  // PPDM_PERTURB_RANDOMIZER_H_
