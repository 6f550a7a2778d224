#include "perturb/randomizer.h"

#include "common/check.h"

namespace ppdm::perturb {

Randomizer::Randomizer(const data::Schema& schema,
                       const RandomizerOptions& options)
    : seed_(options.seed) {
  models_.reserve(schema.NumFields());
  for (std::size_t c = 0; c < schema.NumFields(); ++c) {
    if (options.privacy_fraction == 0.0) {
      models_.push_back(NoiseModel::None());
    } else {
      models_.push_back(NoiseForPrivacy(options.kind,
                                        options.privacy_fraction,
                                        schema.Field(c).Range(),
                                        options.confidence));
    }
  }
}

Randomizer::Randomizer(const data::Schema& schema,
                       std::vector<NoiseModel> models, std::uint64_t seed)
    : models_(std::move(models)), seed_(seed) {
  PPDM_CHECK_EQ(models_.size(), schema.NumFields());
}

const NoiseModel& Randomizer::ModelFor(std::size_t col) const {
  PPDM_CHECK_LT(col, models_.size());
  return models_[col];
}

data::Dataset Randomizer::Perturb(const data::Dataset& dataset,
                                  engine::ThreadPool* pool) const {
  PPDM_CHECK_EQ(models_.size(), dataset.NumCols());
  data::Dataset out = dataset;  // copy schema, labels and values
  // One independent stream per attribute, forked in column order before
  // any task runs (a kNone column still takes its fork), keeps each
  // column's draws decoupled from the other columns and from the pool.
  Rng master(seed_);
  std::vector<Rng> streams;
  streams.reserve(out.NumCols());
  for (std::size_t c = 0; c < out.NumCols(); ++c) {
    streams.push_back(master.Fork());
  }
  engine::ParallelFor(pool, out.NumCols(), [&](std::size_t c) {
    if (models_[c].kind() == NoiseKind::kNone) return;
    Rng rng = streams[c];  // a task-local copy: no shared cache lines
    std::vector<double>* column = out.MutableColumn(c);
    for (double& v : *column) v += models_[c].Sample(&rng);
  });
  return out;
}

}  // namespace ppdm::perturb
