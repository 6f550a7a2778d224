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

data::Dataset Randomizer::Perturb(const data::Dataset& dataset) const {
  PPDM_CHECK_EQ(models_.size(), dataset.NumCols());
  data::Dataset out = dataset;  // copy schema, labels and values
  Rng master(seed_);
  // One independent stream per attribute keeps the noise streams decoupled
  // from the number of rows touched by other columns.
  for (std::size_t c = 0; c < out.NumCols(); ++c) {
    Rng rng = master.Fork();
    if (models_[c].kind() == NoiseKind::kNone) continue;
    std::vector<double>* column = out.MutableColumn(c);
    for (double& v : *column) v += models_[c].Sample(&rng);
  }
  return out;
}

data::Dataset Randomizer::Perturb(const data::Dataset& dataset,
                                  engine::ThreadPool* pool,
                                  std::size_t shard_size) const {
  PPDM_CHECK_EQ(models_.size(), dataset.NumCols());
  data::Dataset out = dataset;  // copy schema, labels and values
  const Rng master(seed_);
  const std::vector<engine::ChunkRange> shards =
      engine::MakeChunks(dataset.NumRows(), shard_size);
  const std::size_t num_shards = shards.size();
  // One task per (attribute, shard) cell; each writes a disjoint slice of
  // one column, so tasks are independent and the result is deterministic.
  engine::ParallelFor(
      pool, dataset.NumCols() * num_shards, [&](std::size_t task) {
        const std::size_t c = task / num_shards;
        const std::size_t s = task % num_shards;
        if (models_[c].kind() == NoiseKind::kNone) return;
        Rng rng = master.Fork(task);
        std::vector<double>* column = out.MutableColumn(c);
        for (std::size_t r = shards[s].begin; r < shards[s].end; ++r) {
          (*column)[r] += models_[c].Sample(&rng);
        }
      });
  return out;
}

data::Dataset Randomizer::PerturbForEngine(const data::Dataset& dataset,
                                           const engine::BatchOptions& engine,
                                           engine::ThreadPool* pool) const {
  return engine.num_threads == 0
             ? Perturb(dataset)
             : Perturb(dataset, pool, engine.shard_size);
}

void Randomizer::PerturbRecord(std::vector<double>* record, Rng* rng) const {
  PPDM_CHECK(record != nullptr && rng != nullptr);
  PPDM_CHECK_EQ(record->size(), models_.size());
  for (std::size_t c = 0; c < record->size(); ++c) {
    (*record)[c] += models_[c].Sample(rng);
  }
}

}  // namespace ppdm::perturb
