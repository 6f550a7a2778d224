#include "reconstruct/by_class.h"

#include "common/check.h"
#include "engine/thread_pool.h"

namespace ppdm::reconstruct {
namespace {

// Splits attribute `col` into per-class value vectors (entry c holds the
// column values of records labelled c) — the fan-out's shared input.
std::vector<std::vector<double>> SplitColumnByClass(
    const data::Dataset& perturbed, std::size_t col) {
  std::vector<std::vector<double>> values(
      static_cast<std::size_t>(perturbed.num_classes()));
  const std::vector<double>& column = perturbed.Column(col);
  for (std::size_t r = 0; r < perturbed.NumRows(); ++r) {
    values[static_cast<std::size_t>(perturbed.Label(r))].push_back(column[r]);
  }
  return values;
}

}  // namespace

std::vector<Reconstruction> ReconstructByClass(
    const data::Dataset& perturbed, std::size_t col,
    const Partition& partition, const BayesReconstructor& reconstructor,
    engine::ThreadPool* pool) {
  const std::vector<std::vector<double>> values =
      SplitColumnByClass(perturbed, col);
  std::vector<Reconstruction> out(values.size());
  // One task per class; each fit runs inline on its worker and writes its
  // own slot, so the fan-out cannot perturb any output bit.
  engine::ParallelFor(pool, values.size(), [&](std::size_t c) {
    out[c] = reconstructor.Fit(values[c], partition);
  });
  return out;
}

}  // namespace ppdm::reconstruct
