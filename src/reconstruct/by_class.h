// Dataset-level reconstruction helpers: the per-class reconstructions that
// drive the ByClass / Local tree algorithms and the combined reconstruction
// used by Global.

#ifndef PPDM_RECONSTRUCT_BY_CLASS_H_
#define PPDM_RECONSTRUCT_BY_CLASS_H_

#include <vector>

#include "data/dataset.h"
#include "reconstruct/reconstructor.h"

namespace ppdm::reconstruct {

/// Reconstructs attribute `col` of the (perturbed) dataset over all
/// records, ignoring class labels (paper's Global strategy).
Reconstruction ReconstructCombined(const data::Dataset& perturbed,
                                   std::size_t col,
                                   const Partition& partition,
                                   const BayesReconstructor& reconstructor);

/// Reconstructs attribute `col` separately for each class; entry c of the
/// result is the estimate of f(X | class = c) (paper's ByClass strategy).
std::vector<Reconstruction> ReconstructByClass(
    const data::Dataset& perturbed, std::size_t col,
    const Partition& partition, const BayesReconstructor& reconstructor);

/// Per-class fan-out of ReconstructByClass over a pool: each class's EM runs
/// as one independent task writing its own slot, so the result is
/// bit-identical to ReconstructByClass for any pool size (nullptr runs
/// inline).
std::vector<Reconstruction> ReconstructByClassParallel(
    const data::Dataset& perturbed, std::size_t col,
    const Partition& partition, const BayesReconstructor& reconstructor,
    engine::ThreadPool* pool);

}  // namespace ppdm::reconstruct

#endif  // PPDM_RECONSTRUCT_BY_CLASS_H_
