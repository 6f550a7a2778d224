// Dataset-level reconstruction helper: the per-class reconstructions that
// drive the ByClass / Local tree algorithms. (Global reconstructs a whole
// column, which is one BayesReconstructor::Fit.)

#ifndef PPDM_RECONSTRUCT_BY_CLASS_H_
#define PPDM_RECONSTRUCT_BY_CLASS_H_

#include <vector>

#include "data/dataset.h"
#include "engine/thread_pool.h"
#include "reconstruct/reconstructor.h"

namespace ppdm::reconstruct {

/// Reconstructs attribute `col` separately for each class; entry c of the
/// result is the estimate of f(X | class = c) (paper's ByClass strategy).
/// Each class's EM runs as one task over `pool`, writing its own slot, so
/// the result is bit-identical for any pool size (nullptr runs inline).
std::vector<Reconstruction> ReconstructByClass(
    const data::Dataset& perturbed, std::size_t col,
    const stats::Partition& partition, const BayesReconstructor& reconstructor,
    engine::ThreadPool* pool = nullptr);

}  // namespace ppdm::reconstruct

#endif  // PPDM_RECONSTRUCT_BY_CLASS_H_
