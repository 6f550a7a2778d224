// The validation layer of the serving API.
//
// Every layer of the library has its own option struct (RandomizerOptions,
// TreeOptions, ExperimentConfig), and none of them validates anything: a
// negative privacy fraction or a zero-interval partition sails through
// until a PPDM_CHECK aborts deep in the stack — acceptable for a research
// harness, not for a server fed by untrusted requests. The Validate*()
// helpers let each entry point reject exactly the slice of its request it
// consumes, before any work starts; ValidateExperiment covers a whole
// core::ExperimentConfig. All rejections use StatusCode::kInvalidArgument.

#ifndef PPDM_API_SPEC_H_
#define PPDM_API_SPEC_H_

#include <cstddef>

#include "common/status.h"
#include "core/experiment.h"
#include "perturb/randomizer.h"
#include "tree/trainer.h"

namespace ppdm::api {

/// Rejects invalid noise configuration: a non-finite or negative privacy
/// fraction, a confidence outside (0, 1) or so close to 1 that the normal
/// quantile at (1 + confidence) / 2 is infinite, kNone with a nonzero
/// fraction, or a perturbing kind with a zero fraction.
Status ValidateNoise(const perturb::RandomizerOptions& options);

/// Rejects a worker thread count beyond any machine this library targets
/// (0, the inline engine, is valid).
Status ValidateThreads(std::size_t num_threads);

/// Rejects an interval count the tree cannot train with: fewer than 2
/// (reconstruction needs a partition, splits need a boundary) or more than
/// the uint16 interval assignment can index.
Status ValidateTree(const tree::TreeOptions& options);

/// Rejects an invalid attribute domain: non-finite or empty [lo, hi] (or
/// one whose width overflows), or fewer than 2 intervals (zero intervals
/// would divide by zero in the partition; one admits no split).
Status ValidateDomain(double lo, double hi, std::size_t intervals);

/// Validates a full experiment cell: record counts, the noise settings
/// core::PrepareData derives (core::NoiseOptions, so a perturbing kind
/// with privacy 0 is fine), the tree options and the thread count. The
/// one validator of a core::ExperimentConfig; core::PrepareData/RunModes
/// themselves stay unvalidated internals, so every caller runs it first.
Status ValidateExperiment(const core::ExperimentConfig& config);

}  // namespace ppdm::api

#endif  // PPDM_API_SPEC_H_
