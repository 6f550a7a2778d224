// The validation layer of the serving API.
//
// Every layer of the library has its own option struct (RandomizerOptions,
// ReconstructionOptions, TreeOptions, ExperimentConfig), and
// none of them validates anything: a negative privacy fraction or a
// zero-interval partition sails through until a PPDM_CHECK aborts deep in
// the stack — acceptable for a research harness, not for a server fed by
// untrusted requests. The Validate*() helpers let each entry point reject
// exactly the slice of its request it consumes, before any work starts;
// ValidateExperiment covers a whole core::ExperimentConfig. All
// rejections use StatusCode::kInvalidArgument.

#ifndef PPDM_API_SPEC_H_
#define PPDM_API_SPEC_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "perturb/randomizer.h"
#include "reconstruct/reconstructor.h"
#include "tree/trainer.h"

namespace ppdm::api {

/// Rejects invalid noise configuration: a non-finite or negative privacy
/// fraction, a confidence outside (0, 1), kNone with a nonzero fraction, or
/// a perturbing kind with a zero fraction.
Status ValidateNoise(const perturb::RandomizerOptions& options);

/// Rejects a worker thread count beyond any machine this library targets
/// (0, the inline engine, is valid).
Status ValidateThreads(std::size_t num_threads);

/// Rejects invalid tree induction parameters: fewer than 2 intervals (or
/// more than the uint16 interval assignment can index), zero depth,
/// a holdout fraction outside [0, 1), negative gain/leaf thresholds, and
/// invalid EM tuning (zero max_iterations, or a negative / non-finite
/// chi_square_epsilon).
Status ValidateTree(const tree::TreeOptions& options);

/// Rejects an invalid attribute domain: non-finite or empty [lo, hi], or
/// fewer than 2 intervals (zero intervals would divide by zero in the
/// partition; one admits no split).
Status ValidateDomain(double lo, double hi, std::size_t intervals);

/// Validates a full experiment cell: record counts, the noise settings
/// (a perturbing kind with privacy 0 is fine, since core::PrepareData
/// switches to kNone itself), the tree options and the thread count. The
/// one validator of a core::ExperimentConfig; core::PrepareData/RunModes
/// themselves stay unvalidated internals, so new entry points route
/// through it.
Status ValidateExperiment(const core::ExperimentConfig& config);

/// The validated experiment façade: rejects an invalid config or an empty
/// mode list with kInvalidArgument, otherwise runs core::RunModes over one
/// shared prepared dataset and engine pool.
Result<std::vector<core::ModeResult>> RunExperiment(
    const core::ExperimentConfig& config,
    const std::vector<tree::TrainingMode>& modes);

}  // namespace ppdm::api

#endif  // PPDM_API_SPEC_H_
