#include "api/spec.h"

#include <cmath>
#include <limits>

#include "common/strings.h"

namespace ppdm::api {
namespace {

// Any thread count past this is a typo, not a machine.
constexpr std::size_t kMaxThreads = 4096;

bool Finite(double v) { return std::isfinite(v); }

}  // namespace

Status ValidateNoise(const perturb::RandomizerOptions& options) {
  if (!Finite(options.privacy_fraction) || options.privacy_fraction < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "privacy_fraction must be finite and >= 0, got %g",
        options.privacy_fraction));
  }
  if (!Finite(options.confidence) || options.confidence <= 0.0 ||
      options.confidence >= 1.0) {
    return Status::InvalidArgument(StrFormat(
        "confidence must lie in (0, 1), got %g", options.confidence));
  }
  if (options.kind == perturb::NoiseKind::kNone &&
      options.privacy_fraction != 0.0) {
    return Status::InvalidArgument(
        "noise kind 'none' offers no privacy; privacy_fraction must be 0");
  }
  if (options.kind != perturb::NoiseKind::kNone &&
      options.privacy_fraction == 0.0) {
    return Status::InvalidArgument(
        "privacy_fraction 0 requires noise kind 'none'");
  }
  return Status::Ok();
}

Status ValidateThreads(std::size_t num_threads) {
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(StrFormat(
        "num_threads %zu exceeds the supported maximum %zu", num_threads,
        kMaxThreads));
  }
  return Status::Ok();
}

Status ValidateTree(const tree::TreeOptions& options) {
  if (options.intervals < 2) {
    return Status::InvalidArgument(StrFormat(
        "intervals must be >= 2 (reconstruction needs a partition, splits "
        "need a boundary), got %zu", options.intervals));
  }
  if (options.intervals > std::numeric_limits<std::uint16_t>::max()) {
    return Status::InvalidArgument(StrFormat(
        "intervals must fit the uint16 interval index, got %zu",
        options.intervals));
  }
  if (options.max_depth == 0) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (!Finite(options.min_leaf_records) || options.min_leaf_records < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "min_leaf_records must be finite and >= 0, got %g",
        options.min_leaf_records));
  }
  if (!Finite(options.min_gain) || options.min_gain < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "min_gain must be finite and >= 0, got %g", options.min_gain));
  }
  if (!Finite(options.holdout_fraction) || options.holdout_fraction < 0.0 ||
      options.holdout_fraction >= 1.0) {
    return Status::InvalidArgument(StrFormat(
        "holdout_fraction must lie in [0, 1), got %g",
        options.holdout_fraction));
  }
  if (!Finite(options.pruning_z) || options.pruning_z < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "pruning_z must be finite and >= 0, got %g", options.pruning_z));
  }
  const reconstruct::ReconstructionOptions& em = options.reconstruction;
  if (em.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (!Finite(em.chi_square_epsilon) || em.chi_square_epsilon < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "chi_square_epsilon must be finite and >= 0, got %g",
        em.chi_square_epsilon));
  }
  return Status::Ok();
}

Status ValidateDomain(double lo, double hi, std::size_t intervals) {
  if (!Finite(lo) || !Finite(hi) || lo >= hi) {
    return Status::InvalidArgument(StrFormat(
        "domain [%g, %g] must be a finite non-empty interval", lo, hi));
  }
  if (intervals < 2) {
    return Status::InvalidArgument(StrFormat(
        "intervals must be >= 2, got %zu", intervals));
  }
  return Status::Ok();
}

Status ValidateExperiment(const core::ExperimentConfig& config) {
  if (config.train_records == 0) {
    return Status::InvalidArgument("train_records must be >= 1");
  }
  if (config.test_records == 0) {
    return Status::InvalidArgument("test_records must be >= 1");
  }
  // The experiment driver switches to kNone itself when the fraction is 0,
  // so unlike ValidateNoise a perturbing kind with fraction 0 is fine here.
  if (!Finite(config.privacy_fraction) || config.privacy_fraction < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "privacy_fraction must be finite and >= 0, got %g",
        config.privacy_fraction));
  }
  if (config.noise == perturb::NoiseKind::kNone &&
      config.privacy_fraction != 0.0) {
    return Status::InvalidArgument(
        "noise kind 'none' offers no privacy; privacy_fraction must be 0");
  }
  if (!Finite(config.confidence) || config.confidence <= 0.0 ||
      config.confidence >= 1.0) {
    return Status::InvalidArgument(StrFormat(
        "confidence must lie in (0, 1), got %g", config.confidence));
  }
  PPDM_RETURN_IF_ERROR(ValidateTree(config.tree));
  return ValidateThreads(config.num_threads);
}

Result<std::vector<core::ModeResult>> RunExperiment(
    const core::ExperimentConfig& config,
    const std::vector<tree::TrainingMode>& modes) {
  PPDM_RETURN_IF_ERROR(ValidateExperiment(config));
  if (modes.empty()) {
    return Status::InvalidArgument("at least one training mode is required");
  }
  return core::RunModes(config, modes);
}

}  // namespace ppdm::api
