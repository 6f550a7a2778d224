#include "api/spec.h"

#include <cmath>
#include <cstdint>
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
  // The Gaussian calibration takes the normal quantile at (1 + c) / 2,
  // which rounds to 1 (an infinite quantile) for c within 2^-53 of 1.
  if (!Finite(options.confidence) || options.confidence <= 0.0 ||
      0.5 * (1.0 + options.confidence) >= 1.0) {
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
  return Status::Ok();
}

Status ValidateDomain(double lo, double hi, std::size_t intervals) {
  if (!Finite(lo) || !Finite(hi) || !Finite(hi - lo) || lo >= hi) {
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
  PPDM_RETURN_IF_ERROR(ValidateNoise(core::NoiseOptions(config)));
  PPDM_RETURN_IF_ERROR(ValidateTree(config.tree));
  return ValidateThreads(config.num_threads);
}

}  // namespace ppdm::api
