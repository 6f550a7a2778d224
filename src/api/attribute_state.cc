#include "api/attribute_state.h"

#include <utility>

#include "obs/metrics.h"

namespace ppdm::api {
namespace {

// Kernel-cache effectiveness: hits skip the O(wbins + K) table rebuild on a
// warm-start refresh, builds paid for it (first fit or layout change).
obs::Counter& KernelCacheHitsCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_kernel_cache_hits_total");
  return counter;
}

obs::Counter& KernelCacheBuildsCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_kernel_cache_builds_total");
  return counter;
}

}  // namespace

AttributeState::AttributeState(double lo, double hi, std::size_t intervals,
                               perturb::NoiseModel model)
    : partition_(lo, hi, intervals),
      reconstructor_(std::move(model), reconstruct::ReconstructionOptions{}),
      layout_(reconstructor_.PerturbedBinning(partition_)),
      stats_(layout_.bins(), /*num_classes=*/1) {}

void AttributeState::set_last_masses(std::vector<double> masses) {
  last_masses_ = std::move(masses);
}

void AttributeState::RestoreAccumulation(engine::ShardStats stats,
                                         std::vector<double> masses) {
  stats_ = std::move(stats);
  last_masses_ = std::move(masses);
}

std::shared_ptr<const reconstruct::KernelTable>
AttributeState::ResolveKernelTable(
    std::shared_ptr<const reconstruct::KernelTable> cached) const {
  if (cached != nullptr &&
      cached->Matches(noise_model(), partition_, layout_)) {
    KernelCacheHitsCounter().Increment();
    return cached;
  }
  KernelCacheBuildsCounter().Increment();
  return std::make_shared<const reconstruct::KernelTable>(
      reconstructor_.BuildKernelTable(partition_));
}

std::size_t AttributeState::ApproxHeapBytes() const {
  return stats_.ApproxHeapBytes() +
         layout_.bins() * sizeof(std::size_t) +  // histogram counts
         last_masses_.capacity() * sizeof(double);
}

}  // namespace ppdm::api
