#include "api/attribute_state.h"

#include <utility>

namespace ppdm::api {

AttributeState::AttributeState(double lo, double hi, std::size_t intervals,
                               perturb::NoiseModel model)
    : partition_(lo, hi, intervals),
      reconstructor_(std::move(model), reconstruct::ReconstructionOptions{}),
      layout_(reconstructor_.PerturbedBinning(partition_)),
      stats_(layout_.bins()) {}

void AttributeState::set_last_masses(std::vector<double> masses) {
  last_masses_ = std::move(masses);
}

void AttributeState::RestoreAccumulation(engine::ShardStats stats,
                                         std::vector<double> masses) {
  stats_ = std::move(stats);
  last_masses_ = std::move(masses);
}

std::size_t AttributeState::ApproxHeapBytes() const {
  return stats_.ApproxHeapBytes() +
         layout_.bins() * sizeof(std::size_t) +  // histogram counts
         last_masses_.capacity() * sizeof(double);
}

}  // namespace ppdm::api
