// Information-theoretic privacy metrics — the Agrawal–Aggarwal (PODS '01)
// follow-up quantification, implemented here as the paper's natural
// extension: entropy-based privacy Π(X) = 2^{h(X)}, the fraction of privacy
// surrendered through the perturbed channel, and the information loss of a
// reconstruction.

#ifndef PPDM_CORE_INFOTHEORY_H_
#define PPDM_CORE_INFOTHEORY_H_

#include <vector>

#include "perturb/noise_model.h"
#include "stats/partition.h"

namespace ppdm::core {

/// Shannon entropy (bits) of a discrete mass vector.
double DiscreteEntropyBits(const std::vector<double>& masses);

/// Differential entropy (bits) of the piecewise-constant density implied by
/// interval masses of the given width: h = Σ p_k log2(width / p_k).
double DifferentialEntropyBits(const std::vector<double>& masses,
                               double interval_width);

/// AA'01 privacy measure Π(X) = 2^{h(X)} — the side length of the uniform
/// distribution with the same entropy.
double EntropyPrivacy(const std::vector<double>& masses,
                      double interval_width);

/// Mutual information I(X; W) in bits between the discretized true value
/// (interval of `partition`, distribution `masses`) and the perturbed value
/// W = X + Y binned at the same width over the noise-extended range.
/// I/H(X) is the fraction of the discrete privacy surrendered.
double MutualInformationBits(const std::vector<double>& masses,
                             const stats::Partition& partition,
                             const perturb::NoiseModel& noise);

/// Information loss of a reconstruction: ½ Σ |p_k − q_k| (equals the AA'01
/// ½∫|f−f̂| for piecewise-constant densities on a common partition). 0 is a
/// perfect reconstruction, 1 total failure.
double InformationLoss(const std::vector<double>& truth,
                       const std::vector<double>& estimate);

}  // namespace ppdm::core

#endif  // PPDM_CORE_INFOTHEORY_H_
