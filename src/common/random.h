// Deterministic pseudo-random number generation.
//
// The generator is a hand-rolled xoshiro256** seeded through SplitMix64.
// Unlike <random>'s distributions, every transformation here is specified by
// this library, so a (seed, call-sequence) pair produces identical streams on
// every platform/compiler — a requirement for reproducible experiments.

#ifndef PPDM_COMMON_RANDOM_H_
#define PPDM_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace ppdm {

/// Deterministic 64-bit PRNG (xoshiro256**, Blackman & Vigna).
///
/// Not cryptographically secure; statistical quality is more than adequate
/// for Monte-Carlo perturbation and synthetic data generation.
class Rng {
 public:
  /// Seeds the four 256 bits of state by iterating SplitMix64 over `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output.
  std::uint64_t Next();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double UniformReal(double lo, double hi);

  /// Uniform integer in the closed range [lo, hi], bias-free (Lemire).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal variate (Marsaglia polar method; internally cached pair).
  double Gaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// True with probability p. Requires 0 <= p <= 1.
  bool Bernoulli(double p);

  /// Uniformly permutes `items` in place (Fisher–Yates).
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    PPDM_CHECK(items != nullptr);
    for (std::size_t i = items->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Derives an independent child generator; used to give each worker /
  /// attribute its own deterministic stream. Advances this generator.
  Rng Fork();

 private:
  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace ppdm

#endif  // PPDM_COMMON_RANDOM_H_
