#include "common/random.h"

#include <cmath>

namespace ppdm {
namespace {

// SplitMix64: expands one 64-bit seed into well-distributed state words.
std::uint64_t SplitMix64(std::uint64_t* x) {
  std::uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
  // All-zero state is the one forbidden fixed point of xoshiro.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::UniformDouble() {
  // Top 53 bits scaled by 2^-53 yields doubles equidistributed in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformReal(double lo, double hi) {
  PPDM_CHECK_LT(lo, hi);
  return lo + (hi - lo) * UniformDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  PPDM_CHECK_LE(lo, hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // Full 64-bit range requested.
    return static_cast<std::int64_t>(Next());
  }
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto low = static_cast<std::uint64_t>(m);
  if (low < span) {
    const std::uint64_t threshold = (0ULL - span) % span;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * span;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Marsaglia polar method: produces two independent N(0,1) per acceptance.
  double u, v, s;
  do {
    u = 2.0 * UniformDouble() - 1.0;
    v = 2.0 * UniformDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::Gaussian(double mean, double stddev) {
  PPDM_CHECK_GE(stddev, 0.0);
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) {
  PPDM_CHECK(p >= 0.0 && p <= 1.0);
  return UniformDouble() < p;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace ppdm
