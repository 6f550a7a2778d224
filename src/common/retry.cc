#include "common/retry.h"

#include <algorithm>
#include <cstdint>
#include <thread>

#include "obs/metrics.h"

namespace ppdm::retry {
namespace {

struct RetryMetrics {
  obs::Counter& attempts;
  obs::Counter& giveups;

  static RetryMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static RetryMetrics* const metrics = new RetryMetrics{
        *registry.GetCounter("ppdm_retry_attempts_total"),
        *registry.GetCounter("ppdm_retry_giveups_total")};
    return *metrics;
  }
};

// splitmix64 on (seed, attempt): stateless, so two calls for the same
// attempt agree.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kJitterSeed = 0x9E3779B97F4A7C15ULL;

}  // namespace

bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIoError;
}

std::chrono::microseconds BackoffFor(std::size_t attempt) {
  if (attempt == 0) attempt = 1;
  const double cap = static_cast<double>(kMaxBackoff.count());
  double backoff = static_cast<double>(kInitialBackoff.count());
  for (std::size_t k = 1; k < attempt && backoff < cap; ++k) backoff *= 2;
  backoff = std::min(backoff, cap);
  // Jitter in [0.5, 1.0]: spreads concurrent retriers without ever
  // shortening the base delay below half.
  const double jitter =
      0.5 + 0.5 * static_cast<double>(Mix(kJitterSeed ^ attempt) >> 11) *
                0x1.0p-53;
  return std::chrono::microseconds(
      static_cast<std::chrono::microseconds::rep>(backoff * jitter));
}

namespace internal {

void CountRetry() { RetryMetrics::Get().attempts.Increment(); }

void CountGiveup() { RetryMetrics::Get().giveups.Increment(); }

void TouchMetrics() { (void)RetryMetrics::Get(); }

void SleepFor(const RetryPolicy& policy, std::size_t attempt) {
  const std::chrono::microseconds backoff = BackoffFor(attempt);
  if (policy.sleep) {
    policy.sleep(backoff);
  } else if (backoff.count() > 0) {
    std::this_thread::sleep_for(backoff);
  }
}

}  // namespace internal
}  // namespace ppdm::retry
