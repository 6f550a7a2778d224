// Retry with exponential backoff for transient failures — the policy the
// store's I/O paths (Put/Get, spill demotion, re-admission) run under.
//
// Classification: a Status is *transient* when retrying might succeed
// without anything else changing — kUnavailable (injected-transient
// faults, EAGAIN-shaped conditions) and kIoError (EIO-shaped flaky disk).
// Everything else is *permanent* (bad arguments, corrupt captures,
// kInternal injected-permanent faults, kDataLoss torn writes) and is
// returned immediately: retrying a decode error burns attempts without
// hope, and retrying a torn write could mask real damage.
//
// Schedule: kMaxAttempts attempts, with capped exponential backoff in
// between. The jitter is drawn from a fixed-seed splitmix64 stream keyed
// on the attempt, so every run sleeps the same schedule. Tests inject a
// recording or no-op `sleep`; production code sleeps for real.
//
// Telemetry: every retry bumps ppdm_retry_attempts_total and every
// exhausted policy bumps ppdm_retry_giveups_total, so a scrape shows
// whether the store is riding through faults or giving up.

#ifndef PPDM_COMMON_RETRY_H_
#define PPDM_COMMON_RETRY_H_

#include <chrono>
#include <cstddef>
#include <functional>

#include "common/status.h"

namespace ppdm::retry {

/// True when `status` is worth retrying (kUnavailable or kIoError).
bool IsTransient(const Status& status);

/// Total attempts, including the first.
inline constexpr std::size_t kMaxAttempts = 3;

/// Backoff before retry k (k = 1, 2, ...) is
///   min(kInitialBackoff * 2^(k-1), kMaxBackoff)
/// scaled by a deterministic jitter factor in [0.5, 1.0].
inline constexpr std::chrono::microseconds kInitialBackoff{1000};
inline constexpr std::chrono::microseconds kMaxBackoff{250000};

/// The jittered backoff before retry `attempt` (1-based).
std::chrono::microseconds BackoffFor(std::size_t attempt);

/// How a retry loop waits between attempts.
struct RetryPolicy {
  /// Test hook: replaces std::this_thread::sleep_for when set.
  std::function<void(std::chrono::microseconds)> sleep;
};

namespace internal {

/// Retry telemetry (defined in retry.cc). TouchMetrics registers both
/// counters so they render (as 0) in an exposition even before the first
/// retry — chaos tooling asserts on their presence.
void CountRetry();
void CountGiveup();
void TouchMetrics();

/// Sleeps BackoffFor(attempt) via policy.sleep or the real clock.
void SleepFor(const RetryPolicy& policy, std::size_t attempt);

inline const Status& StatusOf(const Status& status) { return status; }
template <typename T>
Status StatusOf(const Result<T>& result) {
  return result.status();
}

}  // namespace internal

/// Runs `op` (returning Status or Result<T>) up to kMaxAttempts times,
/// sleeping the jittered backoff between transient failures, and
/// returns the last attempt's value. Permanent failures return
/// immediately; an exhausted policy returns the final transient failure
/// (and counts a giveup).
template <typename Fn>
auto Retry(const RetryPolicy& policy, Fn&& op) -> decltype(op()) {
  for (std::size_t attempt = 1;; ++attempt) {
    auto result = op();
    const Status status = internal::StatusOf(result);
    if (status.ok() || !IsTransient(status)) return result;
    if (attempt >= kMaxAttempts) {
      internal::CountGiveup();
      return result;
    }
    internal::CountRetry();
    internal::SleepFor(policy, attempt);
  }
}

}  // namespace ppdm::retry

#endif  // PPDM_COMMON_RETRY_H_
