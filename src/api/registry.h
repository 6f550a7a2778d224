// Bounded registry of named dataset sessions — the memory story for a
// long-lived service. A server holding thousands of streaming sessions
// needs an explicit resource bound: the registry accounts every session's
// ApproxMemoryBytes() against a configurable byte budget and evicts
// least-recently-used sessions when the budget is exceeded.
//
// Spill tier: with a SessionSpill backend configured, the registry owns
// every capture in it. Eviction *demotes* a session (its state is
// serialized to the backend before the in-RAM entry is dropped) and
// TryLookup() transparently re-admits it, so hours of accumulated,
// privacy-perturbed evidence survive memory pressure and process
// restarts. Only captures the registry holds are served: those it
// demoted and those AdoptCaptures() took over. A spilled name still
// counts as open: Open() refuses it, Close() drops both tiers. Without a
// backend, eviction destroys the state (the pre-spill behaviour).
//
// Eviction safety: the registry hands out shared_ptr references, so
// evicting (or Close()-ing) a session concurrently with an in-flight
// Ingest()/ReconstructAll() on it is safe — the registry merely drops its
// reference; the session finishes its in-flight calls and is destroyed
// with the last reference. Race-checked under ThreadSanitizer in CI.
// A demotion serializes the state the session holds at demotion time;
// writes made later through still-held shared_ptrs are not captured —
// the same visibility contract plain eviction always had. Serving loops
// that want spill-exactness call TryLookup per batch instead of caching the
// pointer.
//
// Lock order: registry mutex, then (via ApproxMemoryBytes / the spill
// backend's ExportState) a session mutex. Sessions never call back into
// the registry, so the order never inverts. Every spill-tier call runs
// under the registry mutex, so two writes of one capture never
// interleave; re-admission latency serializes lookups, so keep backends
// fast (bench_perf_store measures this path).

#ifndef PPDM_API_REGISTRY_H_
#define PPDM_API_REGISTRY_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/dataset_session.h"
#include "common/status.h"
#include "engine/thread_pool.h"

namespace ppdm::api {

/// Durable capture tier for registry sessions. Implementations (the
/// store subsystem's SessionSpillStore) serialize a session's state on
/// Spill and rebuild an equivalent session on Admit. All methods are
/// called under the registry mutex; implementations need no locking of
/// their own but must not call back into the registry.
class SessionSpill {
 public:
  virtual ~SessionSpill() = default;

  /// Durably captures `session`'s current state under `name`, replacing
  /// any previous capture of that name. Returns the capture's size in
  /// bytes (the registry accounts spilled bytes from it).
  virtual Result<std::uint64_t> Spill(const std::string& name,
                                      const DatasetSession& session) = 0;

  /// Rebuilds the session spilled under `name` over `pool`. The capture
  /// stays put — it remains the name's durable checkpoint until the next
  /// Spill overwrites it or Drop discards it. kNotFound when absent;
  /// decode failures surface as the codec's Status (the capture is
  /// retained for inspection — Close() the name to discard it).
  virtual Result<std::shared_ptr<DatasetSession>> Admit(
      const std::string& name, engine::ThreadPool* pool) = 0;

  /// Every capture the backend holds, by name, with its size in bytes.
  virtual Result<std::map<std::string, std::uint64_t>> List() const = 0;

  /// Discards the capture named `name` (kNotFound when absent).
  virtual Status Drop(const std::string& name) = 0;
};

/// Resource bounds for a SessionRegistry.
struct SessionRegistryOptions {
  /// Total ApproxMemoryBytes() budget across registered sessions; 0 means
  /// unbounded. When an Open pushes the total over the budget, LRU
  /// sessions are evicted until it fits (the session just opened is never
  /// evicted by its own Open, so a single over-budget session still
  /// serves — the budget bounds what the registry *retains*).
  ///
  /// A session larger than the whole budget is handled deterministically
  /// rather than by thrashing: it never causes other (within-budget)
  /// sessions to be evicted, it stays resident only while it is the most
  /// recently touched name, and the first touch of any other name demotes
  /// it (to the spill tier when configured, else destroying it).
  std::size_t max_bytes = 0;

  /// Test hook: the clock the spill backoff (kSpillRetryBackoff) is
  /// measured on. Defaults to std::chrono::steady_clock::now.
  std::function<std::chrono::steady_clock::time_point()> clock;

  /// Borrowed demotion backend (must outlive the registry); null keeps
  /// the destructive-eviction behaviour.
  SessionSpill* spill = nullptr;
};

/// After a failed spill the entry stays resident (degraded, possibly over
/// budget) and demotion is not re-attempted until this long has passed,
/// doubling per consecutive failure. Measured on
/// SessionRegistryOptions::clock.
inline constexpr std::chrono::milliseconds kSpillRetryBackoff{100};

/// Named open/lookup/close of dataset sessions with LRU eviction under a
/// byte budget. All operations are thread-safe.
class SessionRegistry {
 public:
  explicit SessionRegistry(SessionRegistryOptions options,
                           engine::ThreadPool* pool = nullptr);

  /// Validates `spec`, opens a session backed by the registry's pool, and
  /// registers it under `name` (kFailedPrecondition if the name is taken,
  /// in RAM or in the spill tier), first discarding any capture the tier
  /// holds under the name (the backend's Status if that fails). May
  /// evict/demote LRU sessions to make room.
  Result<std::shared_ptr<DatasetSession>> Open(const std::string& name,
                                               const DatasetSessionSpec& spec);

  /// The session registered under `name` (touching its LRU recency). A
  /// session demoted to the spill tier is transparently re-admitted — the
  /// caller cannot tell it ever left RAM beyond the latency; re-admission
  /// may demote other sessions to fit the budget. kNotFound when the name
  /// is absent; the spill backend's Status (and a spill_failures tick)
  /// when a capture exists but cannot be re-admitted (corrupt bytes, I/O
  /// failure). A failed re-admission never corrupts registry state — the
  /// capture stays on disk (Close() discards it), no entry is registered,
  /// and a later TryLookup may succeed if the failure was transient.
  Result<std::shared_ptr<DatasetSession>> TryLookup(const std::string& name);

  /// Drops the registry's reference to `name` — both the in-RAM entry
  /// and any capture of it. Returns false when the name is not open.
  /// In-flight users holding the shared_ptr are unaffected. A capture
  /// whose drop fails stays on disk, never served, until the next Open
  /// of the name drops it.
  bool Close(const std::string& name);

  /// Captures `name`'s current state in the spill tier and returns the
  /// capture's size; a spilled session's capture is already current and
  /// is not rewritten. kNotFound when the name is not open,
  /// kFailedPrecondition without a backend.
  Result<std::uint64_t> Checkpoint(const std::string& name);

  /// Takes over every capture in the spill tier as a spilled session (the
  /// restart path); resident names keep their RAM state.
  Status AdoptCaptures();

  /// Every name open in this registry, sorted: resident in RAM, or held
  /// in the spill tier and not since re-admitted or closed.
  std::vector<std::string> OpenNames() const;

  /// Occupancy, eviction, and spill counters.
  struct Stats {
    std::size_t open_sessions = 0;  ///< Sessions currently resident in RAM.
    std::size_t approx_bytes = 0;   ///< Sum of resident ApproxMemoryBytes().
    std::uint64_t evictions = 0;    ///< Budget evictions (not Close).
    std::uint64_t lookups = 0;      ///< TryLookup() calls.
    std::uint64_t hits = 0;         ///< Lookups served (RAM or re-admitted).
    std::uint64_t misses = 0;       ///< Lookups that found nothing anywhere.
    /// Sessions held only as a spill-tier capture (demoted, or taken over
    /// by AdoptCaptures) and not since re-admitted or closed.
    std::size_t spilled_sessions = 0;
    std::uint64_t spilled_bytes = 0;   ///< Their capture sizes in bytes.
    std::uint64_t spills = 0;          ///< Evictions demoted to the tier.
    std::uint64_t readmissions = 0;    ///< Lookups served from the tier.
    std::uint64_t spill_failures = 0;  ///< Demote/Admit/Drop errors.
    /// Resident sessions whose last demotion attempt failed: retained
    /// (possibly over budget) rather than destroyed, awaiting their
    /// backoff window before the next attempt.
    std::size_t degraded_sessions = 0;
  };
  Stats GetStats() const;

 private:
  struct Entry {
    std::shared_ptr<DatasetSession> session;
    std::uint64_t recency = 0;  ///< Monotone LRU tick of the last touch.
    /// Consecutive failed demotion attempts; nonzero marks the entry
    /// degraded. Reset by a successful spill.
    std::uint32_t spill_failures = 0;
    /// No demotion is re-attempted before this instant (backoff window).
    std::chrono::steady_clock::time_point spill_retry_after{};
  };

  std::chrono::steady_clock::time_point Now() const;
  void TouchLocked(Entry* entry);
  /// Mirrors occupancy into the process metrics registry (obs gauges).
  void UpdateGaugesLocked() const;
  /// Demotes one entry: spills it when a backend is configured, then
  /// drops the in-RAM entry. Returns the iterator past the victim and
  /// sets *demoted accordingly. Graceful degradation: when the spill
  /// backend fails (or the entry's failure-backoff window is still open)
  /// the entry is NOT dropped — it stays resident and possibly over
  /// budget, marked degraded, to be retried after the backoff. Data is
  /// only destroyed when no backend is configured (the pre-spill
  /// destructive-eviction contract).
  std::map<std::string, Entry>::iterator DemoteLocked(
      std::map<std::string, Entry>::iterator victim, bool* demoted);
  /// Demotes entries (never `keep`) until the byte total fits: oversized
  /// entries first (they can never fit), then in LRU order. An oversized
  /// `keep` never triggers demotion of within-budget tenants. When every
  /// candidate victim fails to demote the registry gives up for this call
  /// and stays over budget (degraded) instead of looping or destroying
  /// state.
  void EnforceBudgetLocked(const std::string& keep);
  std::size_t TotalBytesLocked() const;
  bool NameTakenLocked(const std::string& name) const;

  const SessionRegistryOptions options_;
  engine::ThreadPool* const pool_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // guarded by mu_
  /// Capture size per spilled session (the spill share of GetStats).
  /// Guarded by mu_.
  std::map<std::string, std::uint64_t> spilled_;
  std::uint64_t tick_ = 0;                // guarded by mu_
  std::uint64_t evictions_ = 0;           // guarded by mu_
  std::uint64_t lookups_ = 0;             // guarded by mu_
  std::uint64_t hits_ = 0;                // guarded by mu_
  std::uint64_t misses_ = 0;              // guarded by mu_
  std::uint64_t spills_ = 0;              // guarded by mu_
  std::uint64_t readmissions_ = 0;        // guarded by mu_
  std::uint64_t spill_failures_ = 0;      // guarded by mu_
};

}  // namespace ppdm::api

#endif  // PPDM_API_REGISTRY_H_
