#include "api/registry.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "obs/metrics.h"

namespace ppdm::api {
namespace {

// Registry telemetry, mirrored from the mutex-guarded counters so an
// exposition scrape never takes the registry lock. Process-wide across
// registries (a server runs one).
struct RegistryMetrics {
  obs::Counter& lookups;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& spills;
  obs::Counter& readmissions;
  obs::Counter& spill_failures;
  obs::Gauge& open_sessions;
  obs::Gauge& spilled_sessions;

  static RegistryMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static RegistryMetrics* const metrics = new RegistryMetrics{
        *registry.GetCounter("ppdm_registry_lookups_total"),
        *registry.GetCounter("ppdm_registry_hits_total"),
        *registry.GetCounter("ppdm_registry_misses_total"),
        *registry.GetCounter("ppdm_registry_evictions_total"),
        *registry.GetCounter("ppdm_registry_spills_total"),
        *registry.GetCounter("ppdm_registry_readmissions_total"),
        *registry.GetCounter("ppdm_registry_spill_failures_total"),
        *registry.GetGauge("ppdm_registry_open_sessions"),
        *registry.GetGauge("ppdm_registry_spilled_sessions")};
    return *metrics;
  }
};

// Fails a demotion before any bytes are encoded: the registry must keep
// the session resident. Checkpoints do not fire it.
fault::FaultPoint& DemoteFault() {
  static fault::FaultPoint& point = fault::Point("spill.demote");
  return point;
}

obs::Histogram& AdmitSecondsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_registry_readmit_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

}  // namespace

SessionRegistry::SessionRegistry(SessionRegistryOptions options,
                                 engine::ThreadPool* pool)
    : options_(std::move(options)), pool_(pool) {}

std::chrono::steady_clock::time_point SessionRegistry::Now() const {
  return options_.clock ? options_.clock()
                        : std::chrono::steady_clock::now();
}

void SessionRegistry::TouchLocked(Entry* entry) {
  entry->recency = ++tick_;
}

std::map<std::string, SessionRegistry::Entry>::iterator
SessionRegistry::DemoteLocked(
    std::map<std::string, Entry>::iterator victim, bool* demoted) {
  *demoted = false;
  if (options_.spill != nullptr) {
    Entry& entry = victim->second;
    // A degraded entry inside its backoff window is not even attempted —
    // hammering a failing backend from every touch would serialize the
    // registry behind hopeless I/O.
    if (entry.spill_failures > 0 && Now() < entry.spill_retry_after) {
      return std::next(victim);
    }
    const Status injected = DemoteFault().Fire();
    const Result<std::uint64_t> spilled =
        injected.ok()
            ? options_.spill->Spill(victim->first, *victim->second.session)
            : Result<std::uint64_t>(injected);
    if (!spilled.ok()) {
      // Graceful degradation: keep the session resident (over budget if
      // need be) rather than destroy evidence the backend failed to
      // capture. Mark it and double the backoff; the next touch past the
      // window retries. A previous capture of the name, if any, stays
      // accounted — still on disk, still re-admittable.
      ++spill_failures_;
      RegistryMetrics::Get().spill_failures.Increment();
      auto backoff = kSpillRetryBackoff;
      for (std::uint32_t k = 0; k < entry.spill_failures && k < 16; ++k) {
        backoff *= 2;
      }
      ++entry.spill_failures;
      entry.spill_retry_after = Now() + backoff;
      return std::next(victim);
    }
    ++spills_;
    RegistryMetrics::Get().spills.Increment();
    spilled_[victim->first] = spilled.value();
  }
  ++evictions_;
  RegistryMetrics::Get().evictions.Increment();
  *demoted = true;
  return entries_.erase(victim);
}

std::size_t SessionRegistry::TotalBytesLocked() const {
  std::size_t total = 0;
  for (const auto& [name, entry] : entries_) {
    total += entry.session->ApproxMemoryBytes();
  }
  return total;
}

bool SessionRegistry::NameTakenLocked(const std::string& name) const {
  return entries_.count(name) != 0 || spilled_.count(name) != 0;
}

void SessionRegistry::EnforceBudgetLocked(const std::string& keep) {
  if (options_.max_bytes == 0) return;

  // Pass 1: an entry that alone exceeds the whole budget can never be
  // retained once any other name is touched — demote oversized entries
  // up front so they don't flush within-budget tenants in pass 2.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first != keep &&
        it->second.session->ApproxMemoryBytes() > options_.max_bytes) {
      bool demoted = false;
      it = DemoteLocked(it, &demoted);
    } else {
      ++it;
    }
  }

  // Pass 2: LRU demotion down to the budget. When `keep` itself exceeds
  // the budget the target is unreachable, so charge the other tenants as
  // if keep were absent rather than flushing them all; keep stays
  // resident only until the next touch of another name demotes it in
  // pass 1 above. Deterministic: no thrash, and the transient overage is
  // visible in Stats::approx_bytes.
  const auto keep_it = entries_.find(keep);
  const bool keep_oversized =
      keep_it != entries_.end() &&
      keep_it->second.session->ApproxMemoryBytes() > options_.max_bytes;
  // Names whose demotion failed (or is inside its backoff window) this
  // call: skipped as victims so a failing spill backend degrades to
  // "over budget, all data retained" instead of an infinite loop.
  std::set<std::string> attempted;
  while (true) {
    std::size_t charged = 0;
    for (const auto& [name, entry] : entries_) {
      if (keep_oversized && name == keep) continue;
      charged += entry.session->ApproxMemoryBytes();
    }
    if (charged <= options_.max_bytes) return;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep || attempted.count(it->first) != 0) continue;
      if (victim == entries_.end() ||
          it->second.recency < victim->second.recency) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // no demotable victim left
    bool demoted = false;
    const std::string victim_name = victim->first;
    DemoteLocked(victim, &demoted);
    if (!demoted) attempted.insert(victim_name);
  }
}

Result<std::shared_ptr<DatasetSession>> SessionRegistry::Open(
    const std::string& name, const DatasetSessionSpec& spec) {
  // Refuse a taken name before paying for session construction (states,
  // layouts, counts). The name is re-checked under the same lock at
  // insertion in case a racing Open claimed it in between.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (NameTakenLocked(name)) {
      return Status::FailedPrecondition("session '" + name +
                                        "' is already open");
    }
  }
  PPDM_ASSIGN_OR_RETURN(std::unique_ptr<DatasetSession> session,
                        DatasetSession::Open(spec, pool_));
  std::shared_ptr<DatasetSession> shared = std::move(session);

  std::lock_guard<std::mutex> lock(mu_);
  if (NameTakenLocked(name)) {
    return Status::FailedPrecondition("session '" + name +
                                      "' is already open");
  }
  if (options_.spill != nullptr) {
    // A capture this registry does not hold (a previous process's, not
    // handed over) is stale: the fresh open supersedes it.
    const Status dropped = options_.spill->Drop(name);
    if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
      return dropped;
    }
  }
  Entry& entry = entries_[name];
  entry.session = shared;
  TouchLocked(&entry);
  EnforceBudgetLocked(name);
  UpdateGaugesLocked();
  return shared;
}

Result<std::shared_ptr<DatasetSession>> SessionRegistry::TryLookup(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  RegistryMetrics::Get().lookups.Increment();
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    ++hits_;
    RegistryMetrics::Get().hits.Increment();
    TouchLocked(&it->second);
    std::shared_ptr<DatasetSession> session = it->second.session;
    // Re-enforce on every touch: sessions grow through Ingest between
    // touches, and an oversized session resident since its own Open is
    // demoted by the first touch of any other name (see
    // SessionRegistryOptions::max_bytes). This rescans every entry's
    // ApproxMemoryBytes (a session-mutex hop each) — fine at the session
    // counts served today; a cached byte total is the ROADMAP follow-up
    // before registries grow to thousands of tenants.
    EnforceBudgetLocked(name);
    UpdateGaugesLocked();
    return session;
  }
  // Transparent re-admission from the spill tier.
  if (spilled_.count(name) != 0) {
    obs::ScopedTimer admit_timer(&AdmitSecondsHistogram());
    Result<std::shared_ptr<DatasetSession>> admitted =
        options_.spill->Admit(name, pool_);
    if (!admitted.ok()) {
      // Corrupt or unreadable capture: count the failure, keep the bytes
      // for inspection (Close() discards them), and surface the backend's
      // Status untouched. Registry state is unchanged — no entry was
      // registered, so a transient failure can succeed on retry.
      ++spill_failures_;
      ++misses_;
      RegistryMetrics::Get().spill_failures.Increment();
      RegistryMetrics::Get().misses.Increment();
      return admitted.status();
    }
    ++readmissions_;
    ++hits_;
    RegistryMetrics::Get().readmissions.Increment();
    RegistryMetrics::Get().hits.Increment();
    spilled_.erase(name);  // resident again; the RAM copy is authoritative
    Entry& entry = entries_[name];
    entry.session = std::move(admitted).value();
    TouchLocked(&entry);
    EnforceBudgetLocked(name);
    UpdateGaugesLocked();
    return entries_[name].session;
  }
  ++misses_;
  RegistryMetrics::Get().misses.Increment();
  return Status::NotFound("no session named '" + name + "'");
}

bool SessionRegistry::Close(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool existed = entries_.erase(name) + spilled_.erase(name) != 0;
  if (existed && options_.spill != nullptr) {
    // A failed Drop leaves the capture on disk, never served, until the
    // next Open of the name drops it; the session is closed either way,
    // and the failure shows in the counter.
    const Status dropped = options_.spill->Drop(name);
    if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
      ++spill_failures_;
      RegistryMetrics::Get().spill_failures.Increment();
    }
  }
  UpdateGaugesLocked();
  return existed;
}

Result<std::uint64_t> SessionRegistry::Checkpoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.spill == nullptr) {
    return Status::FailedPrecondition("registry has no spill tier");
  }
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    return options_.spill->Spill(name, *it->second.session);
  }
  const auto spilled = spilled_.find(name);
  if (spilled != spilled_.end()) return spilled->second;
  return Status::NotFound("no session named '" + name + "'");
}

Status SessionRegistry::AdoptCaptures() {
  if (options_.spill == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(mu_);
  PPDM_ASSIGN_OR_RETURN(const auto captures, options_.spill->List());
  for (const auto& [name, bytes] : captures) {
    if (entries_.count(name) == 0) spilled_[name] = bytes;
  }
  UpdateGaugesLocked();
  return Status::Ok();
}

std::vector<std::string> SessionRegistry::OpenNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size() + spilled_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  for (const auto& [name, bytes] : spilled_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void SessionRegistry::UpdateGaugesLocked() const {
  RegistryMetrics::Get().open_sessions.Set(
      static_cast<std::int64_t>(entries_.size()));
  RegistryMetrics::Get().spilled_sessions.Set(
      static_cast<std::int64_t>(spilled_.size()));
}

SessionRegistry::Stats SessionRegistry::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.open_sessions = entries_.size();
  stats.approx_bytes = TotalBytesLocked();
  stats.evictions = evictions_;
  stats.lookups = lookups_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.spills = spills_;
  stats.readmissions = readmissions_;
  stats.spill_failures = spill_failures_;
  stats.spilled_sessions = spilled_.size();
  for (const auto& [name, bytes] : spilled_) {
    stats.spilled_bytes += bytes;
  }
  for (const auto& [name, entry] : entries_) {
    if (entry.spill_failures > 0) ++stats.degraded_sessions;
  }
  return stats;
}

}  // namespace ppdm::api
