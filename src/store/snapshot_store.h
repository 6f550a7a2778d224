// Directory-backed snapshot storage: named byte blobs with atomic
// write-rename publication and corruption-safe reads. The store is the
// durable tier under the session registry's spill path and the operator's
// checkpoint/restore workflow; it knows nothing about snapshot contents —
// the session codec owns the bytes.
//
// Concurrency / crash safety: Put() writes to a temp file in the same
// directory, fsyncs it, and renames it over the target, so readers never
// observe a half-written snapshot, a crash mid-Put leaves the previous
// version intact, and a successful Put survives power loss (the directory
// entry is synced best-effort after the rename). Failure codes are
// distinct per stage: open/write/rename surface kIoError, while a failed
// fsync or close — the bytes may be torn or not durable — surfaces
// kDataLoss and never reports success.
//
// Resilience: Put and Get retry transient failures (retry::Retry) and
// carry the store.put.io / store.put.sync / store.put.rename /
// store.get.io fault points, so chaos runs can fail any stage
// deterministically.
//
// Instances are cheap views over the directory (no in-memory index), so
// several SnapshotStores — a spill tier and an operator CLI, say — can
// share one directory.

#ifndef PPDM_STORE_SNAPSHOT_STORE_H_
#define PPDM_STORE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/retry.h"
#include "common/status.h"

namespace ppdm::store {

/// Maps arbitrary snapshot names onto safe file names: alphanumerics,
/// '-' and '_' pass through, every other byte becomes %XX. Reversible.
std::string EncodeSnapshotName(std::string_view name);
Result<std::string> DecodeSnapshotName(std::string_view file_stem);

/// Named snapshots in one directory, one "<escaped-name>.snap" file each.
class SnapshotStore {
 public:
  /// Opens (creating if needed) `directory` as a snapshot store.
  static Result<SnapshotStore> Open(const std::string& directory);

  /// Atomically publishes `bytes` under `name` (write temp, fsync,
  /// rename), replacing any previous snapshot of that name and retrying
  /// transient failures under the retry policy. Names must be non-empty
  /// (kInvalidArgument); an empty name is treated as absent by every read
  /// path. kIoError for open/write/rename failures, kDataLoss when fsync
  /// or close fails (the write may be torn — never reported as success).
  Status Put(const std::string& name, std::string_view bytes) const;

  /// The bytes last Put under `name`; kNotFound when absent, kIoError
  /// when the file cannot be read. Transient read failures are retried
  /// under the retry policy.
  Result<std::string> Get(const std::string& name) const;

  /// Replaces how Put/Get wait between retries (a test's fake sleep);
  /// attempts and backoff are the retry:: constants.
  void set_retry_policy(retry::RetryPolicy policy) {
    retry_ = std::move(policy);
  }

  /// True when a snapshot named `name` exists.
  bool Contains(const std::string& name) const;

  /// Removes `name`; kNotFound when absent.
  Status Delete(const std::string& name) const;

  /// Every snapshot in the directory, by name, with its on-disk size in
  /// bytes (one directory scan).
  Result<std::map<std::string, std::uint64_t>> List() const;

 private:
  explicit SnapshotStore(std::string directory)
      : directory_(std::move(directory)) {}

  std::string PathFor(const std::string& name) const;

  /// One write-fsync-rename attempt; Put wraps it in the retry policy.
  Status PutOnce(const std::string& name, std::string_view bytes) const;
  Result<std::string> GetOnce(const std::string& name) const;

  std::string directory_;
  retry::RetryPolicy retry_;
};

}  // namespace ppdm::store

#endif  // PPDM_STORE_SNAPSHOT_STORE_H_
