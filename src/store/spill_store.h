// The registry's durable capture tier: api::SessionSpill implemented
// over a SnapshotStore directory and the session codec. Spill (a
// demotion or checkpoint) serializes the session's state to
// "<name>.snap"; Admit decodes it back into an equivalent session,
// leaving the capture on disk until the next Spill overwrites it.
// Decode failures leave the file in place for inspection and surface as
// Status (the registry counts them and treats the lookup as a miss).

#ifndef PPDM_STORE_SPILL_STORE_H_
#define PPDM_STORE_SPILL_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "api/registry.h"
#include "common/status.h"
#include "store/snapshot_store.h"

namespace ppdm::store {

/// Directory-backed spill tier for api::SessionRegistry.
class SessionSpillStore : public api::SessionSpill {
 public:
  /// Spills into `store`'s directory (the store is copied; SnapshotStore
  /// instances are cheap views and may share a directory).
  explicit SessionSpillStore(SnapshotStore store)
      : store_(std::move(store)) {}

  Result<std::uint64_t> Spill(const std::string& name,
                              const api::DatasetSession& session) override;
  Result<std::shared_ptr<api::DatasetSession>> Admit(
      const std::string& name, engine::ThreadPool* pool) override;
  Result<std::map<std::string, std::uint64_t>> List() const override {
    return store_.List();
  }
  Status Drop(const std::string& name) override;

 private:
  SnapshotStore store_;
};

}  // namespace ppdm::store

#endif  // PPDM_STORE_SPILL_STORE_H_
