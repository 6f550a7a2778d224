#include "store/spill_store.h"

#include <utility>

#include "common/fault.h"
#include "store/session_codec.h"

namespace ppdm::store {
namespace {

// Fails a re-admission before the capture is read: the registry must
// surface a clean Status and leave the capture intact.
fault::FaultPoint& ReadmitFault() {
  static fault::FaultPoint& point = fault::Point("registry.readmit");
  return point;
}

}  // namespace

Result<std::uint64_t> SessionSpillStore::Spill(
    const std::string& name, const api::DatasetSession& session) {
  const std::string bytes = EncodeDatasetSession(session);
  PPDM_RETURN_IF_ERROR(store_.Put(name, bytes));
  return static_cast<std::uint64_t>(bytes.size());
}

Result<std::shared_ptr<api::DatasetSession>> SessionSpillStore::Admit(
    const std::string& name, engine::ThreadPool* pool) {
  PPDM_RETURN_IF_ERROR(ReadmitFault().Fire());
  PPDM_ASSIGN_OR_RETURN(const std::string bytes, store_.Get(name));
  PPDM_ASSIGN_OR_RETURN(std::unique_ptr<api::DatasetSession> session,
                        DecodeDatasetSession(bytes, pool));
  // The capture stays on disk: it is the session's last durable
  // checkpoint until the next Spill overwrites it (or Drop discards it),
  // so a crash right after re-admission still recovers to this state.
  return std::shared_ptr<api::DatasetSession>(std::move(session));
}

Status SessionSpillStore::Drop(const std::string& name) {
  return store_.Delete(name);
}

}  // namespace ppdm::store
