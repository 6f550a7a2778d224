// In-process replays of a run. The oracle feeds every tenant's logged op
// sequence into an api::DatasetSession and requires the daemon's final
// served masses to be byte-identical. The layer timings call each
// module's public functions on the run's captured request bodies and the
// workload's session spec.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "loop.h"
#include "workload.h"

namespace perfbench {

struct OracleResult {
  bool ok = true;
  std::size_t tenants = 0;
  std::string detail;
};

/// Replays each log over its tenant's batches (log i belongs to
/// tenants[i]) and compares the last reconstruct bytewise.
OracleResult CheckServedMasses(const Workload& workload,
                               const std::vector<TenantData>& tenants,
                               const std::vector<TenantLog>& logs);

/// Median single-call timings of the public calls behind each layer, in
/// µs (crc32 in MB/s), keyed by per-layer metric name. `scratch_dir`
/// holds the snapshot-store and spill directories the store timings use.
std::map<std::string, double> MeasureLayers(
    const Workload& workload, const std::vector<TenantData>& tenants,
    const std::vector<std::string>& captured_frames,
    const std::string& scratch_dir);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
