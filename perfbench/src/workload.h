// The three served-path workloads and their seeded inputs. Each workload
// is a closed loop over a fixed tenant set: every tenant ingests its next
// perturbed batch and, every `query_every` batches, issues the workload's
// query verb (reconstruct or snapshot). Inputs are generated with
// synth::RecordStream and perturbed client-side exactly as `ppdm loadgen`
// does, so the daemon only ever receives perturbed rows.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/dataset_session.h"
#include "common/status.h"
#include "net/frame.h"
#include "perturb/noise_model.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::size_t tenants = 0;
  std::size_t batch_rows = 0;
  /// Tracked attributes: the first `tracked` benchmark-schema columns.
  std::size_t tracked = 0;
  ppdm::perturb::NoiseKind noise = ppdm::perturb::NoiseKind::kUniform;
  std::size_t intervals = 0;
  /// The query verb follows every `query_every`-th ingest of a tenant.
  std::size_t query_every = 0;
  ppdm::net::Verb query_verb = ppdm::net::Verb::kReconstruct;
  /// Runs the daemon with --registry-mb=1 and a fresh checkpoint dir.
  bool spill = false;
  /// Distinct pre-generated batches each tenant cycles through.
  std::size_t distinct_batches = 0;

  bool reconstructs() const {
    return query_verb == ppdm::net::Verb::kReconstruct;
  }
};

ppdm::Result<Workload> FindWorkload(const std::string& name);

ppdm::api::DatasetSessionSpec SessionSpec(const Workload& workload);

/// `served` flags for the workload; `checkpoint_dir` is used only when the
/// workload spills.
std::vector<std::string> DaemonFlags(const Workload& workload,
                                     const std::string& checkpoint_dir);

/// The utility pass: kUtilityTenants fresh tenants (ids from
/// kUtilityTenant up, never loop tenants), each ingesting kUtilityRows
/// rows in kUtilityBatchRows-row requests and reconstructing once.
inline constexpr std::size_t kUtilityTenants = 4;
inline constexpr std::size_t kUtilityBatchRows = 4096;
inline constexpr std::size_t kUtilityRows = 64 * kUtilityBatchRows;
inline constexpr std::uint64_t kUtilityTenant = 1000000;

/// One tenant's inputs: perturbed, row-major, schema-wide batches.
struct TenantData {
  std::uint64_t id = 0;
  std::vector<std::vector<double>> batches;
};

/// The loop tenants' batch pools (tenant ids 0..tenants-1).
std::vector<TenantData> GenerateTenants(const Workload& workload,
                                        std::uint64_t seed);

/// The utility tenants' perturbed rows, and truth_masses[t][a]: the true
/// masses of tracked attribute a in tenant t's rows, over the workload's
/// partition.
struct UtilityData {
  std::vector<TenantData> tenants;
  std::vector<std::vector<std::vector<double>>> truth_masses;
};
UtilityData GenerateUtility(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
