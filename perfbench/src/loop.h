// The closed-loop load generator. Two connections, one thread each; the
// tenants are dealt round-robin to the threads, and each thread walks its
// tenants in turn, waiting for every acknowledgement or estimate before it
// sends the next request. Untraced runs speak through the typed
// net::Client wrappers; traced runs take the same request apart into its
// public steps (payload Writer + EncodeFrame, SendRaw → ReadFrame,
// DecodeResponseBody + payload Reader), timing each, and join the
// daemon's spans for the same trace id out of its span ring.

#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "workload.h"

namespace perfbench {

inline constexpr std::size_t kConnections = 2;

/// One acknowledged state change of a tenant, in order: an ingest of
/// batch `batch` of the tenant's pool, or a reconstruct. The oracle
/// replays exactly these against an in-process session.
struct Op {
  std::uint32_t batch = 0;
  bool reconstruct = false;
};

struct TenantLog {
  std::vector<Op> ops;
  /// Records the daemon acknowledged so far (the running total).
  std::uint64_t acked_records = 0;
  std::uint64_t next_batch = 0;
  std::uint64_t loop_ingests = 0;
  /// Masses of the last reconstruct the daemon served, per attribute.
  std::vector<std::vector<double>> last_masses;
};

/// One span of the daemon's span ring.
struct DaemonSpan {
  std::string name;
  double dur_us = 0.0;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

/// One traced request, split into the client's stages plus the daemon's
/// spans for its trace id (empty when the ring dropped them).
struct StageSample {
  std::uint64_t trace_id = 0;
  bool query = false;
  double encode_us = 0.0;
  double round_trip_us = 0.0;
  double decode_us = 0.0;
  double total_us = 0.0;
  std::vector<DaemonSpan> spans;
};

struct LoopStats {
  /// Client-observed round trips of successful requests, in ms.
  std::vector<double> ingest_ms;
  std::vector<double> query_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t acked_records = 0;
  double wall_s = 0.0;
  /// CPU time the loop threads spent, summed over the threads, and the CPU
  /// time the daemon spent over the same window (set by the caller).
  double client_cpu_s = 0.0;
  double daemon_cpu_s = 0.0;
  /// Ingest acknowledgements whose record count differed from the
  /// client's running total.
  std::uint64_t count_mismatches = 0;
  std::string first_error;
  // Traced runs only.
  std::vector<StageSample> traced;
  std::vector<std::string> captured_frames;
  std::uint64_t ingest_payload_bytes = 0;
};

/// Appends `from`'s samples and adds its counters (wall time included).
void Append(LoopStats* into, LoopStats&& from);

class LoadGen {
 public:
  LoadGen(const Workload& workload, const std::vector<TenantData>& tenants)
      : workload_(workload), tenants_(tenants), logs_(tenants.size()) {}

  /// Connects the loop's connections to the daemon on `port`.
  ppdm::Status Connect(int port);

  /// Opens every tenant and warms it: one ingest and, when the workload
  /// reconstructs, one reconstruct. Resets the tenant logs first.
  ppdm::Status OpenAndWarm();

  /// Runs the closed loop for `seconds`.
  LoopStats Run(double seconds, bool traced);

  /// A reconstruct of every tenant (after the loop): the final served
  /// estimates the oracle compares.
  ppdm::Status FinalReconstruct();

  /// The daemon's stats exposition.
  ppdm::Result<std::string> Stats();

  const std::vector<TenantLog>& logs() const { return logs_; }

 private:
  /// Runs fn(worker, client, tenant indices) on one thread per
  /// connection; returns the first failure.
  template <typename Fn>
  ppdm::Status PerWorker(Fn fn);

  const Workload& workload_;
  const std::vector<TenantData>& tenants_;
  std::vector<TenantLog> logs_;
  std::vector<ppdm::net::Client> clients_;
};

/// Ingests `tenant`'s batches, then reconstructs once, over a fresh
/// connection: the utility pass. Logs the ops like the loop does.
ppdm::Status RunUtilityPass(int port, const Workload& workload,
                            const TenantData& tenant, TenantLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
