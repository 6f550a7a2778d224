// The multi-tenant network serving daemon (`ppdm served`): a TCP
// listener + poll() event loop feeding an engine worker pool, with
// the whole engine→session→registry→store→obs→resilience stack behind a
// socket for the first time.
//
// Thread model — listener/worker split:
//   * One event-loop thread owns every socket: it accepts connections
//     (bounded by kMaxConnections), reads bytes into per-connection
//     buffers, parses frames, and flushes per-connection write queues.
//   * Each request runs as one job on the server's engine pool. The job
//     enqueues the response on the connection's outbox and wakes the
//     loop through a self-pipe. num_threads == 0 runs every job inline
//     on the event loop — same byte-exact behaviour, no concurrency, and
//     no self-pipe write: the loop's next round polls the outbox.
//     Inside a job, engine primitives run inline on that worker (the
//     pool's no-nested-fan-out rule), so concurrency comes from many
//     in-flight requests and a saturated pool always drains.
//   * Responses can leave a connection out of request order. With 2 or
//     more workers a connection's in-flight requests finish in any
//     order, and stats requests and inline refusals (an unknown verb, a
//     service.enqueue fault) are answered on the loop, ahead of queued
//     jobs, even with 1 worker. The echoed request id is the only
//     correlation a pipelining client may rely on; net::Client waits
//     for each answer before sending, so it is unaffected.
//
// Admission, backpressure, degradation:
//   * A frame's ttl_ms becomes the job's deadline: a request still
//     queued at it answers kDeadlineExceeded without running.
//   * Backpressure: the loop stops *reading* a connection (and stops
//     parsing its buffered frames) while its in-flight requests reach
//     kConnectionWindow, or the server-wide in-flight total reaches
//     max_pending — TCP flow control then pushes back on the client.
//     Load only pauses reads; it never sheds a request.
//   * Every malformed frame (bad magic, future version, a body past
//     kDefaultMaxBodyBytes, CRC mismatch) gets an error response and a
//     connection close after flush; the process keeps serving other
//     connections.
//   * A well-framed request whose body does not decode exactly — leftover
//     bytes after an open spec or an ingest batch, or any body on
//     reconstruct, snapshot or close — answers kInvalidArgument and
//     changes nothing; the connection lives on. An ingest_tracked batch
//     whose column list is not the tenant's spec (say, after another
//     connection closed and reopened it with other columns) answers
//     kFailedPrecondition and folds nothing.
//
// Durability: with a checkpoint directory the registry gets a spill tier
// (evictions demote instead of destroy) and graceful shutdown — Stop(),
// normally triggered by SIGTERM via the async-signal-safe RequestStop()
// — drains in-flight requests, flushes every response, then checkpoints
// every tenant through the store. A daemon restarted with resume=true
// re-admits tenants from their captures on the next open verb.

#ifndef PPDM_NET_SERVER_H_
#define PPDM_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "common/status.h"
#include "engine/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "store/snapshot_store.h"
#include "store/spill_store.h"

namespace ppdm::net {

/// A decoded ingest request (defined in server.cc).
struct IngestBody;

/// Concurrent connection cap; the listener stops accepting at the cap
/// (further connects wait in the TCP backlog until a slot frees).
inline constexpr std::size_t kMaxConnections = 64;

/// Per-connection in-flight request window; reads pause at the window.
inline constexpr std::size_t kConnectionWindow = 16;

/// The settings a deployment varies (the limits it does not vary are
/// kMaxConnections, kConnectionWindow and kDefaultMaxBodyBytes).
/// Validated by Server::Start.
struct ServerOptions {
  /// Bind address; loopback by default (an operator opts into exposure).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with Server::port().
  int port = 0;

  /// Worker pool size; 0 runs requests inline on the event loop.
  std::size_t num_threads = 0;

  /// The server-wide in-flight count at which every connection's reads
  /// pause (TCP backpressure); 0 = unbounded.
  std::size_t max_pending = 0;

  /// Registry byte budget (0 = unbounded).
  std::size_t registry_max_bytes = 0;

  /// Snapshot store directory; empty disables persistence (snapshot verb
  /// then answers kFailedPrecondition and shutdown skips checkpoints).
  std::string checkpoint_dir;
  /// Admit pre-existing captures on open (crash/drain recovery). When
  /// false, a stale capture of a newly opened tenant is deleted instead.
  bool resume = false;

  /// Slow-request log threshold: a request whose wall time reaches this
  /// many milliseconds gets its rendered span tree logged to stderr (and
  /// kept for LastSlowRequestTree). 0 disables the log.
  double slow_request_ms = 0.0;
};

/// A running daemon. Construction via Start(); destruction stops it.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The port actually bound (resolves port 0).
  int port() const { return port_; }

  /// Requests shutdown from any thread — async-signal-safe (an atomic
  /// store plus a self-pipe write), so a SIGTERM handler may call it.
  void RequestStop();

  /// Blocks until the event loop has drained and exited (after
  /// RequestStop, from this or another thread).
  void AwaitLoopExit();

  /// Full graceful shutdown: RequestStop + drain + join, then checkpoint
  /// every tenant through the store. Idempotent. Returns the first
  /// checkpoint failure (kOk without a store or on success).
  Status Stop();

  /// Tenants opened and not yet closed (RAM or spill tier).
  std::size_t tenant_count() const { return registry_->OpenNames().size(); }

  /// The tenant registry's occupancy, eviction and spill counters.
  api::SessionRegistry::Stats registry_stats() const {
    return registry_->GetStats();
  }

  /// Tenants checkpointed by the last Stop().
  std::size_t drained_checkpoints() const { return drained_checkpoints_; }

  /// The most recent slow-request span tree (empty until a request
  /// crosses ServerOptions::slow_request_ms). Test/diagnostic hook; the same
  /// text goes to stderr when it is captured.
  std::string LastSlowRequestTree() const;

 private:
  struct Connection;

  explicit Server(const ServerOptions& options);

  Status Init();
  void Loop();
  void Wake();
  void AcceptReady();
  /// Reads available bytes; false when the connection died.
  bool ReadReady(const std::shared_ptr<Connection>& conn);
  /// Parses complete frames out of the connection's input buffer until
  /// exhausted, paused, or a protocol error schedules a close. A header
  /// is judged once HeaderBytesNeeded says so; an over-cap body's refusal
  /// echoes its request's verb, id and tenant.
  void ParseFrames(const std::shared_ptr<Connection>& conn);
  /// True when `conn` must not parse further frames right now.
  bool ShouldPause(const Connection& conn) const;
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Routes one parsed frame; `body` views the connection's input buffer
  /// and is copied before this returns.
  void Dispatch(const std::shared_ptr<Connection>& conn,
                const FrameHeader& header, std::string_view body);
  void EnqueueResponse(const std::shared_ptr<Connection>& conn,
                       const FrameHeader& request, const Status& status,
                       std::string_view payload);

  /// Verb handlers — run inside request jobs (any worker). Each returns
  /// the response payload; errors become the response envelope's Status.
  Result<std::string> HandleVerb(const FrameHeader& header,
                                 const std::string& body);
  Result<std::string> HandleOpen(std::uint64_t tenant,
                                 const std::string& body);
  Result<std::string> HandleIngest(std::uint64_t tenant,
                                   const Result<IngestBody>& decoded);
  Result<std::string> HandleReconstruct(std::uint64_t tenant);
  Result<std::string> HandleSnapshot(std::uint64_t tenant);
  Result<std::string> HandleClose(std::uint64_t tenant);

  Result<std::shared_ptr<api::DatasetSession>> LookupTenant(
      std::uint64_t tenant);

  /// Serializes every open tenant to the snapshot store (drain step).
  Status CheckpointAll();

  const ServerOptions options_;
  int port_ = 0;

  std::optional<store::SnapshotStore> snapshots_;
  std::optional<store::SessionSpillStore> spill_;
  std::unique_ptr<api::SessionRegistry> registry_;

  Socket listener_;
  Socket wake_read_;
  Socket wake_write_;
  std::vector<std::shared_ptr<Connection>> connections_;  // loop thread only

  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> global_in_flight_{0};

  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool loop_exited_ = false;  // guarded by loop_mu_

  std::mutex stop_mu_;
  bool stopped_ = false;            // guarded by stop_mu_
  Status stop_status_;              // guarded by stop_mu_
  std::size_t drained_checkpoints_ = 0;

  mutable std::mutex slow_mu_;
  std::string last_slow_tree_;  // guarded by slow_mu_

  // Instruments (process metrics registry; never destroyed).
  obs::Counter* connections_total_;
  obs::Gauge* connections_open_;
  obs::Counter* protocol_errors_;
  obs::Counter* read_pauses_;
  obs::Counter* bytes_read_;
  obs::Counter* bytes_written_;
  obs::Counter* drain_checkpoints_metric_;
  obs::Histogram* request_seconds_;
  obs::Counter* verb_requests_[kLastVerb + 1];  // by verb, 0 = unknown
  obs::Counter* slow_requests_;
  // Job telemetry: the queue-wait-vs-run split tells an operator whether
  // latency is load (wait) or work (run); shed and expired jobs answered
  // without running.
  obs::Counter* jobs_;
  obs::Counter* shed_jobs_;
  obs::Counter* expired_jobs_;
  obs::Histogram* queue_wait_seconds_;
  obs::Histogram* run_seconds_;

  std::thread loop_thread_;

  // Declared last so its destructor (which drains every queued job, and
  // jobs touch the members above) runs first. Null with num_threads == 0.
  std::unique_ptr<engine::ThreadPool> pool_;
};

/// The registry/store name of a tenant id ("t42").
std::string TenantName(std::uint64_t tenant);

}  // namespace ppdm::net

#endif  // PPDM_NET_SERVER_H_
