// The multi-tenant network serving daemon (`ppdm served`): a TCP
// listener and N poll() event loops that run each request where they
// read it, with the whole
// engine→session→registry→store→obs→resilience stack behind a socket.
//
// Thread model — N identical event loops, each serving the requests it
// reads:
//   * num_threads = N runs N event-loop threads (0 runs one, like 1).
//     Loop 0 also owns the listener: it accepts connections (bounded by
//     kMaxConnections across all loops) and deals connection i to loop
//     i mod N, so two connections made back to back always land on two
//     loops. A connection then lives on its loop for good.
//   * A loop reads a connection's bytes, parses, verifies and decodes
//     each complete frame, runs its handler inline, and sends the
//     response before it parses the next frame: a request costs one
//     wake-up and no thread handoff. Engine primitives under a handler run inline
//     too (the registry has no pool).
//   * Responses leave a connection in request order. The echoed request
//     id is still the protocol's correlation; net::Client waits for each
//     answer before sending, so it never pipelines anyway.
//   * A slow request (a tenant's first wide fit, a snapshot) holds up
//     the other connections on its loop, not a shared pool: connections
//     on other loops keep being served.
//
// Admission, backpressure, degradation:
//   * A frame's ttl_ms deadline counts from the read that completed the
//     frame, so a request pipelined behind a slow one on the same loop
//     answers kDeadlineExceeded without running once it has waited past
//     it. Its service.queue span covers the same wait.
//   * Backpressure: a loop stops parsing and reading a connection while
//     that connection's outbox holds unsent bytes (each pause counts in
//     ppdm_net_read_pauses_total) — TCP flow control then pushes back
//     on the client. Load only pauses reads; it never sheds a request.
//   * Every malformed frame (bad magic, future version, a body past
//     kDefaultMaxBodyBytes, CRC mismatch) gets an error response and a
//     connection close after flush; the process keeps serving other
//     connections.
//   * A well-framed request whose body does not decode exactly — leftover
//     bytes after an open spec or an ingest batch, any body on snapshot or
//     close, or a reconstruct body that is neither empty nor an 8-byte fit
//     tag — answers kInvalidArgument and changes nothing; the connection
//     lives on. An ingest_tracked batch whose column list is not the
//     tenant's spec (say, after another connection closed and reopened it
//     with other columns) answers kFailedPrecondition and folds nothing.
//
// Durability: with a checkpoint directory the registry gets a spill tier
// and owns every capture in it: evictions demote instead of destroy, the
// snapshot verb checkpoints through it, and graceful shutdown — Stop(),
// normally triggered by SIGTERM via the async-signal-safe RequestStop()
// — stops reading, flushes every response (past kDrainDeadline it closes
// the connections still owed bytes instead), then checkpoints every
// resident tenant. A daemon restarted with resume=true hands the
// directory's captures to the registry; any other never serves them.

#ifndef PPDM_NET_SERVER_H_
#define PPDM_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "store/spill_store.h"

namespace ppdm::net {

/// Concurrent connection cap across every loop; the listener stops
/// accepting at the cap (further connects wait in the TCP backlog until
/// a slot frees).
inline constexpr std::size_t kMaxConnections = 64;

/// How long a drain waits for peers to take their responses. At the
/// deadline a loop closes each connection that still has unsent bytes
/// (counted in ppdm_net_forced_closes_total{reason="drain_deadline"}) and
/// exits, so a peer that never reads cannot keep Stop() from
/// checkpointing.
inline constexpr std::chrono::seconds kDrainDeadline{3};

/// The settings a deployment varies (the limits it does not vary are
/// kMaxConnections and kDefaultMaxBodyBytes). Validated by Server::Start.
struct ServerOptions {
  /// Bind address; loopback by default (an operator opts into exposure).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with Server::port().
  int port = 0;

  /// Event loops, each serving its connections' requests inline; 0 runs
  /// one loop, as 1 does.
  std::size_t num_threads = 0;

  /// Registry byte budget (0 = unbounded).
  std::size_t registry_max_bytes = 0;

  /// Snapshot store directory; empty disables persistence (snapshot verb
  /// then answers kFailedPrecondition and shutdown skips checkpoints).
  std::string checkpoint_dir;
  /// Admit pre-existing captures on open (crash/drain recovery). When
  /// false they are never served, and a fresh open deletes its tenant's.
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
  /// store plus one self-pipe write per loop), so a SIGTERM handler may
  /// call it.
  void RequestStop();

  /// Blocks until every event loop has drained and exited (after
  /// RequestStop, from this or another thread).
  void AwaitLoopExit();

  /// Full graceful shutdown: RequestStop + drain + join, then checkpoint
  /// every open tenant through the registry. Idempotent. Returns the first
  /// checkpoint failure (kOk without a store or on success).
  Status Stop();

  /// Tenants opened and not yet closed (RAM or spill tier).
  std::size_t tenant_count() const { return registry_->OpenNames().size(); }

  /// The tenant registry's occupancy, eviction and spill counters.
  api::SessionRegistry::Stats registry_stats() const {
    return registry_->GetStats();
  }

  /// Open tenants the last Stop() left with a current capture.
  std::size_t drained_checkpoints() const { return drained_checkpoints_; }

  /// The most recent slow-request span tree (empty until a request
  /// crosses ServerOptions::slow_request_ms). Test/diagnostic hook; the same
  /// text goes to stderr when it is captured.
  std::string LastSlowRequestTree() const;

 private:
  struct Connection;
  struct EventLoop;

  explicit Server(const ServerOptions& options);

  Status Init();
  void Loop(EventLoop& loop);
  /// Loop 0: accepts while under the cap and deals each connection to
  /// the next loop in turn.
  void AcceptReady();
  /// Reads, parses and answers until the socket runs dry, the outbox
  /// backs up (a read pause) or the connection closes.
  void ServeReadable(Connection& conn);
  /// Answers every complete frame in the connection's input buffer, in
  /// order, or stops at a protocol error that schedules a close. A header
  /// is judged once HeaderBytesNeeded says so; an over-cap body's refusal
  /// echoes its request's verb, id and tenant.
  void ParseFrames(Connection& conn);
  void FlushWrites(Connection& conn);
  void CloseConnection(Connection& conn);
  /// Runs one parsed frame and queues its response; `body` views the
  /// connection's input buffer.
  void Dispatch(Connection& conn, const FrameHeader& header,
                std::string_view body);
  /// Queues the response frame: the result's Status, and its payload
  /// when it holds one.
  void EnqueueResponse(Connection& conn, const FrameHeader& request,
                       const Result<std::string>& result);

  /// The one switch over Verb; an unknown verb answers kInvalidArgument.
  /// Each handler decodes its own body and returns the response payload;
  /// errors become the response envelope's Status. `name` is the tenant's
  /// TenantName, formatted once per request (empty for stats and unknown
  /// verbs, which name no tenant).
  Result<std::string> Handle(const FrameHeader& header,
                             const std::string& name, std::string_view body);
  Result<std::string> HandleOpen(std::uint64_t tenant, const std::string& name,
                                 std::string_view body);
  /// `tracked` picks the ingest_tracked body form over the full-row one.
  Result<std::string> HandleIngest(std::uint64_t tenant,
                                   const std::string& name,
                                   std::string_view body, bool tracked);
  /// An empty body answers every estimate; an 8-byte body is the fit tag
  /// the peer holds, answered [u64 tag] alone when it names the served fit
  /// and [u64 tag] + every estimate otherwise.
  Result<std::string> HandleReconstruct(std::uint64_t tenant,
                                        const std::string& name,
                                        std::string_view body);
  Result<std::string> HandleSnapshot(std::uint64_t tenant,
                                     const std::string& name,
                                     std::string_view body);
  Result<std::string> HandleClose(std::uint64_t tenant, const std::string& name,
                                  std::string_view body);

  Result<std::shared_ptr<api::DatasetSession>> LookupTenant(
      std::uint64_t tenant, const std::string& name);

  const ServerOptions options_;
  int port_ = 0;

  std::optional<store::SessionSpillStore> spill_;
  std::unique_ptr<api::SessionRegistry> registry_;

  Socket listener_;
  std::vector<std::unique_ptr<EventLoop>> loops_;  // fixed after Init
  std::size_t next_loop_ = 0;                      // loop 0 only
  /// Connections accepted and not yet closed, across every loop.
  std::atomic<std::size_t> open_connections_{0};

  std::atomic<bool> draining_{false};

  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  std::size_t loops_exited_ = 0;  // guarded by loop_mu_

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
  obs::Counter* drain_deadline_closes_;
  /// Tagged reconstructs answered with the tag alone.
  obs::Counter* reconstruct_unchanged_;
  obs::Histogram* request_seconds_;
  obs::Counter* verb_requests_[kLastVerb + 1];  // by verb, 0 = unknown
  obs::Counter* slow_requests_;
  // Request telemetry: the queue-wait-vs-run split tells an operator
  // whether latency is load (wait behind earlier frames on the loop) or
  // work (run); shed and expired requests answered without running.
  obs::Counter* jobs_;
  obs::Counter* shed_jobs_;
  obs::Counter* expired_jobs_;
  obs::Histogram* queue_wait_seconds_;
  obs::Histogram* run_seconds_;
};

/// The registry/store name of a tenant id ("t42").
std::string TenantName(std::uint64_t tenant);

}  // namespace ppdm::net

#endif  // PPDM_NET_SERVER_H_
