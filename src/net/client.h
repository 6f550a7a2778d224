// Blocking client for the serving daemon's frame protocol: one TCP
// connection, synchronous request/response, typed wrappers per verb. The
// loadgen driver, the daemon loopback tests, and the serve benchmark all
// speak through this class; raw Send/Read escape hatches exist so tests
// can pipeline frames and inject hostile bytes.
//
// Error surfaces are kept distinct on purpose: transport and framing
// failures come back as the Call()'s own Status (kIoError, kUnavailable,
// kDataLoss...), while a server-side refusal (shed, expired deadline,
// handler error) arrives as a *successful* Call whose response
// envelope carries the error — exactly what the daemon promised: protocol
// errors are data, the connection keeps serving.

#ifndef PPDM_NET_CLIENT_H_
#define PPDM_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/dataset_session.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

namespace ppdm::net {

/// What an open verb answered.
struct OpenResult {
  /// True when the daemon served existing state (already open, or
  /// re-admitted from a checkpoint under --resume) instead of opening
  /// fresh.
  bool resumed = false;
  std::uint64_t record_count = 0;
};

/// One attribute's reconstruction as it travels over the wire.
struct AttributeEstimate {
  std::vector<double> masses;
  std::uint64_t iterations = 0;
  std::uint64_t sample_count = 0;
};

/// A connected daemon client. Move-only (owns the socket); not
/// thread-safe — one connection per thread is the intended shape.
class Client {
 public:
  static Result<Client> Connect(const std::string& host, int port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// One request/response round trip. The returned Status covers
  /// transport and framing only; the server's verdict (possibly an error)
  /// is the ResponseBody's status.
  Result<ResponseBody> Call(Verb verb, std::uint64_t tenant,
                            std::uint32_t ttl_ms, std::string_view payload);

  // Typed wrappers: Call + payload codec, with the envelope's error
  // status propagated as the wrapper's error.

  Result<OpenResult> Open(std::uint64_t tenant,
                          const api::DatasetSessionSpec& spec,
                          std::uint32_t ttl_ms = 0);

  /// Sends `rows * cols` row-major perturbed values; returns the tenant's
  /// record count after the fold.
  ///
  /// When this connection opened `tenant` (and has not closed it since),
  /// `cols` is that spec's schema width and `values` holds exactly
  /// `rows * cols` doubles, only the spec's tracked columns travel: an
  /// ingest_tracked frame whose body is gathered straight from `values`.
  /// Otherwise — another connection's tenant, another width, a short or
  /// long `values` — it sends the full-row ingest frame unchanged, and
  /// the daemon judges it. A tenant closed and reopened elsewhere with
  /// other columns answers kFailedPrecondition and folds nothing.
  Result<std::uint64_t> Ingest(std::uint64_t tenant, std::uint64_t rows,
                               std::uint64_t cols,
                               const std::vector<double>& values,
                               std::uint32_t ttl_ms = 0);

  /// Every tracked attribute's estimate, in spec order.
  ///
  /// The connection holds the last fit each tenant served it, with its
  /// fit tag, and sends that tag: while the daemon still serves the same
  /// fit it answers the tag alone (8 bytes instead of every mass), and
  /// this returns the held masses with `iterations` 0 and the held
  /// `sample_count` — exactly what the daemon's memo hit answers. A full
  /// answer replaces the held fit, or forgets it when its tag is 0 (a fit
  /// that is not the one installed); CloseTenant forgets it too. A
  /// malformed answer is a Status, never an abort.
  Result<std::vector<AttributeEstimate>> Reconstruct(std::uint64_t tenant,
                                                     std::uint32_t ttl_ms = 0);

  /// Checkpoints the tenant through the daemon's store; returns the
  /// capture size in bytes.
  Result<std::uint64_t> Snapshot(std::uint64_t tenant,
                                 std::uint32_t ttl_ms = 0);

  Status CloseTenant(std::uint64_t tenant, std::uint32_t ttl_ms = 0);

  /// The daemon's metrics exposition (the stats verb).
  Result<std::string> Stats(std::uint32_t ttl_ms = 0);

  /// The daemon's recent-span ring as Chrome trace-event JSON (the stats
  /// verb with the trace flag byte).
  Result<std::string> Trace(std::uint32_t ttl_ms = 0);

  /// Trace id carried in the header of every subsequent Call (0 = none;
  /// the daemon then mints its own ids). Lets a caller stitch the
  /// daemon's span tree into its own trace.
  void set_trace_id(std::uint64_t trace_id) { trace_id_ = trace_id; }
  std::uint64_t trace_id() const { return trace_id_; }

  // Escape hatches for protocol tests.

  /// Writes arbitrary bytes on the connection (hostile frames, pipelined
  /// batches).
  Status SendRaw(std::string_view bytes);

  /// Reads exactly one response frame: one fixed-size header read, then
  /// the verified body.
  Result<Frame> ReadFrame();

  int fd() const { return sock_.fd(); }

 private:
  explicit Client(Socket sock) : sock_(std::move(sock)) {}

  /// What a successful Open told this connection about a tenant: the
  /// schema width its rows arrive in and its tracked columns, in spec
  /// order.
  struct TrackedLayout {
    std::uint64_t width = 0;
    std::vector<std::uint64_t> columns;
  };

  /// The last installed fit a tenant served this connection: its tag and
  /// its estimates as a memo hit answers them (`iterations` 0).
  struct HeldFit {
    std::uint64_t tag = 0;
    std::vector<AttributeEstimate> estimates;
  };

  Socket sock_;
  std::unordered_map<std::uint64_t, TrackedLayout> tracked_;
  std::unordered_map<std::uint64_t, HeldFit> fits_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t trace_id_ = 0;
};

}  // namespace ppdm::net

#endif  // PPDM_NET_CLIENT_H_
