// Length-prefixed binary frame protocol — the wire layer of the network
// serving daemon. One frame per request and per response, in both
// directions, each behind one fixed 52-byte header:
//
//   [u32 magic "PPDN"][u32 version][u32 verb][u64 request id]
//   [u64 tenant id][u32 ttl_ms][u64 trace id][u64 body length]
//   [u32 body crc32][body]
//
// The trace id lets a caller stitch the daemon's span tree into its own
// trace; 0 means none, and the server mints its own. Only version 3 is
// accepted: a peer speaking another version is refused as soon as its
// first 8 bytes are in, never left waiting for the rest of a header.
//
// All integers little-endian via the src/store codec primitives, the body
// CRC32-guarded the same way store sections are, and every decode failure
// (short header, wrong magic, other version, oversized body, CRC
// mismatch, truncated payload) a Status, never an abort — these bytes
// come off a socket from untrusted peers.
//
// Request bodies are verb-specific payloads (open carries an encoded
// DatasetSessionSpec, ingest a row-major record block of every schema
// column, ingest_tracked the same rows cut down to the tenant's tracked
// columns behind their index list, …). A body's form follows from its
// verb alone, never from its column count. Response
// bodies share one envelope: [u32 status code][status message][payload],
// so protocol-level failures (shed, expired, store fault)
// travel as first-class Status values and the connection keeps serving.
//
// A response echoes its request's verb, request id and tenant. The
// daemon answers a connection's requests in request order (see the
// thread model in server.h); the echo is the correlation a pipelining
// peer checks.

#ifndef PPDM_NET_FRAME_H_
#define PPDM_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ppdm::net {

/// "PPDN" little-endian — distinct from the store's 8-byte "PPDMSNAP".
inline constexpr std::uint32_t kFrameMagic = 0x4E445050;

/// The one protocol version this peer speaks and accepts.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// Wire size of every header (the body follows immediately).
inline constexpr std::size_t kHeaderSize = 52;

/// The daemon's cap on a frame body; anything larger is rejected before
/// any allocation happens (a hostile length prefix must not OOM the
/// server).
inline constexpr std::uint64_t kDefaultMaxBodyBytes = 64ull << 20;

/// Request verbs. Responses echo the request's verb (and request id).
enum class Verb : std::uint32_t {
  kOpen = 1,         ///< Open (or resume) a tenant's dataset session.
  kIngest = 2,       ///< Fold one perturbed record batch into the session.
  kReconstruct = 3,  ///< Reconstruct every tracked attribute's distribution.
                     ///< An empty body answers every estimate. An 8-byte
                     ///< body, [u64 fit tag held, 0 = none], answers
                     ///< [u64 served fit's tag] and then every estimate,
                     ///< or the tag alone when it equals the nonzero tag
                     ///< sent: the peer already holds that fit.
  kSnapshot = 4,     ///< Checkpoint the session through the daemon's store.
  kClose = 5,        ///< Close the tenant (drops RAM state and captures).
  kStats = 6,        ///< Metrics exposition (obs::RenderText) — GET /metrics.
                     ///< A body of the single flag byte 0x01 also appends
                     ///< the Chrome trace JSON of the server's span ring.
  kIngestTracked = 7,  ///< Ingest rows carrying only the tenant's tracked
                       ///< columns, in spec order.
};

/// The highest verb this protocol version defines; verbs run 1..kLastVerb.
inline constexpr std::uint32_t kLastVerb =
    static_cast<std::uint32_t>(Verb::kIngestTracked);

/// "open" / "ingest" / ... / "ingest_tracked", or "verb#N" for unknown
/// values.
std::string VerbName(std::uint32_t verb);

/// True when `verb` names a verb this protocol version defines.
bool KnownVerb(std::uint32_t verb);

/// Decoded frame header. `body_length`/`body_crc` describe the body that
/// follows on the wire.
struct FrameHeader {
  std::uint32_t verb = 0;
  std::uint64_t request_id = 0;
  std::uint64_t tenant = 0;
  /// Request time-to-live in milliseconds; 0 means no deadline. The
  /// server maps a nonzero TTL onto the service's submit deadline.
  std::uint32_t ttl_ms = 0;
  /// Client-supplied trace id; 0 = none, and the server mints its own.
  std::uint64_t trace_id = 0;
  std::uint64_t body_length = 0;
  std::uint32_t body_crc = 0;
  /// Wire size of the header; the body starts at this offset.
  static constexpr std::size_t header_size = kHeaderSize;
};

/// A fully decoded frame.
struct Frame {
  FrameHeader header;
  std::string body;
};

/// Serializes one frame (header + body) for the wire; `trace_id` 0 means
/// none. The uint32 overload exists so a response can echo a request's
/// verb even when that verb is not one this peer defines.
std::string EncodeFrame(std::uint32_t verb, std::uint64_t request_id,
                        std::uint64_t tenant, std::uint32_t ttl_ms,
                        std::string_view body, std::uint64_t trace_id = 0);
inline std::string EncodeFrame(Verb verb, std::uint64_t request_id,
                               std::uint64_t tenant, std::uint32_t ttl_ms,
                               std::string_view body,
                               std::uint64_t trace_id = 0) {
  return EncodeFrame(static_cast<std::uint32_t>(verb), request_id, tenant,
                     ttl_ms, body, trace_id);
}

/// How many more bytes of `bytes` a reader must accumulate before
/// DecodeHeader can fully judge the header: what is missing from
/// kHeaderSize, or 0 to decode now — the header is complete, or its
/// magic (from 4 bytes on) or version (from 8 bytes on) is already wrong,
/// which DecodeHeader will report.
std::size_t HeaderBytesNeeded(std::string_view bytes);

/// Decodes and validates a header from the front of `bytes` (at least
/// kHeaderSize bytes — accumulate until HeaderBytesNeeded says 0).
/// Failures: kIoError for a truncated header (wait for more),
/// kInvalidArgument for a wrong magic, kFailedPrecondition for a version
/// other than kProtocolVersion, and kResourceExhausted for a body length
/// past `max_body_bytes`.
Result<FrameHeader> DecodeHeader(std::string_view bytes,
                                 std::uint64_t max_body_bytes);

/// Verifies `body` (which must be header.body_length long) against the
/// header's CRC32; a mismatch is kDataLoss (bit rot or stream desync).
Status VerifyBody(const FrameHeader& header, std::string_view body);

/// One-shot decode of a complete frame (client side, tests). The frame
/// must span `bytes` exactly; trailing bytes are kInvalidArgument.
Result<Frame> DecodeFrame(std::string_view bytes,
                          std::uint64_t max_body_bytes = kDefaultMaxBodyBytes);

/// Response envelope: status code + message, then the verb's payload.
struct ResponseBody {
  Status status;
  std::string payload;
};

/// Encodes the response envelope ([u32 code][message][payload]).
std::string EncodeResponseBody(const Status& status,
                               std::string_view payload);

/// Decodes a response envelope; a wire code outside the StatusCode enum
/// is itself a decode error (kInvalidArgument).
Result<ResponseBody> DecodeResponseBody(std::string_view body);

}  // namespace ppdm::net

#endif  // PPDM_NET_FRAME_H_
