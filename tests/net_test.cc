// Tests for the network serving subsystem: the frame codec (every
// malformed wire input — truncated at every prefix, bit-flipped, wrong
// magic, other version, oversized body, seeded header mutations — is a
// Status, never an abort), and the daemon itself over loopback TCP:
// byte-identical to a direct DatasetSession at every event-loop count,
// answering each connection in request order, pausing reads instead of
// shedding, resilient to hostile frames / shed requests / injected store
// faults (each answers a protocol error while the process keeps
// serving), and drain→restart→resume preserving every tenant's state
// exactly.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include "api/dataset_session.h"
#include "common/fault.h"
#include "common/strings.h"
#include "data/row_batch.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perturb/randomizer.h"
#include "reconstruct/reconstructor.h"
#include "store/codec.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "synth/generator.h"
#include "test_util.h"

namespace ppdm::net {
namespace {

using test::BenchmarkDatasetSpec;
using test::PerturbedRows;
using test::TempDir;

namespace fs = std::filesystem;

// Disarms every fault point on scope exit so one test's chaos never
// leaks into the next.
struct FaultGuard {
  ~FaultGuard() { fault::DisarmAll(); }
};

/// A full-row ingest body: [u64 rows][u64 cols][double array].
std::string FullIngestBody(std::uint64_t rows, std::uint64_t cols,
                           const std::vector<double>& values) {
  store::Writer writer;
  writer.PutU64(rows);
  writer.PutU64(cols);
  writer.PutDoubleArray(values);
  return writer.Take();
}

/// An ingest_tracked body: [u64 rows][u64 array columns][double array].
std::string TrackedIngestBody(std::uint64_t rows,
                              const std::vector<std::uint64_t>& columns,
                              const std::vector<double>& values) {
  store::Writer writer;
  writer.PutU64(rows);
  writer.PutU64Array(columns);
  writer.PutDoubleArray(values);
  return writer.Take();
}

/// A raw Call's payload, or its transport or envelope error.
Result<std::string> AckPayload(Result<ResponseBody> response) {
  PPDM_RETURN_IF_ERROR(response.status());
  PPDM_RETURN_IF_ERROR(response.value().status);
  return std::move(response.value().payload);
}

ServerOptions LoopbackOptions(std::size_t threads = 0) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_threads = threads;
  return options;
}

// ------------------------------------------------------------ frame codec

TEST(FrameTest, RoundTripPreservesEveryField) {
  const std::string body = "payload bytes \x00\x01\x7f with zeros";
  // Trace id 0 (none) and a nonzero id ride the same fixed header.
  for (const std::uint64_t trace : {0ULL, 0x0123456789abcdefULL}) {
    SCOPED_TRACE(trace);
    const std::string wire =
        EncodeFrame(Verb::kIngest, /*request_id=*/42, /*tenant=*/7,
                    /*ttl_ms=*/1500, body, trace);
    ASSERT_EQ(wire.size(), kHeaderSize + body.size());

    Result<Frame> frame = DecodeFrame(wire);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value().header.trace_id, trace);
    EXPECT_EQ(frame.value().header.verb,
              static_cast<std::uint32_t>(Verb::kIngest));
    EXPECT_EQ(frame.value().header.request_id, 42u);
    EXPECT_EQ(frame.value().header.tenant, 7u);
    EXPECT_EQ(frame.value().header.ttl_ms, 1500u);
    EXPECT_EQ(frame.value().body, body);
  }
}

TEST(FrameTest, EveryTruncationIsAStatusError) {
  const std::string wire =
      EncodeFrame(Verb::kOpen, 1, 2, 0, "0123456789abcdef", 0xfeedULL);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::string_view prefix(wire.data(), len);
    Result<Frame> frame = DecodeFrame(prefix);
    EXPECT_FALSE(frame.ok()) << "prefix length " << len;
    if (len < kHeaderSize) {
      // Short header is kIoError — the streaming parser's "wait for
      // more bytes" signal — and the parser waits for exactly the rest
      // of the fixed header.
      EXPECT_EQ(DecodeHeader(prefix, kDefaultMaxBodyBytes).status().code(),
                StatusCode::kIoError)
          << "prefix length " << len;
      EXPECT_EQ(HeaderBytesNeeded(prefix), kHeaderSize - len)
          << "prefix length " << len;
    }
  }
  EXPECT_TRUE(DecodeFrame(wire).ok());
}

TEST(FrameTest, NoBitFlipEverCorruptsTheBodySilently) {
  const std::string body = "the CRC-guarded request payload";
  const std::string clean = EncodeFrame(Verb::kSnapshot, 9, 3, 0, body);
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::string flipped = clean;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    Result<Frame> frame = DecodeFrame(flipped);
    // Header-field flips (verb, ids, ttl, trace id) may decode — they are
    // caught semantically — but the CRC guarantees the body itself is
    // either rejected or delivered intact.
    if (frame.ok()) {
      EXPECT_EQ(frame.value().body, body) << "bit " << bit;
    }
  }
}

TEST(FrameTest, OversizedBodyIsRejectedBeforeAllocation) {
  const std::string wire = EncodeFrame(Verb::kIngest, 1, 1, 0,
                                       std::string(1024, 'x'));
  const Result<FrameHeader> header =
      DecodeHeader(std::string_view(wire.data(), kHeaderSize),
                   /*max_body_bytes=*/512);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kResourceExhausted);
}

TEST(FrameTest, FutureVersionAndWrongMagicAreCleanErrors) {
  // Bytes 4..7 are the little-endian version word. Older (v1, v2) and
  // newer peers are refused as soon as 8 bytes are in — never left
  // waiting for the rest of a header their layout may not have.
  for (const std::uint32_t version : {1u, 2u, kProtocolVersion + 1}) {
    SCOPED_TRACE(version);
    std::string wire = EncodeFrame(Verb::kOpen, 1, 1, 0, "");
    wire[4] = static_cast<char>(version);
    for (const std::size_t len : {std::size_t{8}, std::size_t{44},
                                  kHeaderSize}) {
      const std::string_view prefix(wire.data(), len);
      EXPECT_EQ(HeaderBytesNeeded(prefix), 0u) << "prefix length " << len;
      Result<FrameHeader> header = DecodeHeader(prefix, kDefaultMaxBodyBytes);
      ASSERT_FALSE(header.ok());
      EXPECT_EQ(header.status().code(), StatusCode::kFailedPrecondition);
    }
  }

  std::string wire = EncodeFrame(Verb::kOpen, 1, 1, 0, "");
  wire[0] = 'X';
  EXPECT_EQ(HeaderBytesNeeded(std::string_view(wire.data(), 4)), 0u);
  Result<FrameHeader> header = DecodeHeader(
      std::string_view(wire.data(), kHeaderSize), kDefaultMaxBodyBytes);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

// Seeded mutations of valid frames — header byte overwrites, boundary
// body lengths, truncations — against the decoders' contract: the
// streaming parser never asks past the fixed header, and a decode either
// fails with a Status or yields exactly the fields that re-encode to the
// input bytes.
TEST(FrameTest, SeededHeaderMutationsAreStatusesOrExactFrames) {
  constexpr std::uint64_t kCap = 4096;
  std::vector<std::string> seeds;
  seeds.push_back(EncodeFrame(Verb::kStats, 1, 0, 0, ""));
  seeds.push_back(EncodeFrame(Verb::kOpen, 7, 3, 250, "spec bytes", 0x9eULL));
  seeds.push_back(EncodeFrame(Verb::kIngest, ~0ULL, ~0ULL, ~0u,
                              std::string(1024, '\xa5'), ~0ULL));
  std::mt19937_64 rng(0x5EED0F3AULL);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  std::size_t decoded_frames = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::string wire = seeds[pick(seeds.size())];
    const std::uint64_t body_size = wire.size() - kHeaderSize;
    switch (pick(3)) {
      case 0:  // overwrite 1..4 header bytes
        for (std::uint64_t n = 1 + pick(4); n > 0; --n) {
          wire[pick(kHeaderSize)] = static_cast<char>(pick(256));
        }
        break;
      case 1: {  // body length at a boundary
        const std::uint64_t lengths[] = {0,    body_size - 1, body_size,
                                         body_size + 1, kCap, kCap + 1,
                                         1ULL << 63,    ~0ULL};
        store::Writer writer;
        writer.PutU64(lengths[pick(8)]);
        wire.replace(40, 8, writer.Take());
        break;
      }
      default:  // truncation
        wire.resize(pick(wire.size()));
        break;
    }
    SCOPED_TRACE(iteration);

    for (std::size_t len = 0; len <= std::min(wire.size(), kHeaderSize + 8);
         ++len) {
      const std::string_view prefix(wire.data(), len);
      const std::size_t needed = HeaderBytesNeeded(prefix);
      ASSERT_LE(len + needed, std::max(len, kHeaderSize));
      if (needed == 0) {
        EXPECT_NE(DecodeHeader(prefix, kCap).status().code(),
                  StatusCode::kIoError);
      }
    }

    const Result<FrameHeader> header = DecodeHeader(wire, kCap);
    if (header.ok()) {
      const FrameHeader& h = header.value();
      EXPECT_LE(h.body_length, kCap);
      // Re-encode the header: every field up to the trace id through
      // EncodeFrame, then the decoded body length and CRC.
      store::Writer tail;
      tail.PutU64(h.body_length);
      tail.PutU32(h.body_crc);
      EXPECT_EQ(EncodeFrame(h.verb, h.request_id, h.tenant, h.ttl_ms, "",
                            h.trace_id)
                        .substr(0, 40) +
                    tail.Take(),
                wire.substr(0, kHeaderSize));
    }
    const Result<Frame> frame = DecodeFrame(wire, kCap);
    if (frame.ok()) {
      ++decoded_frames;
      const FrameHeader& h = frame.value().header;
      EXPECT_EQ(EncodeFrame(h.verb, h.request_id, h.tenant, h.ttl_ms,
                            frame.value().body, h.trace_id),
                wire);
    }
  }
  // The property must not hold vacuously.
  EXPECT_GT(decoded_frames, 100u);
}

TEST(FrameTest, ResponseEnvelopeRoundTripsStatusAndPayload) {
  const Status refusal = Status::ResourceExhausted("frame body too large");
  const std::string body = EncodeResponseBody(refusal, "extra payload");
  Result<ResponseBody> decoded = DecodeResponseBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.value().status.message(), "frame body too large");
  EXPECT_EQ(decoded.value().payload, "extra payload");

  // A wire status code outside the enum is itself a decode error.
  store::Writer writer;
  writer.PutU32(0xFFFF);
  writer.PutString("bogus");
  Result<ResponseBody> bogus = DecodeResponseBody(writer.Take());
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
}

/// A fixed ingest body of 2 benchmark-schema rows, values from a formula
/// (no generator) so its bytes depend on the codec alone.
std::string GoldenIngestBody() {
  std::vector<double> values;
  for (int i = 0; i < 18; ++i) values.push_back(1000.0 * i - 0.375 * i * i);
  store::Writer writer;
  writer.PutU64(2);
  writer.PutU64(9);
  writer.PutDoubleArray(values);
  return writer.Take();
}

/// GoldenIngestBody's rows as an ingest_tracked body over columns 0 and 4.
std::string GoldenTrackedBody() {
  std::vector<double> values;
  for (int i = 0; i < 18; ++i) values.push_back(1000.0 * i - 0.375 * i * i);
  store::Writer writer;
  writer.PutU64(2);
  writer.PutU64Array({0, 4});
  writer.PutDoubleColumns(values.data(), 2, 9, {0, 4});
  return writer.Take();
}

// Wire-format pins of the version-3 frame, cross-checked against an
// independent little-endian pack and zlib's CRC-32. A failure here means
// the frame bytes changed: that needs a kProtocolVersion bump, not a new
// pin.
TEST(FrameTest, IngestAndResponseFrameBytesArePinned) {
  const std::string body = GoldenIngestBody();
  const std::string untraced = EncodeFrame(
      Verb::kIngest, /*request_id=*/42, /*tenant=*/7, /*ttl_ms=*/1500, body);
  EXPECT_EQ(untraced.size(), 220u);
  EXPECT_EQ(store::Crc32(untraced), 0xEEB5DCE4u);
  const std::string traced = EncodeFrame(Verb::kIngest, 42, 7, 1500, body,
                                         /*trace_id=*/0x0123456789abcdefULL);
  EXPECT_EQ(traced.size(), 220u);
  EXPECT_EQ(store::Crc32(traced), 0xE0439CE7u);
  const std::string response = EncodeFrame(
      Verb::kIngest, 42, 7, 0,
      EncodeResponseBody(Status::InvalidArgument("ingest shape 2x9"), body));
  EXPECT_EQ(response.size(), 248u);
  EXPECT_EQ(store::Crc32(response), 0xECB93105u);
  // The same 2 rows cut down to columns 0 and 4, as Client::Ingest sends
  // them for a tenant tracking those columns.
  const std::string tracked = EncodeFrame(Verb::kIngestTracked, 42, 7, 1500,
                                          GoldenTrackedBody());
  EXPECT_EQ(tracked.size(), 124u);
  EXPECT_EQ(store::Crc32(tracked), 0x86F490ADu);
}

// -------------------------------------------------------------- sockets

int NoDelayOf(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return -1;
  }
  return value;
}

// Small request/response frames stall behind Nagle's algorithm unless
// both ends disable it: ConnectTcp does for the client, and the server
// calls SetNoDelay on every socket it accepts.
TEST(SocketTest, SetNoDelayDisablesNagleOnBothEnds) {
  Result<Socket> listener = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const Result<int> port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());
  const Result<Socket> client = ConnectTcp("127.0.0.1", port.value());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_NE(NoDelayOf(client.value().fd()), 0);

  const Socket accepted(::accept(listener.value().fd(), nullptr, nullptr));
  ASSERT_TRUE(accepted.valid());
  EXPECT_EQ(NoDelayOf(accepted.fd()), 0);  // the kernel default
  SetNoDelay(accepted.fd());
  EXPECT_NE(NoDelayOf(accepted.fd()), 0);
}

// ------------------------------------------------------------ loopback

TEST(ServerTest, LoopbackIsByteIdenticalToDirectSessionAtEveryThreadCount) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(600, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  const std::size_t batch_rows = 150;

  // Ground truth: a direct in-process session over the same batches
  // (results are identical for every pool, so null is fine).
  Result<std::unique_ptr<api::DatasetSession>> direct =
      api::DatasetSession::Open(spec);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  for (std::size_t r = 0; r < num_rows; r += batch_rows) {
    const std::size_t n = std::min(batch_rows, num_rows - r);
    ASSERT_TRUE(direct.value()
                    ->Ingest(data::RowBatch(rows.data() + r * num_cols, n,
                                            num_cols))
                    .ok());
  }
  const auto expected = direct.value()->ReconstructAll();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Result<std::unique_ptr<Server>> server =
        Server::Start(LoopbackOptions(threads));
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    // Tenant 1 gets full rows through a raw ingest frame, tenant 2 the
    // tracked columns alone through Client::Ingest.
    for (const std::uint64_t tenant : {1, 2}) {
      Result<OpenResult> opened = client.value().Open(tenant, spec);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      EXPECT_FALSE(opened.value().resumed);
    }

    for (const std::uint64_t tenant : {1, 2}) {
      SCOPED_TRACE(tenant == 1 ? "full rows" : "tracked columns");
      std::uint64_t record_count = 0;
      for (std::size_t r = 0; r < num_rows; r += batch_rows) {
        const std::size_t n = std::min(batch_rows, num_rows - r);
        const std::vector<double> batch(rows.begin() + r * num_cols,
                                        rows.begin() + (r + n) * num_cols);
        if (tenant == 1) {
          Result<std::string> count = AckPayload(client.value().Call(
              Verb::kIngest, tenant, 0, FullIngestBody(n, num_cols, batch)));
          ASSERT_TRUE(count.ok()) << count.status().ToString();
          store::Reader reader(count.value());
          record_count = reader.ReadU64().value();
        } else {
          Result<std::uint64_t> count =
              client.value().Ingest(tenant, n, num_cols, batch);
          ASSERT_TRUE(count.ok()) << count.status().ToString();
          record_count = count.value();
        }
      }
      EXPECT_EQ(record_count, num_rows);

      Result<std::vector<AttributeEstimate>> estimates =
          client.value().Reconstruct(tenant);
      ASSERT_TRUE(estimates.ok()) << estimates.status().ToString();
      ASSERT_EQ(estimates.value().size(), expected.value().size());
      for (std::size_t a = 0; a < estimates.value().size(); ++a) {
        // Byte-identical doubles: the daemon ran exactly the same
        // computation the direct session did.
        EXPECT_EQ(estimates.value()[a].masses, expected.value()[a].masses)
            << "attribute " << a;
        EXPECT_EQ(estimates.value()[a].iterations,
                  expected.value()[a].iterations);
        EXPECT_EQ(estimates.value()[a].sample_count,
                  expected.value()[a].sample_count);
      }
    }
    ASSERT_TRUE(server.value()->Stop().ok());
  }
}

TEST(ServerTest, MalformedFramesAnswerErrorsAndTheProcessKeepsServing) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);

  // A healthy tenant on its own connection, open before the abuse.
  Result<Client> healthy = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(healthy.value().Open(7, spec).ok());

  struct HostileCase {
    std::string name;
    std::string bytes;
    StatusCode want;
  };
  std::vector<HostileCase> cases;
  {
    std::string bad_magic = EncodeFrame(Verb::kStats, 1, 0, 0, "");
    bad_magic[0] = 'X';
    cases.push_back({"bad magic", bad_magic, StatusCode::kInvalidArgument});
  }
  {
    std::string future = EncodeFrame(Verb::kStats, 1, 0, 0, "");
    future[4] = static_cast<char>(kProtocolVersion + 1);
    cases.push_back({"future version", future,
                     StatusCode::kFailedPrecondition});
  }
  {
    // An old peer's 44-byte v1 frame: refused from its version word, not
    // left waiting for the 8 bytes a current header would still need.
    std::string v1 = EncodeFrame(Verb::kStats, 1, 0, 0, "").substr(0, 44);
    v1[4] = 1;
    cases.push_back({"v1 peer", v1, StatusCode::kFailedPrecondition});
  }
  {
    std::string flipped = EncodeFrame(Verb::kStats, 1, 0, 0, "payload");
    flipped.back() = static_cast<char>(flipped.back() ^ 0x40);
    cases.push_back({"body bit flip", flipped, StatusCode::kDataLoss});
  }
  for (const HostileCase& hostile : cases) {
    SCOPED_TRACE(hostile.name);
    Result<Client> client = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().SendRaw(hostile.bytes).ok());
    Result<Frame> response = client.value().ReadFrame();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
    ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
    EXPECT_EQ(envelope.value().status.code(), hostile.want);
  }

  // An unknown verb is well-framed: error envelope, connection survives.
  Result<Client> client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client.value().SendRaw(EncodeFrame(/*verb=*/99u, 1, 0, 0, "")).ok());
  Result<Frame> response = client.value().ReadFrame();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope.value().status.code(), StatusCode::kInvalidArgument);
  Result<std::string> stats = client.value().Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();

  // The tenant opened before all that abuse still works.
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(100, &num_cols);
  EXPECT_TRUE(healthy.value()
                  .Ingest(7, rows.size() / num_cols, num_cols, rows)
                  .ok());
  EXPECT_TRUE(healthy.value().Reconstruct(7).ok());
  ASSERT_TRUE(server.value()->Stop().ok());
}

TEST(ServerTest, OverCapBodyIsRefusedToItsRequestThenTheConnectionCloses) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());

  // A header alone whose body length is one past the cap: the cap is
  // judged from the header, so no body (and no 64 MiB buffer) is needed.
  std::string header = EncodeFrame(Verb::kIngest, /*request_id=*/7,
                                   /*tenant=*/1, /*ttl_ms=*/0, "");
  const std::uint64_t over_cap = kDefaultMaxBodyBytes + 1;
  // The body length is the little-endian u64 at header bytes 40..47.
  for (std::size_t b = 0; b < 8; ++b) {
    header[40 + b] = static_cast<char>((over_cap >> (8 * b)) & 0xFF);
  }
  ASSERT_TRUE(client.value().SendRaw(header).ok());

  // The whole header is in before the cap is judged, so the refusal
  // correlates with the request instead of arriving as request 0.
  Result<Frame> refused = client.value().ReadFrame();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused.value().header.verb,
            static_cast<std::uint32_t>(Verb::kIngest));
  EXPECT_EQ(refused.value().header.request_id, 7u);
  EXPECT_EQ(refused.value().header.tenant, 1u);
  Result<ResponseBody> envelope = DecodeResponseBody(refused.value().body);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_EQ(envelope.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(envelope.value().status.message().find("67108864-byte cap"),
            std::string::npos)
      << envelope.value().status.message();
  // The unread body poisoned the stream: the daemon closes after the
  // refusal.
  EXPECT_FALSE(client.value().ReadFrame().ok());
  ASSERT_TRUE(server.value()->Stop().ok());
}

// The listener stops accepting at kMaxConnections: the next client's
// connect completes in the TCP backlog, but its request goes unread until
// a held connection closes and frees a slot.
TEST(ServerTest, ConnectionPastTheCapWaitsForAFreeSlot) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(0));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  std::vector<Client> held;
  for (std::size_t i = 0; i < kMaxConnections; ++i) {
    Result<Client> client = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << i << ": " << client.status().ToString();
    // A round trip proves the daemon accepted this connection.
    ASSERT_TRUE(client.value().Stats().ok()) << i;
    held.push_back(std::move(client).value());
  }

  Result<Client> waiting = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(waiting.ok()) << waiting.status().ToString();
  ASSERT_TRUE(waiting.value()
                  .SendRaw(EncodeFrame(Verb::kStats, /*request_id=*/9,
                                       /*tenant=*/0, /*ttl_ms=*/0, ""))
                  .ok());
  pollfd readable{waiting.value().fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&readable, 1, /*timeout=*/200), 0)
      << "a connection past the cap was served";

  held.pop_back();  // frees one slot
  readable.revents = 0;
  ASSERT_EQ(::poll(&readable, 1, /*timeout=*/10000), 1)
      << "the waiting connection was never accepted";
  Result<Frame> response = waiting.value().ReadFrame();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().header.request_id, 9u);
  Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
  ASSERT_TRUE(envelope.ok());
  EXPECT_TRUE(envelope.value().status.ok())
      << envelope.value().status.ToString();
  ASSERT_TRUE(server.value()->Stop().ok());
}

TEST(ServerTest, RequestsForUnknownTenantsAnswerNotFound) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(0));
  ASSERT_TRUE(server.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          server.value()->port());
  ASSERT_TRUE(client.ok());
  Result<std::vector<AttributeEstimate>> estimates =
      client.value().Reconstruct(/*tenant=*/404);
  ASSERT_FALSE(estimates.ok());
  EXPECT_EQ(estimates.status().code(), StatusCode::kNotFound);
  // Malformed verb payloads are also data, not aborts: an ingest body
  // whose row/col geometry disagrees with its values array.
  store::Writer writer;
  writer.PutU64(10);  // rows
  writer.PutU64(3);   // cols
  writer.PutDoubleArray({1.0, 2.0});  // 2 values, not 30
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);
  ASSERT_TRUE(client.value().Open(1, spec).ok());
  Result<ResponseBody> response =
      client.value().Call(Verb::kIngest, 1, 0, writer.Take());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status.code(), StatusCode::kInvalidArgument);
  // The shape check is exact, not floor division: 31 values for a 10x3
  // ingest (30 + one trailing stray) is rejected, not silently truncated.
  store::Writer stray;
  stray.PutU64(10);
  stray.PutU64(3);
  stray.PutDoubleArray(std::vector<double>(31, 0.5));
  Result<ResponseBody> extra =
      client.value().Call(Verb::kIngest, 1, 0, stray.Take());
  ASSERT_TRUE(extra.ok()) << extra.status().ToString();
  EXPECT_EQ(extra.value().status.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.value()->Stop().ok());
}

// An open whose spec derives an allocation no machine holds (2^40
// intervals, or a privacy/confidence pair padding the w-grid past 2^20
// bins per side) answers kInvalidArgument, and the connection keeps
// serving: a valid open on it succeeds afterwards.
TEST(ServerTest, HostileLayoutOpensAnswerInvalidArgument) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          server.value()->port());
  ASSERT_TRUE(client.ok());
  api::DatasetSessionSpec huge_grid = BenchmarkDatasetSpec(1, 12);
  huge_grid.attributes[0].intervals = std::size_t{1} << 40;
  api::DatasetSessionSpec huge_padding = BenchmarkDatasetSpec(1, 12);
  huge_padding.attributes[0].confidence = 1e-12;
  for (const api::DatasetSessionSpec& spec : {huge_grid, huge_padding}) {
    const Result<OpenResult> refused = client.value().Open(1, spec);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
  }
  const Result<OpenResult> opened =
      client.value().Open(1, BenchmarkDatasetSpec(1, 12));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.value().resumed);
  ASSERT_TRUE(server.value()->Stop().ok());
}

// Every request decoder consumes its whole body: leftover bytes are
// kInvalidArgument and change nothing, so a body laid out for another
// format is refused rather than misparsed.
TEST(ServerTest, RequestBodiesWithTrailingBytesAreRejected) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          server.value()->port());
  ASSERT_TRUE(client.ok());
  const auto expect_invalid = [&](Verb verb, std::string body) {
    SCOPED_TRACE(VerbName(static_cast<std::uint32_t>(verb)));
    Result<ResponseBody> response =
        client.value().Call(verb, 1, 0, std::move(body));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status.code(), StatusCode::kInvalidArgument)
        << response.value().status.ToString();
  };

  // An open body in the version-1 layout: after each attribute it also
  // carried EM options (u64 max_iterations, f64 epsilon, u8 binned), and
  // after the attributes a u64 shard size and a u8 warm-start flag.
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);
  store::Writer old_layout;
  store::EncodeDatasetSessionSpec(spec, &old_layout);
  old_layout.PutU64(500);
  old_layout.PutDouble(1e-4);
  old_layout.PutU8(1);
  old_layout.PutU64(16384);
  old_layout.PutU8(1);
  expect_invalid(Verb::kOpen, old_layout.Take());
  // Refused, not opened.
  EXPECT_EQ(client.value().Reconstruct(1).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(client.value().Open(1, spec).ok());
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(4, &num_cols);
  store::Writer ingest;
  ingest.PutU64(4);
  ingest.PutU64(num_cols);
  ingest.PutDoubleArray(rows);
  ingest.PutU8(0);
  expect_invalid(Verb::kIngest, ingest.Take());
  expect_invalid(Verb::kReconstruct, "x");
  expect_invalid(Verb::kSnapshot, "x");
  expect_invalid(Verb::kClose, "x");

  // Nothing was folded and the tenant is still open.
  Result<OpenResult> reopened = client.value().Open(1, spec);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value().resumed);
  EXPECT_EQ(reopened.value().record_count, 0u);
  ASSERT_TRUE(server.value()->Stop().ok());
}

TEST(ServerTest, ShedAndInjectedStoreFaultsAreProtocolErrorsNotCrashes) {
  FaultGuard guard;
  TempDir dir;
  ServerOptions options = LoopbackOptions(2);
  options.checkpoint_dir = dir.path;
  Result<std::unique_ptr<Server>> server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1",
                                          server.value()->port());
  ASSERT_TRUE(client.ok());
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);
  ASSERT_TRUE(client.value().Open(1, spec).ok());

  // Dispatch's service.enqueue fault point refuses a request before it
  // runs; the injected Status travels back in the envelope and the
  // connection keeps serving.
  obs::Counter* shed_jobs = obs::MetricsRegistry::Global().GetCounter(
      "ppdm_service_shed_jobs_total");
  const std::uint64_t shed_before = shed_jobs->Value();
  ASSERT_TRUE(fault::ArmFromSpec("service.enqueue=once").ok());
  Result<std::vector<AttributeEstimate>> shed = client.value().Reconstruct(1);
  ASSERT_FALSE(shed.ok());
  Result<std::vector<AttributeEstimate>> after = client.value().Reconstruct(1);
  EXPECT_TRUE(after.ok()) << after.status().ToString();

  // Armed at p=1, every request is refused and nothing folds; once
  // disarmed, the next request runs.
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(4, &num_cols);
  const std::string ingest = FullIngestBody(4, num_cols, rows);
  ASSERT_TRUE(fault::ArmFromSpec("service.enqueue=prob:1").ok());
  for (int i = 0; i < 8; ++i) {
    Result<ResponseBody> refused =
        client.value().Call(Verb::kIngest, 1, 0, ingest);
    ASSERT_TRUE(refused.ok()) << refused.status().ToString();
    EXPECT_EQ(refused.value().status.code(), StatusCode::kUnavailable) << i;
  }
  EXPECT_EQ(shed_jobs->Value() - shed_before, 9u);
  ASSERT_TRUE(fault::ArmFromSpec("service.enqueue=off").ok());
  Result<std::string> folded =
      AckPayload(client.value().Call(Verb::kIngest, 1, 0, ingest));
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  store::Reader reader(folded.value());
  EXPECT_EQ(reader.ReadU64().value(), 4u);  // none of the 8 refused folded

  // A permanently-failing store put: the snapshot verb reports the
  // injected fault, the daemon survives, and the next snapshot works.
  ASSERT_TRUE(fault::ArmFromSpec("store.put.io=once,permanent").ok());
  Result<std::uint64_t> snap = client.value().Snapshot(1);
  ASSERT_FALSE(snap.ok());
  Result<std::uint64_t> retry = client.value().Snapshot(1);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(retry.value(), 0u);
  ASSERT_TRUE(server.value()->Stop().ok());
}

/// Nine Gaussian attributes at 200 intervals: a tenant's first
/// reconstruct under this spec keeps a worker busy for milliseconds.
api::DatasetSessionSpec SlowFitSpec() {
  api::DatasetSessionSpec spec = BenchmarkDatasetSpec(9, 200);
  for (api::AttributeSpec& attr : spec.attributes) {
    attr.noise = perturb::NoiseKind::kGaussian;
  }
  return spec;
}

TEST(ServerTest, StartRejectsAThreadCountPastTheEngineLimit) {
  Result<std::unique_ptr<Server>> server =
      Server::Start(LoopbackOptions(std::size_t{1} << 20));
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

// A frame's ttl_ms deadline counts from the read that completed it. On a
// one-loop daemon, an ingest pipelined behind a tenant's first
// 9-attribute Gaussian reconstruct waits on the loop past a 1 ms ttl: it
// answers kDeadlineExceeded without running, folds nothing, and the
// connection keeps serving. A fast machine may finish the fit inside the
// ttl, so the pair is retried on fresh tenants until one expires.
TEST(ServerTest, RequestQueuedPastItsTtlAnswersDeadlineExceeded) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(1));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  const api::DatasetSessionSpec spec = SlowFitSpec();
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(2000, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  const std::string one_row = FullIngestBody(
      1, num_cols,
      std::vector<double>(
          rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(num_cols)));
  obs::Counter* expired_jobs = obs::MetricsRegistry::Global().GetCounter(
      "ppdm_service_expired_jobs_total");
  const std::uint64_t expired_before = expired_jobs->Value();

  bool expired = false;
  for (std::uint64_t tenant = 1; tenant <= 20 && !expired; ++tenant) {
    SCOPED_TRACE(tenant);
    ASSERT_TRUE(client.value().Open(tenant, spec).ok());
    Result<std::uint64_t> acked =
        client.value().Ingest(tenant, num_rows, num_cols, rows);
    ASSERT_TRUE(acked.ok()) << acked.status().ToString();
    // One write, so the loop parses the ingest while the worker fits.
    ASSERT_TRUE(client.value()
                    .SendRaw(EncodeFrame(Verb::kReconstruct, 1, tenant, 0, "") +
                             EncodeFrame(Verb::kIngest, 2, tenant,
                                         /*ttl_ms=*/1, one_row))
                    .ok());
    for (std::uint64_t request_id : {1u, 2u}) {
      Result<Frame> response = client.value().ReadFrame();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.value().header.request_id, request_id);
      Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
      ASSERT_TRUE(envelope.ok());
      const Status& status = envelope.value().status;
      if (request_id == 1 || status.ok()) {
        ASSERT_TRUE(status.ok()) << status.ToString();
        continue;
      }
      EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
          << status.ToString();
      expired = true;
    }
    if (!expired) continue;
    EXPECT_GT(expired_jobs->Value(), expired_before);
    // The expired ingest folded nothing: the tenant holds only its
    // acknowledged rows, and the same connection serves the reopen.
    Result<OpenResult> reopened = client.value().Open(tenant, spec);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value().record_count, acked.value());
    // A live deadline lets the request through.
    Result<std::uint64_t> live = client.value().Ingest(
        tenant, num_rows, num_cols, rows, /*ttl_ms=*/60000);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(live.value(), acked.value() + num_rows);
  }
  EXPECT_TRUE(expired) << "no ttl_ms=1 ingest ever waited out its deadline";
  ASSERT_TRUE(server.value()->Stop().ok());
}

// A request's spans count from the read that completed its frame. A
// tenant's first wide reconstruct and an ingest sent in one write under
// one client trace id share that read: the reconstruct's net.request, the
// ingest's net.request and the ingest's service.queue all start at it,
// and the ingest's queue wait covers the reconstruct's run.
TEST(ServerTest, RequestSpansStartAtTheReadThatCompletedTheirFrame) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(1));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(2000, &num_cols);
  ASSERT_TRUE(client.value().Open(1, SlowFitSpec()).ok());
  ASSERT_TRUE(client.value()
                  .Ingest(1, rows.size() / num_cols, num_cols, rows)
                  .ok());
  const std::string one_row = FullIngestBody(
      1, num_cols,
      std::vector<double>(
          rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(num_cols)));

  const std::uint64_t trace = obs::NewTraceId();
  ASSERT_TRUE(client.value()
                  .SendRaw(EncodeFrame(Verb::kReconstruct, 1, 1, 0, "", trace) +
                           EncodeFrame(Verb::kIngest, 2, 1, 0, one_row, trace))
                  .ok());
  for (std::uint64_t request_id : {1u, 2u}) {
    Result<Frame> response = client.value().ReadFrame();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().header.request_id, request_id);
    Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
    ASSERT_TRUE(envelope.ok());
    ASSERT_TRUE(envelope.value().status.ok())
        << envelope.value().status.ToString();
  }

  // Each request's root span, and its queue and run spans by root.
  std::map<std::string, obs::SpanEvent> roots;  // by verb
  std::map<std::uint64_t, std::map<std::string, obs::SpanEvent>> children;
  for (const obs::SpanEvent& span : obs::TraceRing::Global().Snapshot()) {
    if (span.trace_id != trace) continue;
    if (span.name == "net.request") {
      for (const char* verb : {"reconstruct", "ingest"}) {
        if (span.labels.find(StrFormat("verb=\"%s\"", verb)) !=
            std::string::npos) {
          roots[verb] = span;
        }
      }
    } else if (span.name == "service.queue" || span.name == "service.run") {
      children[span.parent_id][span.name] = span;
    }
  }
  ASSERT_EQ(roots.size(), 2u);
  const obs::SpanEvent& reconstruct = roots["reconstruct"];
  const obs::SpanEvent& ingest = roots["ingest"];
  ASSERT_EQ(children[reconstruct.span_id].count("service.run"), 1u);
  ASSERT_EQ(children[ingest.span_id].count("service.queue"), 1u);
  const obs::SpanEvent& ingest_queue =
      children[ingest.span_id]["service.queue"];
  EXPECT_EQ(ingest.start_ns, reconstruct.start_ns);
  EXPECT_EQ(ingest_queue.start_ns, reconstruct.start_ns);
  EXPECT_GE(ingest_queue.duration_ns,
            children[reconstruct.span_id]["service.run"].duration_ns);
  ASSERT_TRUE(server.value()->Stop().ok());
}

// Stop waits for every request the loop already read before it
// checkpoints: a fit and an ingest behind it on the one loop both
// answer, and the capture holds the ingest.
TEST(ServerTest, StopFinishesDispatchedRequestsBeforeCheckpointing) {
  TempDir dir;
  ServerOptions options = LoopbackOptions(1);
  options.checkpoint_dir = dir.path;
  Result<std::unique_ptr<Server>> server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  const api::DatasetSessionSpec spec = SlowFitSpec();
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(2000, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  ASSERT_TRUE(client.value().Open(1, spec).ok());
  ASSERT_TRUE(client.value().Ingest(1, num_rows, num_cols, rows).ok());

  obs::Counter* jobs =
      obs::MetricsRegistry::Global().GetCounter("ppdm_service_jobs_total");
  const std::uint64_t jobs_before = jobs->Value();
  const std::vector<double> one_row(
      rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(num_cols));
  ASSERT_TRUE(client.value()
                  .SendRaw(EncodeFrame(Verb::kReconstruct, 1, 1, 0, "") +
                           EncodeFrame(Verb::kIngest, 2, 1, 0,
                                       FullIngestBody(1, num_cols, one_row)))
                  .ok());
  // Both frames are dispatched once the job count has moved by two.
  while (jobs->Value() < jobs_before + 2) std::this_thread::yield();
  ASSERT_TRUE(server.value()->Stop().ok());
  EXPECT_EQ(server.value()->drained_checkpoints(), 1u);
  for (std::uint64_t request_id : {1u, 2u}) {
    Result<Frame> response = client.value().ReadFrame();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().header.request_id, request_id);
    Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
    ASSERT_TRUE(envelope.ok());
    EXPECT_TRUE(envelope.value().status.ok())
        << envelope.value().status.ToString();
  }

  options.resume = true;
  Result<std::unique_ptr<Server>> restarted = Server::Start(options);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  Result<Client> again =
      Client::Connect("127.0.0.1", restarted.value()->port());
  ASSERT_TRUE(again.ok());
  Result<OpenResult> resumed = again.value().Open(1, spec);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().resumed);
  EXPECT_EQ(resumed.value().record_count, num_rows + 1);
  ASSERT_TRUE(restarted.value()->Stop().ok());
}

/// Clears O_NONBLOCK on a test client's socket.
void SetBlocking(int fd) {
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK), 0);
}

/// One response frame, or a failure when none arrives within `timeout_ms`
/// (a stuck loop fails the test instead of hanging it).
Result<Frame> ReadFrameWithin(Client& client, int timeout_ms) {
  pollfd readable{client.fd(), POLLIN, 0};
  if (::poll(&readable, 1, timeout_ms) != 1) {
    return Status::DeadlineExceeded("no response within the timeout");
  }
  return client.ReadFrame();
}

// Backpressure on a one-loop daemon: a client that pipelines and never
// reads fills the daemon's send path with stats answers, the loop pauses
// the connection's reads (ppdm_net_read_pauses_total), and TCP then fills
// the client's send path with ingests until its sends block. Nothing is
// shed, a second connection on the same loop is still answered, and once
// the client reads, every request it sent is answered, in order.
TEST(ServerTest, UnreadResponsesPauseReadsAndShedNothing) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(1));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  obs::Counter* shed_jobs = obs::MetricsRegistry::Global().GetCounter(
      "ppdm_service_shed_jobs_total");
  obs::Counter* read_pauses = obs::MetricsRegistry::Global().GetCounter(
      "ppdm_net_read_pauses_total");
  const std::uint64_t shed_before = shed_jobs->Value();
  const std::uint64_t pauses_before = read_pauses->Value();

  Result<Client> client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().Open(1, BenchmarkDatasetSpec(2, 12)).ok());
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(1000, &num_cols);
  const std::string ingest = FullIngestBody(1000, num_cols, rows);

  // Stats frames (tiny, each answered with the whole exposition) until
  // the loop pauses, then ingest frames (~96 KB each) until a send has
  // found no room for 300 ms. A stats frame goes only once the loop has
  // written the last one's answer, so no backlog of renders piles up.
  // `complete` counts the frames written whole.
  obs::Counter* bytes_written = obs::MetricsRegistry::Global().GetCounter(
      "ppdm_net_bytes_written_total");
  const auto paused = [&] { return read_pauses->Value() > pauses_before; };
  const int fd = client.value().fd();
  ASSERT_TRUE(SetNonBlocking(fd).ok());
  std::vector<Verb> verbs;  // verbs[i] is request id i + 1's
  std::string frame;
  std::size_t frame_pos = 0;
  std::size_t complete = 0;
  std::uint64_t written = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (true) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "the client's sends never blocked";
    if (frame_pos == frame.size()) {
      if (!verbs.empty() && verbs.back() == Verb::kStats && !paused() &&
          bytes_written->Value() == written) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t id = verbs.size() + 1;
      verbs.push_back(paused() ? Verb::kIngest : Verb::kStats);
      frame = verbs.back() == Verb::kIngest
                  ? EncodeFrame(Verb::kIngest, id, 1, 0, ingest)
                  : EncodeFrame(Verb::kStats, id, 0, 0, "");
      frame_pos = 0;
      written = bytes_written->Value();
    }
    const ssize_t n = ::send(fd, frame.data() + frame_pos,
                             frame.size() - frame_pos, MSG_NOSIGNAL);
    if (n > 0) {
      frame_pos += static_cast<std::size_t>(n);
      if (frame_pos == frame.size()) complete = verbs.size();
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, /*timeout=*/300) == 0 && paused()) break;
  }
  EXPECT_GT(read_pauses->Value(), pauses_before);
  EXPECT_NE(std::count(verbs.begin(), verbs.end(), Verb::kIngest), 0);

  // The paused connection holds up no other connection on its loop.
  Result<Client> second = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(
      second.value().SendRaw(EncodeFrame(Verb::kStats, 77, 0, 0, "")).ok());
  Result<Frame> answered = ReadFrameWithin(second.value(), 10000);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered.value().header.request_id, 77u);

  // Now the client reads: every whole frame is answered in order (and a
  // frame cut mid-send once its rest follows).
  SetBlocking(fd);
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < verbs.size(); ++i) {
    if (i == complete) {
      ASSERT_TRUE(client.value()
                      .SendRaw(std::string_view(frame).substr(frame_pos))
                      .ok());
    }
    Result<Frame> response = client.value().ReadFrame();
    ASSERT_TRUE(response.ok()) << i << ": " << response.status().ToString();
    ASSERT_EQ(response.value().header.request_id, i + 1);
    Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
    ASSERT_TRUE(envelope.ok());
    ASSERT_TRUE(envelope.value().status.ok())
        << envelope.value().status.ToString();
    if (verbs[i] == Verb::kIngest) {
      folded += 1000;
      store::Reader reader(envelope.value().payload);
      EXPECT_EQ(reader.ReadU64().value(), folded) << i;
    }
  }
  EXPECT_EQ(shed_jobs->Value(), shed_before);
  ASSERT_TRUE(server.value()->Stop().ok());
}

TEST(ServerTest, StatsVerbServesTheMetricsExposition) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(0));
  ASSERT_TRUE(server.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          server.value()->port());
  ASSERT_TRUE(client.ok());
  Result<std::string> stats = client.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("ppdm_net_connections_total"),
            std::string::npos);
  EXPECT_NE(stats.value().find("ppdm_net_requests_total"), std::string::npos);
  ASSERT_TRUE(server.value()->Stop().ok());
}

TEST(ServerTest, ClientTraceIdYieldsACausalTreeWithLabeledMetrics) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    TempDir dir;
    ServerOptions options = LoopbackOptions(threads);
    options.checkpoint_dir = dir.path;
    // Threshold low enough that every request trips the slow-request log.
    options.slow_request_ms = 1e-6;
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Result<Client> client =
        Client::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(client.ok());

    const std::uint64_t trace = obs::NewTraceId();
    client.value().set_trace_id(trace);
    const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);
    ASSERT_TRUE(client.value().Open(1, spec).ok());
    std::size_t num_cols = 0;
    const std::vector<double> rows = PerturbedRows(150, &num_cols);
    ASSERT_TRUE(client.value()
                    .Ingest(1, rows.size() / num_cols, num_cols, rows)
                    .ok());
    ASSERT_TRUE(client.value().Reconstruct(1).ok());
    ASSERT_TRUE(client.value().Snapshot(1).ok());

    // Every span of our trace, linked by parent ids, must form a tree at
    // least four causal levels deep: net.request → service.run →
    // session work → engine fan-out (and the snapshot leg reaches
    // store.put the same way).
    const std::vector<obs::SpanEvent> spans =
        obs::TraceRing::Global().Snapshot();
    std::map<std::uint64_t, const obs::SpanEvent*> by_id;
    for (const obs::SpanEvent& span : spans) {
      if (span.trace_id == trace) by_id[span.span_id] = &span;
    }
    ASSERT_FALSE(by_id.empty());
    std::size_t deepest = 0;
    std::vector<std::string> seen;
    for (const auto& [id, span] : by_id) {
      std::size_t depth = 0;
      const obs::SpanEvent* walk = span;
      while (walk->parent_id != 0) {
        const auto parent = by_id.find(walk->parent_id);
        ASSERT_NE(parent, by_id.end())
            << span->name << " has a parent outside its own trace";
        walk = parent->second;
        ASSERT_LT(++depth, 32u);
      }
      deepest = std::max(deepest, depth);
      seen.push_back(span->name);
    }
    EXPECT_GE(deepest, 3u) << "tree is fewer than 4 levels deep";
    const auto saw = [&seen](const std::string& name) {
      return std::find(seen.begin(), seen.end(), name) != seen.end();
    };
    EXPECT_TRUE(saw("net.request"));
    EXPECT_TRUE(saw("service.queue"));
    EXPECT_TRUE(saw("service.run"));
    EXPECT_TRUE(saw("engine.parallel_for"));
    EXPECT_TRUE(saw("store.put"));

    // Each request's queue-wait and run spans hang straight off its own
    // net.request: one of each per request, whichever thread ran the job.
    std::map<std::uint64_t, int> queue_children;
    std::map<std::uint64_t, int> run_children;
    for (const auto& [id, span] : by_id) {
      if (span->name == "net.request") {
        queue_children[id];
        run_children[id];
      }
    }
    // open, ingest, reconstruct, snapshot
    EXPECT_EQ(queue_children.size(), 4u);
    for (const auto& [id, span] : by_id) {
      const std::string name = span->name;
      if (name != "service.queue" && name != "service.run") continue;
      const auto parent = by_id.find(span->parent_id);
      ASSERT_NE(parent, by_id.end()) << name;
      EXPECT_EQ(parent->second->name, "net.request") << name;
      ++(name == "service.queue" ? queue_children
                                 : run_children)[span->parent_id];
    }
    for (const auto& [id, count] : queue_children) EXPECT_EQ(count, 1);
    for (const auto& [id, count] : run_children) EXPECT_EQ(count, 1);

    // The root carries the tenant and verb labels.
    bool root_labeled = false;
    for (const auto& [id, span] : by_id) {
      if (span->name == "net.request" && span->parent_id == 0 &&
          span->labels.find("tenant=\"t1\"") != std::string::npos) {
        root_labeled = true;
      }
    }
    EXPECT_TRUE(root_labeled);

    // The stats verb's trace flag returns Chrome JSON holding our trace id.
    Result<std::string> chrome = client.value().Trace();
    ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
    EXPECT_NE(chrome.value().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.value().find(StrFormat(
                  "%016llx", static_cast<unsigned long long>(trace))),
              std::string::npos);
    // An undersized stats body that is not the trace flag is an error.
    Result<ResponseBody> bogus =
        client.value().Call(Verb::kStats, 0, 0, std::string_view("\x02", 1));
    ASSERT_TRUE(bogus.ok());
    EXPECT_EQ(bogus.value().status.code(), StatusCode::kInvalidArgument);

    // Per-tenant detail lives in span labels only: after traffic from a
    // second tenant, no exposition series carries a tenant label, so a
    // client choosing tenant ids cannot grow the metrics registry.
    ASSERT_TRUE(client.value().Open(2, spec).ok());
    ASSERT_TRUE(client.value()
                    .Ingest(2, rows.size() / num_cols, num_cols, rows)
                    .ok());
    Result<std::string> stats = client.value().Stats();
    ASSERT_TRUE(stats.ok());
    std::istringstream exposition(stats.value());
    for (std::string line; std::getline(exposition, line);) {
      if (line.empty() || line[0] == '#') continue;
      EXPECT_EQ(line.find("tenant="), std::string::npos) << line;
    }
    EXPECT_NE(stats.value().find("ppdm_trace_recorded_total"),
              std::string::npos);

    // Every request crossed the 1ns slow threshold, so the daemon kept a
    // rendered tree of the most recent offender.
    const std::string slow = server.value()->LastSlowRequestTree();
    EXPECT_NE(slow.find("net.request"), std::string::npos);
    ASSERT_TRUE(server.value()->Stop().ok());
  }
}

// Forty ingests pipelined in one write and read only afterwards: at every
// loop count each request id is answered exactly once, in request order,
// with the tenant's running record count.
TEST(ServerTest, PipelinedIngestsAnswerInRequestOrderAtEveryLoopCount) {
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(50, &num_cols);
  const std::size_t batch_rows = rows.size() / num_cols;
  const std::string ingest_body = FullIngestBody(batch_rows, num_cols, rows);
  constexpr int kPipelined = 40;
  std::string burst;
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < kPipelined; ++i) {
    burst += EncodeFrame(Verb::kIngest, /*request_id=*/100 + i, 1, 0,
                         ingest_body);
    sent.push_back(100 + i);
  }

  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Result<std::unique_ptr<Server>> server =
        Server::Start(LoopbackOptions(threads));
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().Open(1, BenchmarkDatasetSpec(1, 12)).ok());

    // Blast the ingests without reading.
    ASSERT_TRUE(client.value().SendRaw(burst).ok());
    std::vector<std::uint64_t> answered;
    for (int i = 0; i < kPipelined; ++i) {
      Result<Frame> response = client.value().ReadFrame();
      ASSERT_TRUE(response.ok()) << i << ": " << response.status().ToString();
      answered.push_back(response.value().header.request_id);
      Result<ResponseBody> envelope =
          DecodeResponseBody(response.value().body);
      ASSERT_TRUE(envelope.ok());
      ASSERT_TRUE(envelope.value().status.ok())
          << envelope.value().status.ToString();
      store::Reader reader(envelope.value().payload);
      EXPECT_EQ(reader.ReadU64().value(), (i + 1) * batch_rows) << i;
    }
    EXPECT_EQ(answered, sent);
    ASSERT_TRUE(server.value()->Stop().ok());
  }
}

// A peer that stops mid-frame holds no loop. On a two-loop daemon,
// connections 0 and 1 (dealt to loops 0 and 1) each send half an open
// frame; fresh connections 2 and 3, dealt to the same two loops, are
// answered at once. The held frames then complete and answer too.
TEST(ServerTest, HalfAFrameOnEachLoopDelaysNoFreshConnection) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  store::Writer spec;
  store::EncodeDatasetSessionSpec(BenchmarkDatasetSpec(2, 12), &spec);

  std::vector<Client> holders;
  std::vector<std::string> frames;
  for (std::uint64_t tenant = 1; tenant <= 2; ++tenant) {
    Result<Client> holder = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(holder.ok());
    frames.push_back(EncodeFrame(Verb::kOpen, /*request_id=*/tenant, tenant,
                                 /*ttl_ms=*/0, spec.bytes()));
    ASSERT_TRUE(holder.value()
                    .SendRaw(std::string_view(frames.back())
                                 .substr(0, frames.back().size() / 2))
                    .ok());
    holders.push_back(std::move(holder).value());
  }

  for (int fresh = 0; fresh < 2; ++fresh) {
    SCOPED_TRACE(fresh);
    Result<Client> client = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client.value().SendRaw(EncodeFrame(Verb::kStats, 9, 0, 0, "")).ok());
    Result<Frame> response = ReadFrameWithin(client.value(), 5000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().header.request_id, 9u);
  }

  for (std::size_t h = 0; h < holders.size(); ++h) {
    SCOPED_TRACE(h);
    ASSERT_TRUE(holders[h]
                    .SendRaw(std::string_view(frames[h])
                                 .substr(frames[h].size() / 2))
                    .ok());
    Result<Frame> response = ReadFrameWithin(holders[h], 5000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().header.request_id, h + 1);
    Result<ResponseBody> envelope = DecodeResponseBody(response.value().body);
    ASSERT_TRUE(envelope.ok());
    EXPECT_TRUE(envelope.value().status.ok())
        << envelope.value().status.ToString();
  }
  ASSERT_TRUE(server.value()->Stop().ok());
}

// The input buffer under every shape of arrival: a burst of small frames
// (many frames parsed out of one buffer), frames far larger than one
// read, and the whole stream cut into odd-sized writes so headers and
// bodies split anywhere. Each loop answers every frame a read completes
// before it reads again, so the read offset walks the buffer as the
// writes land. One loop and two answer in request order, with the
// tenant's running record count.
TEST(ServerTest, MixedSizeFramesSplitAcrossWritesAllAnswerInOrder) {
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(6000, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  // A large frame followed by a run of small ones: once the large one is
  // parsed, the read offset sits past half the buffer with the small
  // frames still unread, which moves them down mid-stream.
  std::vector<std::size_t> batch_rows;
  batch_rows.push_back(num_rows / 2);  // ~216 KB body
  for (int i = 0; i < 600; ++i) batch_rows.push_back(1 + i % 3);
  batch_rows.push_back(num_rows / 3);
  for (int i = 0; i < 600; ++i) batch_rows.push_back(2);

  std::string stream;
  std::vector<std::uint64_t> expected_counts;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < batch_rows.size(); ++b) {
    const std::size_t take = batch_rows[b];
    store::Writer writer;
    writer.PutU64(take);
    writer.PutU64(num_cols);
    writer.PutDoubleArray(std::vector<double>(
        rows.begin(),
        rows.begin() + static_cast<std::ptrdiff_t>(take * num_cols)));
    stream += EncodeFrame(Verb::kIngest, /*request_id=*/1000 + b, 1, 0,
                          writer.Take(), /*trace_id=*/b % 2 == 0 ? 0 : b);
    total += take;
    expected_counts.push_back(total);
  }

  for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    ServerOptions options = LoopbackOptions(threads);
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client =
        Client::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().Open(1, BenchmarkDatasetSpec(1, 12)).ok());

    // Writes of 1, 7, 4093, 65537, ... bytes, cycling.
    const std::size_t cuts[] = {1, 7, 4093, 65537, 13, 100003};
    std::size_t pos = 0;
    for (std::size_t i = 0; pos < stream.size(); ++i) {
      const std::size_t len = std::min(cuts[i % 6], stream.size() - pos);
      ASSERT_TRUE(client.value()
                      .SendRaw(std::string_view(stream).substr(pos, len))
                      .ok());
      pos += len;
    }
    for (std::size_t b = 0; b < batch_rows.size(); ++b) {
      Result<Frame> response = client.value().ReadFrame();
      ASSERT_TRUE(response.ok()) << b << ": " << response.status().ToString();
      EXPECT_EQ(response.value().header.request_id, 1000 + b);
      Result<ResponseBody> envelope =
          DecodeResponseBody(response.value().body);
      ASSERT_TRUE(envelope.ok());
      ASSERT_TRUE(envelope.value().status.ok())
          << envelope.value().status.ToString();
      store::Reader reader(envelope.value().payload);
      EXPECT_EQ(reader.ReadU64().value(), expected_counts[b])
          << "frame " << b;
    }
    // Nothing past the sent frames was parsed: the connection still
    // answers the next request, not a protocol error.
    EXPECT_TRUE(client.value().Stats().ok());
    ASSERT_TRUE(server.value()->Stop().ok());
  }
}

TEST(ServerTest, DrainCheckpointsEveryTenantAndResumeRestoresThemExactly) {
  TempDir dir;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(400, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;

  // Ground truth: direct sessions fed the same per-tenant slices.
  std::vector<std::vector<reconstruct::Reconstruction>> expected;
  for (std::uint64_t tenant = 0; tenant < 2; ++tenant) {
    Result<std::unique_ptr<api::DatasetSession>> direct =
        api::DatasetSession::Open(spec);
    ASSERT_TRUE(direct.ok());
    const std::size_t half = num_rows / 2;
    const std::size_t begin = tenant * half;
    ASSERT_TRUE(direct.value()
                    ->Ingest(data::RowBatch(rows.data() + begin * num_cols,
                                            half, num_cols))
                    .ok());
    auto reconstructed = direct.value()->ReconstructAll();
    ASSERT_TRUE(reconstructed.ok());
    expected.push_back(std::move(reconstructed).value());
  }

  ServerOptions options = LoopbackOptions(2);
  options.checkpoint_dir = dir.path;
  {
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    for (std::uint64_t tenant = 0; tenant < 2; ++tenant) {
      ASSERT_TRUE(client.value().Open(tenant, spec).ok());
      const std::size_t half = num_rows / 2;
      const std::vector<double> slice(
          rows.begin() + tenant * half * num_cols,
          rows.begin() + (tenant + 1) * half * num_cols);
      ASSERT_TRUE(client.value().Ingest(tenant, half, num_cols, slice).ok());
    }
    // SIGTERM path: RequestStop is what the signal handler calls.
    server.value()->RequestStop();
    server.value()->AwaitLoopExit();
    ASSERT_TRUE(server.value()->Stop().ok());
    EXPECT_EQ(server.value()->drained_checkpoints(), 2u);
  }

  options.resume = true;
  Result<std::unique_ptr<Server>> restarted = Server::Start(options);
  ASSERT_TRUE(restarted.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          restarted.value()->port());
  ASSERT_TRUE(client.ok());
  for (std::uint64_t tenant = 0; tenant < 2; ++tenant) {
    SCOPED_TRACE("tenant " + std::to_string(tenant));
    Result<OpenResult> opened = client.value().Open(tenant, spec);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE(opened.value().resumed);
    EXPECT_EQ(opened.value().record_count, num_rows / 2);
    Result<std::vector<AttributeEstimate>> estimates =
        client.value().Reconstruct(tenant);
    ASSERT_TRUE(estimates.ok()) << estimates.status().ToString();
    ASSERT_EQ(estimates.value().size(), expected[tenant].size());
    for (std::size_t a = 0; a < estimates.value().size(); ++a) {
      EXPECT_EQ(estimates.value()[a].masses, expected[tenant][a].masses)
          << "attribute " << a;
      EXPECT_EQ(estimates.value()[a].sample_count,
                expected[tenant][a].sample_count);
    }
  }
  ASSERT_TRUE(restarted.value()->Stop().ok());
}

// The open set is the registry's: under a one-byte budget only the most
// recently touched tenant stays resident, the rest live in the spill
// tier, and drain must still checkpoint every open (and no closed)
// tenant — then a resumed daemon re-admits each one exactly.
TEST(ServerTest, DrainUnderATightBudgetCheckpointsEveryOpenTenant) {
  TempDir dir;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(600, &num_cols);
  const std::size_t share = rows.size() / num_cols / 3;
  const auto slice = [&](std::uint64_t tenant) {
    return std::vector<double>(
        rows.begin() + tenant * share * num_cols,
        rows.begin() + (tenant + 1) * share * num_cols);
  };

  ServerOptions options = LoopbackOptions(2);
  options.checkpoint_dir = dir.path;
  options.registry_max_bytes = 1;
  std::map<std::uint64_t, std::vector<AttributeEstimate>> expected;
  {
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    for (std::uint64_t tenant = 0; tenant < 3; ++tenant) {
      ASSERT_TRUE(client.value().Open(tenant, spec).ok());
      ASSERT_TRUE(
          client.value().Ingest(tenant, share, num_cols, slice(tenant)).ok());
    }
    // Re-opening a spilled tenant is idempotent: a non-resume daemon must
    // not mistake its own spill capture for a stale one and delete it.
    Result<OpenResult> reopened = client.value().Open(0, spec);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(reopened.value().resumed);
    EXPECT_EQ(reopened.value().record_count, share);
    ASSERT_TRUE(client.value().CloseTenant(1).ok());
    ASSERT_TRUE(client.value().Ingest(2, share, num_cols, slice(2)).ok());

    EXPECT_EQ(server.value()->tenant_count(), 2u);
    const api::SessionRegistry::Stats stats = server.value()->registry_stats();
    EXPECT_EQ(stats.open_sessions, 1u);
    EXPECT_EQ(stats.spilled_sessions, 1u);
    ASSERT_TRUE(server.value()->Stop().ok());
    EXPECT_EQ(server.value()->drained_checkpoints(), 2u);
    EXPECT_FALSE(fs::exists(dir.path + "/t1.snap"));

    // Ground truth: the same tenants on an unbounded, storeless daemon.
    Result<std::unique_ptr<Server>> control =
        Server::Start(LoopbackOptions(2));
    ASSERT_TRUE(control.ok());
    Result<Client> control_client =
        Client::Connect("127.0.0.1", control.value()->port());
    ASSERT_TRUE(control_client.ok());
    for (const std::uint64_t tenant : {0u, 2u}) {
      ASSERT_TRUE(control_client.value().Open(tenant, spec).ok());
      for (int copies = tenant == 2 ? 2 : 1; copies > 0; --copies) {
        ASSERT_TRUE(control_client.value()
                        .Ingest(tenant, share, num_cols, slice(tenant))
                        .ok());
      }
      Result<std::vector<AttributeEstimate>> estimates =
          control_client.value().Reconstruct(tenant);
      ASSERT_TRUE(estimates.ok());
      expected[tenant] = std::move(estimates).value();
    }
    ASSERT_TRUE(control.value()->Stop().ok());
  }

  options.resume = true;
  Result<std::unique_ptr<Server>> restarted = Server::Start(options);
  ASSERT_TRUE(restarted.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          restarted.value()->port());
  ASSERT_TRUE(client.ok());
  for (const auto& [tenant, estimates_expected] : expected) {
    SCOPED_TRACE("tenant " + std::to_string(tenant));
    Result<OpenResult> opened = client.value().Open(tenant, spec);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE(opened.value().resumed);
    Result<std::vector<AttributeEstimate>> estimates =
        client.value().Reconstruct(tenant);
    ASSERT_TRUE(estimates.ok()) << estimates.status().ToString();
    ASSERT_EQ(estimates.value().size(), estimates_expected.size());
    for (std::size_t a = 0; a < estimates.value().size(); ++a) {
      EXPECT_EQ(estimates.value()[a].masses, estimates_expected[a].masses)
          << "attribute " << a;
    }
  }
  // The closed tenant stays closed: its open is brand new.
  Result<OpenResult> fresh = client.value().Open(1, spec);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().resumed);
  EXPECT_EQ(fresh.value().record_count, 0u);
  ASSERT_TRUE(restarted.value()->Stop().ok());
}

TEST(ServerTest, CloseDropsTheTenantAndWithoutResumeStaleCapturesDie) {
  TempDir dir;
  ServerOptions options = LoopbackOptions(0);
  options.checkpoint_dir = dir.path;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);
  {
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().Open(1, spec).ok());
    ASSERT_TRUE(client.value().Snapshot(1).ok());
    ASSERT_TRUE(client.value().CloseTenant(1).ok());
    Status again = client.value().CloseTenant(1);
    EXPECT_EQ(again.code(), StatusCode::kNotFound);
    // Closed tenants are not drained at shutdown.
    ASSERT_TRUE(server.value()->Stop().ok());
    EXPECT_EQ(server.value()->drained_checkpoints(), 0u);
  }
  // Without --resume a fresh daemon treats the old capture as stale:
  // the open is brand new, not a restore.
  {
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    Result<OpenResult> opened = client.value().Open(1, spec);
    ASSERT_TRUE(opened.ok());
    EXPECT_FALSE(opened.value().resumed);
    EXPECT_EQ(opened.value().record_count, 0u);
    ASSERT_TRUE(server.value()->Stop().ok());
  }
}

// A daemon started without resume never serves a capture it finds on
// disk: until the tenant's first open every verb for it answers
// kNotFound and the capture's bytes stay as they were, and that open is
// fresh and discards the capture.
TEST(ServerTest, WithoutResumeAnOldCaptureIsNeverServed) {
  TempDir dir;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(100, &num_cols);
  ServerOptions options = LoopbackOptions(0);
  options.checkpoint_dir = dir.path;
  {
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().Open(1, spec).ok());
    ASSERT_TRUE(client.value().Ingest(1, 100, num_cols, rows).ok());
    ASSERT_TRUE(server.value()->Stop().ok());
    ASSERT_EQ(server.value()->drained_checkpoints(), 1u);
  }
  const store::SnapshotStore snapshots =
      store::SnapshotStore::Open(dir.path).value();
  const Result<std::string> planted = snapshots.Get("t1");
  ASSERT_TRUE(planted.ok());

  Result<std::unique_ptr<Server>> server = Server::Start(options);
  ASSERT_TRUE(server.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          server.value()->port());
  ASSERT_TRUE(client.ok());
  std::vector<double> column(100);
  for (std::size_t r = 0; r < column.size(); ++r) {
    column[r] = rows[r * num_cols];
  }
  const std::pair<Verb, std::string> requests[] = {
      {Verb::kReconstruct, ""},
      {Verb::kIngest, FullIngestBody(100, num_cols, rows)},
      {Verb::kIngestTracked, TrackedIngestBody(100, {0}, column)},
      {Verb::kSnapshot, ""},
      {Verb::kClose, ""},
  };
  for (const auto& [verb, body] : requests) {
    SCOPED_TRACE(VerbName(static_cast<std::uint32_t>(verb)));
    Result<ResponseBody> response = client.value().Call(verb, 1, 0, body);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status.code(), StatusCode::kNotFound)
        << response.value().status.ToString();
  }
  EXPECT_EQ(snapshots.Get("t1").value(), planted.value());
  EXPECT_EQ(server.value()->tenant_count(), 0u);

  Result<OpenResult> opened = client.value().Open(1, spec);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.value().resumed);
  EXPECT_EQ(opened.value().record_count, 0u);
  EXPECT_FALSE(snapshots.Contains("t1"));
  ASSERT_TRUE(server.value()->Stop().ok());
  // The drain checkpoints the fresh tenant, not the old state.
  const Result<std::string> drained = snapshots.Get("t1");
  ASSERT_TRUE(drained.ok());
  const auto decoded = store::DecodeDatasetSession(drained.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value()->record_count(), 0u);
}

// Drain writes each resident tenant once and leaves spilled tenants
// alone: their captures are already current. 64 tenants of 9 attributes
// at 100 intervals overflow a 1 MiB budget, so some are spilled when
// Stop() runs; it must re-admit and demote none of them, put exactly the
// resident ones, and still leave every tenant resumable to the masses of
// an unbounded daemon.
TEST(ServerTest, DrainWritesResidentTenantsOnceAndReadmitsNone) {
  TempDir dir;
  constexpr std::uint64_t kTenants = 64;
  constexpr std::size_t kRowsPerTenant = 40;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(9, 100);
  std::size_t num_cols = 0;
  const std::vector<double> rows =
      PerturbedRows(kTenants * kRowsPerTenant, &num_cols);
  const auto slice = [&](std::uint64_t tenant) {
    return std::vector<double>(
        rows.begin() + tenant * kRowsPerTenant * num_cols,
        rows.begin() + (tenant + 1) * kRowsPerTenant * num_cols);
  };
  const auto feed = [&](Client& client) {
    for (std::uint64_t tenant = 0; tenant < kTenants; ++tenant) {
      ASSERT_TRUE(client.Open(tenant, spec).ok());
      ASSERT_TRUE(
          client.Ingest(tenant, kRowsPerTenant, num_cols, slice(tenant))
              .ok());
    }
  };

  ServerOptions options = LoopbackOptions(0);
  options.checkpoint_dir = dir.path;
  options.registry_max_bytes = std::size_t{1} << 20;
  {
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    feed(client.value());
    const api::SessionRegistry::Stats before =
        server.value()->registry_stats();
    ASSERT_GT(before.open_sessions, 0u);
    ASSERT_GT(before.spilled_sessions, 0u);
    ASSERT_EQ(before.open_sessions + before.spilled_sessions, kTenants);
    const obs::Counter& puts =
        *obs::MetricsRegistry::Global().GetCounter("ppdm_store_puts_total");
    const std::uint64_t puts_before = puts.Value();

    ASSERT_TRUE(server.value()->Stop().ok());
    const api::SessionRegistry::Stats after =
        server.value()->registry_stats();
    EXPECT_EQ(after.readmissions, before.readmissions);
    EXPECT_EQ(after.spills, before.spills);
    EXPECT_EQ(puts.Value() - puts_before, before.open_sessions);
    EXPECT_EQ(server.value()->drained_checkpoints(), kTenants);
  }

  Result<std::unique_ptr<Server>> control = Server::Start(LoopbackOptions(0));
  ASSERT_TRUE(control.ok());
  Result<Client> control_client =
      Client::Connect("127.0.0.1", control.value()->port());
  ASSERT_TRUE(control_client.ok());
  feed(control_client.value());

  options.resume = true;
  Result<std::unique_ptr<Server>> restarted = Server::Start(options);
  ASSERT_TRUE(restarted.ok());
  EXPECT_EQ(restarted.value()->registry_stats().spilled_sessions, kTenants);
  Result<Client> client = Client::Connect("127.0.0.1",
                                          restarted.value()->port());
  ASSERT_TRUE(client.ok());
  for (std::uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    SCOPED_TRACE("tenant " + std::to_string(tenant));
    Result<OpenResult> opened = client.value().Open(tenant, spec);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE(opened.value().resumed);
    EXPECT_EQ(opened.value().record_count, kRowsPerTenant);
    Result<std::vector<AttributeEstimate>> resumed =
        client.value().Reconstruct(tenant);
    Result<std::vector<AttributeEstimate>> expected =
        control_client.value().Reconstruct(tenant);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(resumed.value().size(), expected.value().size());
    for (std::size_t a = 0; a < expected.value().size(); ++a) {
      EXPECT_EQ(resumed.value()[a].masses, expected.value()[a].masses)
          << "attribute " << a;
    }
  }
  EXPECT_EQ(restarted.value()->registry_stats().readmissions, kTenants);
  ASSERT_TRUE(restarted.value()->Stop().ok());
  ASSERT_TRUE(control.value()->Stop().ok());
}

// A drain always ends. A client that pipelines stats frames until its
// sends find no room, and never reads, leaves its loop holding unsent
// answers. At kDrainDeadline the loop closes that connection, counted
// once under reason drain_deadline, and exits; Stop() returns and the
// checkpoint runs as usual. A second client's tenant drains to the bytes
// an in-process replay of its ingest encodes. On two loops the two
// clients land on different loops.
TEST(ServerTest, DrainDeadlineClosesAPeerThatNeverReads) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(400, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  Result<std::unique_ptr<api::DatasetSession>> replay =
      api::DatasetSession::Open(spec);
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay.value()
                  ->Ingest(data::RowBatch(rows.data(), num_rows, num_cols))
                  .ok());
  const std::string replayed = store::EncodeDatasetSession(*replay.value());
  const obs::Counter& forced = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_net_forced_closes_total", {{"reason", "drain_deadline"}});

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    TempDir dir;
    ServerOptions options = LoopbackOptions(threads);
    options.checkpoint_dir = dir.path;
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Result<Client> stuck = Client::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(stuck.ok());
    Result<Client> ingester =
        Client::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(ingester.ok());
    ASSERT_TRUE(ingester.value().Open(2, spec).ok());
    ASSERT_TRUE(
        ingester.value().Ingest(2, num_rows, num_cols, rows).ok());

    const int fd = stuck.value().fd();
    ASSERT_TRUE(SetNonBlocking(fd).ok());
    const std::string frame = EncodeFrame(Verb::kStats, 1, 0, 0, "");
    std::size_t frame_pos = 0;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::minutes(2);
    while (true) {
      ASSERT_LT(std::chrono::steady_clock::now(), give_up)
          << "the client's sends never blocked";
      const ssize_t n = ::send(fd, frame.data() + frame_pos,
                               frame.size() - frame_pos, MSG_NOSIGNAL);
      if (n > 0) {
        frame_pos = (frame_pos + static_cast<std::size_t>(n)) % frame.size();
        continue;
      }
      ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      pollfd writable{fd, POLLOUT, 0};
      if (::poll(&writable, 1, /*timeout=*/300) == 0) break;
    }

    const std::uint64_t forced_before = forced.Value();
    const auto stop_began = std::chrono::steady_clock::now();
    ASSERT_TRUE(server.value()->Stop().ok());
    const auto took = std::chrono::steady_clock::now() - stop_began;
    EXPECT_GE(took, kDrainDeadline);
    EXPECT_LT(took, kDrainDeadline + std::chrono::seconds(5));
    EXPECT_EQ(forced.Value(), forced_before + 1);
    EXPECT_EQ(server.value()->drained_checkpoints(), 1u);
    std::ifstream capture(dir.path + "/t2.snap", std::ios::binary);
    ASSERT_TRUE(capture.good());
    const std::string drained((std::istreambuf_iterator<char>(capture)),
                              std::istreambuf_iterator<char>());
    EXPECT_TRUE(drained == replayed) << "capture differs from the replay";
  }
}

// Open is idempotent only for the spec the tenant holds: a reopen that
// asks for other attributes, intervals or noise is refused, both while
// the tenant is open and after drain → resume re-admits its capture.
TEST(ServerTest, ReopenWithADifferentSpecIsRefused) {
  TempDir dir;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  api::DatasetSessionSpec noisier = spec;
  noisier.attributes[1].privacy_fraction = 0.5;
  const std::vector<api::DatasetSessionSpec> others = {
      BenchmarkDatasetSpec(1, 12), BenchmarkDatasetSpec(2, /*intervals=*/20),
      noisier};
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(64, &num_cols);

  const auto expect_only_spec_reopens = [&](Client& client) {
    for (std::size_t i = 0; i < others.size(); ++i) {
      SCOPED_TRACE("other spec " + std::to_string(i));
      Result<OpenResult> refused = client.Open(7, others[i]);
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(refused.status().message().find("tenant 7"),
                std::string::npos)
          << refused.status().ToString();
    }
    Result<OpenResult> again = client.Open(7, spec);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again.value().resumed);
    EXPECT_EQ(again.value().record_count, 64u);
  };

  ServerOptions options = LoopbackOptions(2);
  options.checkpoint_dir = dir.path;
  {
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client = Client::Connect("127.0.0.1",
                                            server.value()->port());
    ASSERT_TRUE(client.ok());
    Result<OpenResult> opened = client.value().Open(7, spec);
    ASSERT_TRUE(opened.ok());
    EXPECT_FALSE(opened.value().resumed);
    ASSERT_TRUE(client.value().Ingest(7, 64, num_cols, rows).ok());
    expect_only_spec_reopens(client.value());
    ASSERT_TRUE(server.value()->Stop().ok());
    EXPECT_EQ(server.value()->drained_checkpoints(), 1u);
  }

  options.resume = true;
  Result<std::unique_ptr<Server>> restarted = Server::Start(options);
  ASSERT_TRUE(restarted.ok());
  Result<Client> client = Client::Connect("127.0.0.1",
                                          restarted.value()->port());
  ASSERT_TRUE(client.ok());
  expect_only_spec_reopens(client.value());
  ASSERT_TRUE(restarted.value()->Stop().ok());
}


/// The value of one series (`name{labels}`) in a metrics exposition, or
/// -1 when the exposition lacks it.
double SeriesValue(const std::string& exposition, const std::string& series) {
  const std::string prefix = "\n" + series + " ";
  const std::size_t at = ("\n" + exposition).find(prefix);
  if (at == std::string::npos) return -1.0;
  return std::stod(exposition.substr(at + prefix.size() - 1));
}

// The tracked verb has its own request counter, and registering it does
// not spill into its neighbours: ppdm_net_slow_requests_total stays put
// when no request is slow.
TEST(ServerTest, TrackedIngestsCountUnderTheirOwnVerb) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  const std::string tracked_series =
      "ppdm_net_requests_total{verb=\"ingest_tracked\"}";
  const std::string full_series = "ppdm_net_requests_total{verb=\"ingest\"}";
  const std::string slow_series = "ppdm_net_slow_requests_total";
  Result<std::string> before = client.value().Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_GE(SeriesValue(before.value(), tracked_series), 0.0)
      << before.value();

  ASSERT_TRUE(client.value().Open(3, BenchmarkDatasetSpec(2, 12)).ok());
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(40, &num_cols);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.value().Ingest(3, 40, num_cols, rows).ok());
  }
  // A width other than the schema's falls back to the full-row verb (and
  // is refused there).
  EXPECT_EQ(client.value().Ingest(3, 40, 2, rows).status().code(),
            StatusCode::kInvalidArgument);

  Result<std::string> after = client.value().Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(SeriesValue(after.value(), tracked_series) -
                SeriesValue(before.value(), tracked_series),
            5.0);
  EXPECT_EQ(SeriesValue(after.value(), full_series) -
                SeriesValue(before.value(), full_series),
            1.0);
  EXPECT_EQ(SeriesValue(after.value(), slow_series),
            SeriesValue(before.value(), slow_series));
  ASSERT_TRUE(server.value()->Stop().ok());
}

// A tracked body must name exactly the tenant's tracked columns, in spec
// order, for the very session it lands in; a malformed one is refused the
// way a malformed full-row body is. Either way nothing is folded.
TEST(ServerTest, TrackedIngestRefusesForeignColumnsAndMalformedBodies) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  Result<Client> client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().Open(1, BenchmarkDatasetSpec(2, 12)).ok());
  const std::vector<double> two_rows = {20.0, 30.0, 40.0, 50.0};
  const auto expect_code = [&](std::uint64_t tenant, std::string body,
                               StatusCode want) {
    Result<ResponseBody> response = client.value().Call(
        Verb::kIngestTracked, tenant, 0, std::move(body));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status.code(), want)
        << response.value().status.ToString();
  };

  // Column lists that are well formed but not the spec's.
  for (const std::vector<std::uint64_t>& columns :
       std::vector<std::vector<std::uint64_t>>{{1, 0}, {0, 2}, {0, 99}}) {
    SCOPED_TRACE(columns[1]);
    expect_code(1, TrackedIngestBody(2, columns, two_rows),
                StatusCode::kFailedPrecondition);
  }
  expect_code(1, TrackedIngestBody(4, {0}, two_rows),
              StatusCode::kFailedPrecondition);
  expect_code(1, TrackedIngestBody(1, {0, 1, 2, 3}, two_rows),
              StatusCode::kFailedPrecondition);
  // Malformed: an empty list, a list wider than the 9-field schema, a
  // shape mismatch, and trailing bytes.
  expect_code(1, TrackedIngestBody(0, {}, {}), StatusCode::kInvalidArgument);
  expect_code(1, TrackedIngestBody(2, {}, two_rows),
              StatusCode::kInvalidArgument);
  expect_code(1,
              TrackedIngestBody(0, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}),
              StatusCode::kInvalidArgument);
  expect_code(1, TrackedIngestBody(3, {0, 1}, two_rows),
              StatusCode::kInvalidArgument);
  expect_code(1, TrackedIngestBody(2, {0, 1}, {20.0, 30.0, 40.0}),
              StatusCode::kInvalidArgument);
  expect_code(1, TrackedIngestBody(2, {0, 1}, two_rows) + "x",
              StatusCode::kInvalidArgument);
  // A non-finite value rejects the batch.
  expect_code(1, TrackedIngestBody(2, {0, 1}, {20.0, 30.0, 40.0, NAN}),
              StatusCode::kInvalidArgument);
  // An unopened tenant.
  expect_code(2, TrackedIngestBody(2, {0, 1}, two_rows),
              StatusCode::kNotFound);
  Result<OpenResult> untouched = client.value().Open(1, BenchmarkDatasetSpec(2, 12));
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(untouched.value().record_count, 0u);

  // Another connection closes tenant 5 and reopens it tracking other
  // columns: this connection's rows were cut for the old spec and are
  // refused, while the reopening connection ships the new columns.
  api::DatasetSessionSpec other = BenchmarkDatasetSpec(0, 12);
  for (const std::size_t column : {3, 5}) {
    api::AttributeSpec attr = BenchmarkDatasetSpec(1, 12).attributes[0];
    attr.column = column;
    other.attributes.push_back(attr);
  }
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(16, &num_cols);
  ASSERT_TRUE(client.value().Open(5, BenchmarkDatasetSpec(2, 12)).ok());
  ASSERT_TRUE(client.value().Ingest(5, 16, num_cols, rows).ok());
  Result<Client> second = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().CloseTenant(5).ok());
  ASSERT_TRUE(second.value().Open(5, other).ok());
  Result<std::uint64_t> stale = client.value().Ingest(5, 16, num_cols, rows);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition)
      << stale.status().ToString();
  Result<std::uint64_t> fresh = second.value().Ingest(5, 16, num_cols, rows);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value(), 16u);

  // The reopened tenant folded exactly the new columns of those 16 rows.
  Result<std::unique_ptr<api::DatasetSession>> direct =
      api::DatasetSession::Open(other);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(
      direct.value()->Ingest(data::RowBatch(rows.data(), 16, num_cols)).ok());
  const auto expected = direct.value()->ReconstructAll();
  ASSERT_TRUE(expected.ok());
  Result<std::vector<AttributeEstimate>> served =
      second.value().Reconstruct(5);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served.value().size(), 2u);
  for (std::size_t a = 0; a < 2; ++a) {
    EXPECT_EQ(served.value()[a].masses, expected.value()[a].masses);
  }
  ASSERT_TRUE(server.value()->Stop().ok());
}

/// What a daemon must do with an ingest_tracked body for a tenant that
/// tracks `spec_columns`: nullopt to refuse it, or the rows it folds
/// (possibly none). An independent reading of the wire format.
std::optional<std::pair<std::uint64_t, std::vector<double>>> ExpectedFold(
    const std::string& body, const std::vector<std::uint64_t>& spec_columns,
    std::uint64_t schema_width) {
  store::Reader reader(body);
  const Result<std::uint64_t> rows = reader.ReadU64();
  if (!rows.ok()) return std::nullopt;
  const Result<std::vector<std::uint64_t>> columns = reader.ReadU64Array();
  if (!columns.ok()) return std::nullopt;
  const Result<std::vector<double>> values = reader.ReadDoubleArray();
  if (!values.ok() || !reader.AtEnd()) return std::nullopt;
  const std::uint64_t cols = columns.value().size();
  const std::uint64_t size = values.value().size();
  if (cols == 0 || cols > schema_width ||
      (rows.value() == 0 ? size != 0
                         : size / rows.value() != cols ||
                               size % rows.value() != 0)) {
    return std::nullopt;
  }
  if (columns.value() != spec_columns) return std::nullopt;
  for (const double value : values.value()) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return std::make_pair(rows.value(), values.value());
}

// Seeded mutations of valid tracked-ingest bodies — byte overwrites in
// every field, boundary counts, truncations, appended bytes — sent to a
// live daemon. Each must answer an error and fold nothing, or fold
// exactly the rows an independent reading of the body finds: the running
// record count matches after every request, and the final estimates are
// byte-identical to a direct session fed the accepted rows.
TEST(ServerTest, SeededTrackedIngestMutationsAreStatusesOrExactFolds) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  const std::vector<std::uint64_t> spec_columns = {0, 1};
  ASSERT_TRUE(client.value().Open(1, spec).ok());
  Result<std::unique_ptr<api::DatasetSession>> mirror =
      api::DatasetSession::Open(spec);
  ASSERT_TRUE(mirror.ok());

  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(40, &num_cols);
  std::vector<std::string> seeds;
  for (const std::uint64_t n : {0, 1, 3, 40}) {
    store::Writer writer;
    writer.PutU64(n);
    writer.PutU64Array(spec_columns);
    writer.PutDoubleColumns(rows.data(), n, num_cols, spec_columns);
    seeds.push_back(writer.Take());
  }
  std::mt19937_64 rng(0x7EACC0DEULL);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  std::uint64_t folded = 0;
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int iteration = 0; iteration < 1500; ++iteration) {
    std::string body = seeds[pick(seeds.size())];
    switch (pick(4)) {
      case 0:  // overwrite 1..3 bytes anywhere
        for (std::uint64_t n = 1 + pick(3); n > 0; --n) {
          body[pick(body.size())] = static_cast<char>(pick(256));
        }
        break;
      case 1: {  // a boundary value in one of the three count words
        const std::uint64_t counts[] = {0, 1, 2, 3, 9, 10, 80,
                                        1ULL << 61, ~0ULL};
        const std::size_t offsets[] = {0, 8, 8 + 8 + 8 * spec_columns.size()};
        store::Writer word;
        word.PutU64(counts[pick(9)]);
        body.replace(offsets[pick(3)], 8, word.Take());
        break;
      }
      case 2:  // truncation
        body.resize(pick(body.size()));
        break;
      default:  // appended bytes
        body.append(1 + pick(16), static_cast<char>(pick(256)));
        break;
    }
    SCOPED_TRACE(iteration);
    const auto expected = ExpectedFold(body, spec_columns, num_cols);
    Result<ResponseBody> response =
        client.value().Call(Verb::kIngestTracked, 1, 0, body);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (!expected.has_value()) {
      ++refused;
      EXPECT_FALSE(response.value().status.ok());
      continue;
    }
    ++accepted;
    ASSERT_TRUE(response.value().status.ok())
        << response.value().status.ToString();
    const auto& [n, values] = *expected;
    if (n > 0) {
      ASSERT_TRUE(mirror.value()
                      ->IngestTracked(data::RowBatch(
                          values.data(), n, spec_columns.size()))
                      .ok());
    }
    folded += n;
    store::Reader ack(response.value().payload);
    EXPECT_EQ(ack.ReadU64().value(), folded);
  }
  // The property must not hold vacuously either way.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(refused, 100u);
  const auto want = mirror.value()->ReconstructAll();
  ASSERT_TRUE(want.ok());
  Result<std::vector<AttributeEstimate>> served = client.value().Reconstruct(1);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served.value().size(), want.value().size());
  for (std::size_t a = 0; a < served.value().size(); ++a) {
    EXPECT_EQ(served.value()[a].masses, want.value()[a].masses);
    EXPECT_EQ(served.value()[a].sample_count, want.value()[a].sample_count);
  }
  ASSERT_TRUE(server.value()->Stop().ok());
}


// ------------------------------------------------- conditional reconstruct

/// A tagged reconstruct body: the fit tag the peer holds (0 for none).
std::string FitTagBody(std::uint64_t tag) {
  store::Writer writer;
  writer.PutU64(tag);
  return writer.Take();
}

/// Every field of a served answer against the in-process one.
void ExpectSameEstimates(const std::vector<AttributeEstimate>& served,
                         const std::vector<reconstruct::Reconstruction>& want) {
  ASSERT_EQ(served.size(), want.size());
  for (std::size_t a = 0; a < served.size(); ++a) {
    EXPECT_EQ(served[a].masses, want[a].masses) << "attribute " << a;
    EXPECT_EQ(served[a].iterations, want[a].iterations) << "attribute " << a;
    EXPECT_EQ(served[a].sample_count, want[a].sample_count)
        << "attribute " << a;
  }
}

// Tenant names key the registry, the captures on disk and the span
// labels, so their bytes never change.
TEST(ServerTest, TenantNamesArePinned) {
  EXPECT_EQ(TenantName(0), "t0");
  EXPECT_EQ(TenantName(42), "t42");
  EXPECT_EQ(TenantName(std::numeric_limits<std::uint64_t>::max()),
            "t18446744073709551615");
}

// Client::Reconstruct sends the fit tag it holds; while the daemon still
// serves that fit the answer is the tag alone, and the client answers from
// the held masses. After every batch, and again back to back, every answer
// equals a direct session refreshed at the same points: masses bit for
// bit, iterations and sample count. The short answers are exactly the
// direct session's memo hits.
TEST(ServerTest, ConditionalReconstructMatchesADirectSessionStepByStep) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(1200, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  const std::size_t batch_rows = 25;
  obs::Counter* unchanged = obs::MetricsRegistry::Global().GetCounter(
      "ppdm_net_reconstruct_unchanged_total");

  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Result<std::unique_ptr<Server>> server =
        Server::Start(LoopbackOptions(threads));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Result<Client> client =
        Client::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Open(3, spec).ok());
    Result<std::unique_ptr<api::DatasetSession>> direct =
        api::DatasetSession::Open(spec);
    ASSERT_TRUE(direct.ok());

    const std::uint64_t unchanged_before = unchanged->Value();
    std::uint64_t memo_hits = 0;
    std::uint64_t direct_tag = 0;
    for (std::size_t r = 0; r < num_rows; r += batch_rows) {
      const std::size_t n = std::min(batch_rows, num_rows - r);
      const std::vector<double> batch(rows.begin() + r * num_cols,
                                      rows.begin() + (r + n) * num_cols);
      ASSERT_TRUE(client.value().Ingest(3, n, num_cols, batch).ok());
      ASSERT_TRUE(direct.value()
                      ->Ingest(data::RowBatch(batch.data(), n, num_cols))
                      .ok());
      for (int repeat = 0; repeat < 2; ++repeat) {
        SCOPED_TRACE("rows=" + std::to_string(r + n) +
                     " repeat=" + std::to_string(repeat));
        std::uint64_t tag = 0;
        const auto want = direct.value()->ReconstructAll(0, &tag);
        ASSERT_TRUE(want.ok());
        ASSERT_NE(tag, 0u);
        if (tag == direct_tag) ++memo_hits;
        direct_tag = tag;
        Result<std::vector<AttributeEstimate>> served =
            client.value().Reconstruct(3);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ExpectSameEstimates(served.value(), want.value());
      }
    }
    // Every back-to-back repeat is a memo hit, and so are some batches.
    EXPECT_GT(memo_hits, num_rows / batch_rows);
    EXPECT_EQ(unchanged->Value() - unchanged_before, memo_hits);
    ASSERT_TRUE(server.value()->Stop().ok());
  }
}

// A held tag names one installed fit of one session, so it is answered in
// full once the tenant is another session: closed and reopened by another
// connection and fed as many rows with other values, or readmitted from
// the spill tier with the very same memo.
TEST(ServerTest, HeldFitIsAnsweredInFullAfterReopenOrReadmission) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(400, &num_cols);
  const std::size_t half = rows.size() / num_cols / 2;
  const std::vector<double> first(rows.begin(), rows.begin() + half * num_cols);
  const std::vector<double> other(rows.begin() + half * num_cols, rows.end());
  obs::Counter* unchanged = obs::MetricsRegistry::Global().GetCounter(
      "ppdm_net_reconstruct_unchanged_total");

  {
    SCOPED_TRACE("closed and reopened elsewhere");
    Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
    ASSERT_TRUE(server.ok());
    Result<Client> holder =
        Client::Connect("127.0.0.1", server.value()->port());
    Result<Client> other_client =
        Client::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(holder.ok() && other_client.ok());
    ASSERT_TRUE(holder.value().Open(5, spec).ok());
    ASSERT_TRUE(holder.value().Ingest(5, half, num_cols, first).ok());
    Result<std::vector<AttributeEstimate>> held =
        holder.value().Reconstruct(5);
    ASSERT_TRUE(held.ok());

    ASSERT_TRUE(other_client.value().CloseTenant(5).ok());
    ASSERT_TRUE(other_client.value().Open(5, spec).ok());
    ASSERT_TRUE(other_client.value().Ingest(5, half, num_cols, other).ok());
    ASSERT_TRUE(other_client.value().Reconstruct(5).ok());  // installs

    Result<std::unique_ptr<api::DatasetSession>> direct =
        api::DatasetSession::Open(spec);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(direct.value()
                    ->Ingest(data::RowBatch(other.data(), half, num_cols))
                    .ok());
    ASSERT_TRUE(direct.value()->ReconstructAll().ok());
    const auto want = direct.value()->ReconstructAll();  // a memo hit
    ASSERT_TRUE(want.ok());

    const std::uint64_t before = unchanged->Value();
    Result<std::vector<AttributeEstimate>> served =
        holder.value().Reconstruct(5);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(unchanged->Value(), before);
    ExpectSameEstimates(served.value(), want.value());
    EXPECT_NE(served.value()[0].masses, held.value()[0].masses);
    ASSERT_TRUE(server.value()->Stop().ok());
  }

  {
    SCOPED_TRACE("readmitted from spill");
    TempDir dir;
    ServerOptions options = LoopbackOptions(2);
    options.checkpoint_dir = dir.path;
    options.registry_max_bytes = 1;  // only the last tenant touched stays
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    ASSERT_TRUE(server.ok());
    Result<Client> client =
        Client::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().Open(1, spec).ok());
    ASSERT_TRUE(client.value().Ingest(1, half, num_cols, first).ok());
    Result<std::vector<AttributeEstimate>> fit = client.value().Reconstruct(1);
    ASSERT_TRUE(fit.ok());
    std::uint64_t before = unchanged->Value();
    Result<std::vector<AttributeEstimate>> resident =
        client.value().Reconstruct(1);
    ASSERT_TRUE(resident.ok());
    EXPECT_EQ(unchanged->Value(), before + 1);

    ASSERT_TRUE(client.value().Open(2, spec).ok());  // demotes tenant 1
    ASSERT_EQ(server.value()->registry_stats().spilled_sessions, 1u);
    before = unchanged->Value();
    Result<std::vector<AttributeEstimate>> readmitted =
        client.value().Reconstruct(1);
    ASSERT_TRUE(readmitted.ok()) << readmitted.status().ToString();
    EXPECT_EQ(unchanged->Value(), before);
    ASSERT_EQ(readmitted.value().size(), fit.value().size());
    for (std::size_t a = 0; a < fit.value().size(); ++a) {
      EXPECT_EQ(readmitted.value()[a].masses, fit.value()[a].masses);
      EXPECT_EQ(readmitted.value()[a].iterations, 0u);
      EXPECT_EQ(readmitted.value()[a].sample_count, half);
    }
    // The readmitted session's own tag is held from here on.
    ASSERT_TRUE(client.value().Reconstruct(1).ok());
    EXPECT_EQ(unchanged->Value(), before + 1);
    ASSERT_TRUE(server.value()->Stop().ok());
  }
}

// The wire form: an empty body is answered as it always was; an 8-byte
// body is answered [u64 tag] + that same payload, or the tag alone when it
// is the served fit's; any other length is kInvalidArgument.
TEST(ServerTest, TaggedReconstructFramesAnswerUnchangedInEightBytes) {
  Result<std::unique_ptr<Server>> server = Server::Start(LoopbackOptions(2));
  ASSERT_TRUE(server.ok());
  Result<Client> client = Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(200, &num_cols);
  ASSERT_TRUE(client.value().Open(4, spec).ok());
  ASSERT_TRUE(
      client.value().Ingest(4, rows.size() / num_cols, num_cols, rows).ok());
  const auto reconstruct = [&](std::string body) {
    return AckPayload(
        client.value().Call(Verb::kReconstruct, 4, 0, std::move(body)));
  };

  ASSERT_TRUE(reconstruct("").ok());  // the refit
  const Result<std::string> untagged = reconstruct("");  // a memo hit
  const Result<std::string> full = reconstruct(FitTagBody(0));
  ASSERT_TRUE(untagged.ok() && full.ok());
  ASSERT_GT(full.value().size(), 8u);
  store::Reader reader(full.value());
  const std::uint64_t tag = reader.ReadU64().value();
  ASSERT_NE(tag, 0u);
  EXPECT_EQ(full.value().substr(8), untagged.value());

  const Result<std::string> same = reconstruct(FitTagBody(tag));
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(same.value(), FitTagBody(tag));
  const Result<std::string> stale = reconstruct(FitTagBody(tag + 1));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value(), full.value());

  for (const std::string& body :
       {std::string("x"), std::string(7, '\0'), FitTagBody(tag) + "x"}) {
    SCOPED_TRACE(std::to_string(body.size()) + "-byte body");
    Result<ResponseBody> response =
        client.value().Call(Verb::kReconstruct, 4, 0, body);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status.code(), StatusCode::kInvalidArgument)
        << response.value().status.ToString();
  }
  ASSERT_TRUE(server.value()->Stop().ok());
}

// A reconstruct answer the client cannot trust is a Status, never an
// abort: an attribute count far past the bytes that follow, a count whose
// estimates are cut short, and an "unchanged" answer on a connection that
// holds no fit. Each comes from a fake daemon that answers one frame.
TEST(ClientTest, MalformedReconstructAnswersAreStatusesNotAborts) {
  const auto payload = [](std::initializer_list<std::uint64_t> words) {
    store::Writer writer;
    for (const std::uint64_t word : words) writer.PutU64(word);
    return writer.Take();
  };
  for (const std::string& answer :
       {payload({1, std::uint64_t{1} << 40}), payload({1, 2, 0, 10, 0}),
        payload({7})}) {
    SCOPED_TRACE(std::to_string(answer.size()) + "-byte answer");
    Result<Socket> listener = ListenTcp("127.0.0.1", 0, 1);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    const Result<int> port = BoundPort(listener.value());
    ASSERT_TRUE(port.ok());
    std::thread daemon([&] {
      const Socket peer(::accept(listener.value().fd(), nullptr, nullptr));
      char header_bytes[kHeaderSize];
      if (!ReadExact(peer.fd(), header_bytes, kHeaderSize).ok()) return;
      const Result<FrameHeader> header = DecodeHeader(
          std::string_view(header_bytes, kHeaderSize), kDefaultMaxBodyBytes);
      if (!header.ok()) return;
      std::string body(static_cast<std::size_t>(header.value().body_length),
                       '\0');
      if (!ReadExact(peer.fd(), body.data(), body.size()).ok()) return;
      (void)WriteAll(peer.fd(),
                     EncodeFrame(header.value().verb,
                                 header.value().request_id,
                                 header.value().tenant, 0,
                                 EncodeResponseBody(Status::Ok(), answer)));
    });
    Result<Client> client = Client::Connect("127.0.0.1", port.value());
    ASSERT_TRUE(client.ok());
    Result<std::vector<AttributeEstimate>> estimates =
        client.value().Reconstruct(1);
    daemon.join();
    EXPECT_EQ(estimates.status().code(), StatusCode::kIoError)
        << estimates.status().ToString();
  }
}

}  // namespace
}  // namespace ppdm::net
