#include "net/client.h"

#include <utility>

#include "common/strings.h"
#include "store/codec.h"
#include "store/session_codec.h"

namespace ppdm::net {

Result<Client> Client::Connect(const std::string& host, int port) {
  PPDM_ASSIGN_OR_RETURN(Socket sock, ConnectTcp(host, port));
  return Client(std::move(sock));
}

Status Client::SendRaw(std::string_view bytes) {
  return WriteAll(sock_.fd(), bytes);
}

Result<Frame> Client::ReadFrame() {
  char header_bytes[kHeaderSize];
  PPDM_RETURN_IF_ERROR(ReadExact(sock_.fd(), header_bytes, kHeaderSize));
  Frame frame;
  PPDM_ASSIGN_OR_RETURN(
      frame.header, DecodeHeader(std::string_view(header_bytes, kHeaderSize),
                                 kDefaultMaxBodyBytes));
  frame.body.resize(static_cast<std::size_t>(frame.header.body_length));
  if (!frame.body.empty()) {
    PPDM_RETURN_IF_ERROR(
        ReadExact(sock_.fd(), frame.body.data(), frame.body.size()));
  }
  PPDM_RETURN_IF_ERROR(VerifyBody(frame.header, frame.body));
  return frame;
}

Result<ResponseBody> Client::Call(Verb verb, std::uint64_t tenant,
                                  std::uint32_t ttl_ms,
                                  std::string_view payload) {
  const std::uint64_t request_id = next_request_id_++;
  PPDM_RETURN_IF_ERROR(SendRaw(
      EncodeFrame(verb, request_id, tenant, ttl_ms, payload, trace_id_)));
  PPDM_ASSIGN_OR_RETURN(const Frame frame, ReadFrame());
  if (frame.header.request_id != request_id) {
    return Status::Internal(StrFormat(
        "response correlates request %llu, expected %llu",
        static_cast<unsigned long long>(frame.header.request_id),
        static_cast<unsigned long long>(request_id)));
  }
  return DecodeResponseBody(frame.body);
}

namespace {

/// Unwraps a Call: transport errors pass through; an error envelope
/// becomes the wrapper's error; otherwise yields the payload.
Result<std::string> Payload(Result<ResponseBody> response) {
  PPDM_RETURN_IF_ERROR(response.status());
  if (!response.value().status.ok()) return response.value().status;
  return std::move(response.value().payload);
}

}  // namespace

Result<OpenResult> Client::Open(std::uint64_t tenant,
                                const api::DatasetSessionSpec& spec,
                                std::uint32_t ttl_ms) {
  store::Writer writer;
  store::EncodeDatasetSessionSpec(spec, &writer);
  PPDM_ASSIGN_OR_RETURN(
      const std::string payload,
      Payload(Call(Verb::kOpen, tenant, ttl_ms, writer.Take())));
  store::Reader reader(payload);
  OpenResult result;
  PPDM_ASSIGN_OR_RETURN(const std::uint8_t resumed, reader.ReadU8());
  result.resumed = resumed != 0;
  PPDM_ASSIGN_OR_RETURN(result.record_count, reader.ReadU64());
  // The daemon validated the spec before it answered; checking it here
  // too keeps every gather index inside the row, whoever answered.
  if (!spec.Validate().ok()) return result;
  TrackedLayout& layout = tracked_[tenant];
  layout.width = spec.schema.NumFields();
  layout.columns.clear();
  for (const api::AttributeSpec& attr : spec.attributes) {
    layout.columns.push_back(attr.column);
  }
  return result;
}

Result<std::uint64_t> Client::Ingest(std::uint64_t tenant, std::uint64_t rows,
                                     std::uint64_t cols,
                                     const std::vector<double>& values,
                                     std::uint32_t ttl_ms) {
  store::Writer writer;
  Verb verb = Verb::kIngest;
  const auto tracked = tracked_.find(tenant);
  // Division-only, like the daemon's shape check: the gather below reads
  // exactly rows * cols values.
  if (tracked != tracked_.end() && cols == tracked->second.width &&
      values.size() / cols == rows && values.size() % cols == 0) {
    const std::vector<std::uint64_t>& columns = tracked->second.columns;
    verb = Verb::kIngestTracked;
    writer.Reserve((3 + columns.size() + rows * columns.size()) *
                   sizeof(std::uint64_t));
    writer.PutU64(rows);
    writer.PutU64Array(columns);
    writer.PutDoubleColumns(values.data(), static_cast<std::size_t>(rows),
                            static_cast<std::size_t>(cols), columns);
  } else {
    writer.Reserve(3 * sizeof(std::uint64_t) +
                   values.size() * sizeof(double));
    writer.PutU64(rows);
    writer.PutU64(cols);
    writer.PutDoubleArray(values);
  }
  PPDM_ASSIGN_OR_RETURN(const std::string payload,
                        Payload(Call(verb, tenant, ttl_ms, writer.Take())));
  store::Reader reader(payload);
  return reader.ReadU64();
}

Result<std::vector<AttributeEstimate>> Client::Reconstruct(
    std::uint64_t tenant, std::uint32_t ttl_ms) {
  const auto held = fits_.find(tenant);
  const std::uint64_t held_tag = held == fits_.end() ? 0 : held->second.tag;
  store::Writer request;
  request.PutU64(held_tag);
  PPDM_ASSIGN_OR_RETURN(
      const std::string payload,
      Payload(Call(Verb::kReconstruct, tenant, ttl_ms, request.Take())));
  store::Reader reader(payload);
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t tag, reader.ReadU64());
  if (reader.AtEnd()) {
    // "Unchanged": the daemon still serves the fit held here, and a memo
    // hit answers it with no EM.
    if (held_tag == 0 || tag != held_tag) {
      return Status::IoError(StrFormat(
          "reconstruct answered fit tag %llu alone; this connection holds "
          "%llu",
          static_cast<unsigned long long>(tag),
          static_cast<unsigned long long>(held_tag)));
    }
    return held->second.estimates;
  }
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t count, reader.ReadU64());
  // Each estimate takes at least its iterations, sample count and mass
  // count, so a count the answer cannot hold allocates nothing.
  if (count > reader.remaining() / (3 * sizeof(std::uint64_t))) {
    return Status::IoError(StrFormat(
        "reconstruct answer claims %llu estimate(s), %zu byte(s) left",
        static_cast<unsigned long long>(count), reader.remaining()));
  }
  std::vector<AttributeEstimate> estimates;
  estimates.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t a = 0; a < count; ++a) {
    AttributeEstimate estimate;
    PPDM_ASSIGN_OR_RETURN(estimate.iterations, reader.ReadU64());
    PPDM_ASSIGN_OR_RETURN(estimate.sample_count, reader.ReadU64());
    PPDM_ASSIGN_OR_RETURN(estimate.masses, reader.ReadDoubleArray());
    estimates.push_back(std::move(estimate));
  }
  if (tag == 0) {
    fits_.erase(tenant);
  } else {
    HeldFit& fit = fits_[tenant];
    fit.tag = tag;
    fit.estimates = estimates;
    for (AttributeEstimate& estimate : fit.estimates) estimate.iterations = 0;
  }
  return estimates;
}

Result<std::uint64_t> Client::Snapshot(std::uint64_t tenant,
                                       std::uint32_t ttl_ms) {
  PPDM_ASSIGN_OR_RETURN(const std::string payload,
                        Payload(Call(Verb::kSnapshot, tenant, ttl_ms, "")));
  store::Reader reader(payload);
  return reader.ReadU64();
}

Status Client::CloseTenant(std::uint64_t tenant, std::uint32_t ttl_ms) {
  tracked_.erase(tenant);
  fits_.erase(tenant);
  return Payload(Call(Verb::kClose, tenant, ttl_ms, "")).status();
}

Result<std::string> Client::Stats(std::uint32_t ttl_ms) {
  PPDM_ASSIGN_OR_RETURN(const std::string payload,
                        Payload(Call(Verb::kStats, /*tenant=*/0, ttl_ms, "")));
  store::Reader reader(payload);
  return reader.ReadString();
}

Result<std::string> Client::Trace(std::uint32_t ttl_ms) {
  PPDM_ASSIGN_OR_RETURN(
      const std::string payload,
      Payload(Call(Verb::kStats, /*tenant=*/0, ttl_ms,
                   std::string_view("\x01", 1))));
  store::Reader reader(payload);
  PPDM_RETURN_IF_ERROR(reader.ReadString().status());  // exposition text
  return reader.ReadString();
}

}  // namespace ppdm::net
