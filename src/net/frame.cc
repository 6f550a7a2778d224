#include "net/frame.h"

#include "common/strings.h"
#include "store/codec.h"

namespace ppdm::net {

std::string VerbName(std::uint32_t verb) {
  switch (static_cast<Verb>(verb)) {
    case Verb::kOpen: return "open";
    case Verb::kIngest: return "ingest";
    case Verb::kReconstruct: return "reconstruct";
    case Verb::kSnapshot: return "snapshot";
    case Verb::kClose: return "close";
    case Verb::kStats: return "stats";
    case Verb::kIngestTracked: return "ingest_tracked";
  }
  return StrFormat("verb#%u", verb);
}

bool KnownVerb(std::uint32_t verb) {
  return verb >= static_cast<std::uint32_t>(Verb::kOpen) &&
         verb <= kLastVerb;
}

namespace {

/// Little-endian u32 read straight off the buffer — HeaderBytesNeeded
/// peeks at the magic and version words of a partial header.
std::uint32_t PeekU32(std::string_view bytes, std::size_t offset) {
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(bytes[offset + i]));
  };
  return byte(0) | byte(1) << 8 | byte(2) << 16 | byte(3) << 24;
}

}  // namespace

std::string EncodeFrame(std::uint32_t verb, std::uint64_t request_id,
                        std::uint64_t tenant, std::uint32_t ttl_ms,
                        std::string_view body, std::uint64_t trace_id) {
  // One allocation for the whole frame, and the body is appended once.
  store::Writer writer;
  writer.Reserve(kHeaderSize + body.size());
  writer.PutU32(kFrameMagic);
  writer.PutU32(kProtocolVersion);
  writer.PutU32(verb);
  writer.PutU64(request_id);
  writer.PutU64(tenant);
  writer.PutU32(ttl_ms);
  writer.PutU64(trace_id);
  writer.PutU64(body.size());
  writer.PutU32(store::Crc32(body));
  writer.PutRaw(body);
  return writer.Take();
}

std::size_t HeaderBytesNeeded(std::string_view bytes) {
  // A non-frame prefix or another version's peer must fail fast, not
  // wait for bytes that may never come.
  if (bytes.size() >= 4 && PeekU32(bytes, 0) != kFrameMagic) return 0;
  if (bytes.size() >= 8 && PeekU32(bytes, 4) != kProtocolVersion) return 0;
  return bytes.size() < kHeaderSize ? kHeaderSize - bytes.size() : 0;
}

Result<FrameHeader> DecodeHeader(std::string_view bytes,
                                 std::uint64_t max_body_bytes) {
  if (bytes.size() >= 4 && PeekU32(bytes, 0) != kFrameMagic) {
    return Status::InvalidArgument("not a ppdm net frame (bad magic)");
  }
  if (bytes.size() >= 8 && PeekU32(bytes, 4) != kProtocolVersion) {
    return Status::FailedPrecondition(
        StrFormat("frame version %u not supported (this peer speaks %u)",
                  PeekU32(bytes, 4), kProtocolVersion));
  }
  if (bytes.size() < kHeaderSize) {
    return Status::IoError(StrFormat("truncated frame header: %zu of %zu bytes",
                                     bytes.size(), kHeaderSize));
  }
  store::Reader reader(bytes.substr(8, kHeaderSize - 8));
  FrameHeader header;
  PPDM_ASSIGN_OR_RETURN(header.verb, reader.ReadU32());
  PPDM_ASSIGN_OR_RETURN(header.request_id, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.tenant, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.ttl_ms, reader.ReadU32());
  PPDM_ASSIGN_OR_RETURN(header.trace_id, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.body_length, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.body_crc, reader.ReadU32());
  if (header.body_length > max_body_bytes) {
    return Status::ResourceExhausted(
        StrFormat("frame body of %llu bytes exceeds the %llu-byte cap",
                  static_cast<unsigned long long>(header.body_length),
                  static_cast<unsigned long long>(max_body_bytes)));
  }
  return header;
}

Status VerifyBody(const FrameHeader& header, std::string_view body) {
  if (body.size() != header.body_length) {
    return Status::IoError(
        StrFormat("frame body is %zu bytes, header promised %llu",
                  body.size(),
                  static_cast<unsigned long long>(header.body_length)));
  }
  if (store::Crc32(body) != header.body_crc) {
    return Status::DataLoss("frame body CRC mismatch");
  }
  return Status::Ok();
}

Result<Frame> DecodeFrame(std::string_view bytes,
                          std::uint64_t max_body_bytes) {
  PPDM_ASSIGN_OR_RETURN(const FrameHeader header,
                        DecodeHeader(bytes, max_body_bytes));
  const std::string_view rest = bytes.substr(kHeaderSize);
  if (rest.size() < header.body_length) {
    return Status::IoError(
        StrFormat("truncated frame body: %zu of %llu bytes", rest.size(),
                  static_cast<unsigned long long>(header.body_length)));
  }
  if (rest.size() > header.body_length) {
    return Status::InvalidArgument(
        StrFormat("%zu trailing bytes after the frame body",
                  rest.size() - static_cast<std::size_t>(header.body_length)));
  }
  Frame frame;
  frame.header = header;
  frame.body.assign(rest.data(), rest.size());
  PPDM_RETURN_IF_ERROR(VerifyBody(frame.header, frame.body));
  return frame;
}

std::string EncodeResponseBody(const Status& status,
                               std::string_view payload) {
  store::Writer writer;
  writer.Reserve(12 + status.message().size() + payload.size());
  writer.PutU32(static_cast<std::uint32_t>(status.code()));
  writer.PutString(status.message());
  writer.PutRaw(payload);
  return writer.Take();
}

Result<ResponseBody> DecodeResponseBody(std::string_view body) {
  store::Reader reader(body);
  PPDM_ASSIGN_OR_RETURN(const std::uint32_t code, reader.ReadU32());
  if (code > static_cast<std::uint32_t>(StatusCode::kDataLoss)) {
    return Status::InvalidArgument(
        StrFormat("response carries unknown status code %u", code));
  }
  PPDM_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  ResponseBody response;
  response.status = Status(static_cast<StatusCode>(code), std::move(message));
  response.payload.assign(body.substr(body.size() - reader.remaining()));
  return response;
}

}  // namespace ppdm::net
