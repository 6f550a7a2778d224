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
  }
  return StrFormat("verb#%u", verb);
}

bool KnownVerb(std::uint32_t verb) {
  return verb >= static_cast<std::uint32_t>(Verb::kOpen) &&
         verb <= static_cast<std::uint32_t>(Verb::kStats);
}

namespace {

/// Little-endian u32 read straight off the buffer — HeaderBytesNeeded
/// peeks at the version and trace-length words before a Reader pass is
/// worth setting up.
std::uint32_t PeekU32(std::string_view bytes, std::size_t offset) {
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(bytes[offset + i]));
  };
  return byte(0) | byte(1) << 8 | byte(2) << 16 | byte(3) << 24;
}

/// Offset of the v2 trace-length word (just after ttl_ms).
constexpr std::size_t kTraceLenOffset = 32;

/// Wire size of a v2 header with `trace_chars` hex chars of trace id.
constexpr std::size_t V2HeaderSize(std::size_t trace_chars) {
  return 48 + trace_chars;
}

}  // namespace

std::string EncodeFrame(std::uint32_t verb, std::uint64_t request_id,
                        std::uint64_t tenant, std::uint32_t ttl_ms,
                        std::string_view body, std::uint64_t trace_id) {
  // One allocation for the whole frame, and the body is appended once.
  store::Writer writer;
  writer.Reserve(
      (trace_id == 0 ? kHeaderSize : V2HeaderSize(kMaxTraceHexChars)) +
      body.size());
  writer.PutU32(kFrameMagic);
  writer.PutU32(trace_id == 0 ? 1u : 2u);  // v1 unless a trace id rides
  writer.PutU32(verb);
  writer.PutU64(request_id);
  writer.PutU64(tenant);
  writer.PutU32(ttl_ms);
  if (trace_id != 0) {
    writer.PutU32(kMaxTraceHexChars);
    writer.PutRaw(
        StrFormat("%016llx", static_cast<unsigned long long>(trace_id)));
  }
  writer.PutU64(body.size());
  writer.PutU32(store::Crc32(body));
  writer.PutRaw(body);
  return writer.Take();
}

std::size_t HeaderBytesNeeded(std::string_view bytes) {
  // Enough to check the magic first: a non-frame prefix must fail fast,
  // not wait for bytes that will never come.
  if (bytes.size() < 4) return 4 - bytes.size();
  if (PeekU32(bytes, 0) != kFrameMagic) return 0;
  if (bytes.size() < 8) return 8 - bytes.size();
  if (PeekU32(bytes, 4) != 2) {
    // v1 (and any unsupported version, which a 44-byte prefix suffices
    // to report) uses the fixed layout.
    return bytes.size() < kHeaderSize ? kHeaderSize - bytes.size() : 0;
  }
  if (bytes.size() < kTraceLenOffset + 4) {
    return kTraceLenOffset + 4 - bytes.size();
  }
  const std::uint32_t trace_chars = PeekU32(bytes, kTraceLenOffset);
  if (trace_chars > kMaxTraceHexChars) return 0;  // hostile — report now
  const std::size_t total = V2HeaderSize(trace_chars);
  return bytes.size() < total ? total - bytes.size() : 0;
}

Result<FrameHeader> DecodeHeader(std::string_view bytes,
                                 std::uint64_t max_body_bytes) {
  if (bytes.size() >= 4 && PeekU32(bytes, 0) != kFrameMagic) {
    return Status::InvalidArgument("not a ppdm net frame (bad magic)");
  }
  if (bytes.size() < 8) {
    return Status::IoError(
        StrFormat("truncated frame header: %zu of at least %zu bytes",
                  bytes.size(), static_cast<std::size_t>(8)));
  }
  FrameHeader header;
  header.version = PeekU32(bytes, 4);
  if (header.version == 0 || header.version > kProtocolVersion) {
    return Status::FailedPrecondition(
        StrFormat("frame version %u not supported (this peer speaks 1..%u)",
                  header.version, kProtocolVersion));
  }
  std::size_t trace_chars = 0;
  if (header.version == 2) {
    if (bytes.size() < kTraceLenOffset + 4) {
      return Status::IoError(
          StrFormat("truncated frame header: %zu of at least %zu bytes",
                    bytes.size(), kTraceLenOffset + 4));
    }
    const std::uint32_t declared = PeekU32(bytes, kTraceLenOffset);
    if (declared > kMaxTraceHexChars) {
      return Status::InvalidArgument(
          StrFormat("trace id of %u chars exceeds the %u-char cap", declared,
                    kMaxTraceHexChars));
    }
    trace_chars = declared;
    header.header_size = V2HeaderSize(trace_chars);
  } else {
    header.header_size = kHeaderSize;
  }
  if (bytes.size() < header.header_size) {
    return Status::IoError(
        StrFormat("truncated frame header: %zu of %zu bytes", bytes.size(),
                  header.header_size));
  }
  store::Reader reader(bytes.substr(8, 24));
  PPDM_ASSIGN_OR_RETURN(header.verb, reader.ReadU32());
  PPDM_ASSIGN_OR_RETURN(header.request_id, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.tenant, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.ttl_ms, reader.ReadU32());
  std::size_t tail_offset = kTraceLenOffset;
  if (header.version == 2) {
    // Trace id: hex chars from an untrusted peer. Anything but lowercase
    // hex naming a nonzero u64 is hostile.
    for (std::size_t i = 0; i < trace_chars; ++i) {
      const char c = bytes[kTraceLenOffset + 4 + i];
      const std::uint64_t digit =
          c >= '0' && c <= '9'   ? static_cast<std::uint64_t>(c - '0')
          : c >= 'a' && c <= 'f' ? static_cast<std::uint64_t>(c - 'a' + 10)
                                 : 16;
      if (digit >= 16) {
        return Status::InvalidArgument(
            "frame trace id holds non-hex characters");
      }
      header.trace_id = header.trace_id << 4 | digit;
    }
    if (trace_chars > 0 && header.trace_id == 0) {
      return Status::InvalidArgument("frame trace id must be nonzero");
    }
    tail_offset = kTraceLenOffset + 4 + trace_chars;
  }
  store::Reader tail(bytes.substr(tail_offset, 12));
  PPDM_ASSIGN_OR_RETURN(header.body_length, tail.ReadU64());
  if (header.body_length > max_body_bytes) {
    return Status::ResourceExhausted(
        StrFormat("frame body of %llu bytes exceeds the %llu-byte cap",
                  static_cast<unsigned long long>(header.body_length),
                  static_cast<unsigned long long>(max_body_bytes)));
  }
  PPDM_ASSIGN_OR_RETURN(header.body_crc, tail.ReadU32());
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
  const std::string_view rest = bytes.substr(header.header_size);
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
