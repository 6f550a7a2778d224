#include "store/codec.h"

#include <cstring>

#include "common/check.h"
#include "common/strings.h"
#include "engine/simd.h"
#include "obs/metrics.h"

namespace ppdm::store {
namespace {

// Every CRC32 mismatch a reader hits — corruption actually observed on
// the wire/disk, the number an operator alerts on.
obs::Counter& CrcFailuresCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_store_crc_failures_total");
  return counter;
}

// Arrays travel as the little-endian bytes of their elements, which on a
// little-endian host are the elements' own bytes: one memcpy each way.
// Big-endian hosts keep the element loop.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kLittleEndianHost = true;
#else
constexpr bool kLittleEndianHost = false;
#endif

/// Appends `values` as the little-endian bytes of each 8-byte element.
template <typename T>
void AppendLeArray(const std::vector<T>& values, std::string* buf) {
  static_assert(sizeof(T) == 8, "u64 and IEEE-754 double elements");
  if constexpr (kLittleEndianHost) {
    buf->append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(T));
  } else {
    for (const T& value : values) {
      std::uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        buf->push_back(static_cast<char>((bits >> shift) & 0xFFu));
      }
    }
  }
}

/// Fills `*out` from `out->size()` little-endian 8-byte elements at
/// `bytes` (the caller has bounds-checked them).
template <typename T>
void CopyLeArray(const char* bytes, std::vector<T>* out) {
  static_assert(sizeof(T) == 8, "u64 and IEEE-754 double elements");
  if constexpr (kLittleEndianHost) {
    if (!out->empty()) std::memcpy(out->data(), bytes, out->size() * sizeof(T));
  } else {
    for (T& value : *out) {
      std::uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(bytes[i]))
                << (8 * i);
      }
      std::memcpy(&value, &bits, sizeof(bits));
      bytes += 8;
    }
  }
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  return engine::simd::Crc32(data, size, engine::simd::ActivePath());
}

// ------------------------------------------------------------------ Writer

void Writer::PutHeader(std::uint32_t version) {
  PPDM_CHECK_MSG(buf_.empty(), "PutHeader must be the first write");
  buf_.append(kMagic, sizeof(kMagic));
  PutU32(version);
}

void Writer::PutU8(std::uint8_t value) {
  buf_.push_back(static_cast<char>(value));
}

void Writer::PutU32(std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
  buf_.append(bytes, sizeof(bytes));
}

void Writer::PutU64(std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
  buf_.append(bytes, sizeof(bytes));
}

void Writer::PutDouble(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "IEEE-754 doubles expected");
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void Writer::PutString(std::string_view value) {
  PutU64(value.size());
  PutRaw(value);
}

void Writer::PutRaw(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
}

void Writer::PutU64Array(const std::vector<std::uint64_t>& values) {
  PutU64(values.size());
  AppendLeArray(values, &buf_);
}

void Writer::PutDoubleArray(const std::vector<double>& values) {
  PutU64(values.size());
  AppendLeArray(values, &buf_);
}

void Writer::PutDoubleColumns(const double* values, std::size_t rows,
                              std::size_t width,
                              const std::vector<std::uint64_t>& columns) {
  PutU64(rows * columns.size());
  const std::size_t at = buf_.size();
  buf_.resize(at + rows * columns.size() * sizeof(double));
  char* out = buf_.data() + at;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = values + r * width;
    for (const std::uint64_t column : columns) {
      std::uint64_t bits;
      std::memcpy(&bits, &row[column], sizeof(bits));
      if constexpr (kLittleEndianHost) {
        std::memcpy(out, &bits, sizeof(bits));
      } else {
        for (int i = 0; i < 8; ++i) {
          out[i] = static_cast<char>((bits >> (8 * i)) & 0xFFu);
        }
      }
      out += sizeof(bits);
    }
  }
}

void Writer::BeginSection(std::uint32_t tag) {
  PPDM_CHECK_MSG(!in_section_, "sections may not nest");
  in_section_ = true;
  PutU32(tag);
  section_len_offset_ = buf_.size();
  PutU64(0);  // patched by EndSection
  section_crc_offset_ = buf_.size();
  PutU32(0);  // patched by EndSection
  section_payload_offset_ = buf_.size();
}

void Writer::EndSection() {
  PPDM_CHECK_MSG(in_section_, "EndSection without BeginSection");
  in_section_ = false;
  const std::size_t payload_len = buf_.size() - section_payload_offset_;
  PatchU64(section_len_offset_, payload_len);
  PatchU32(section_crc_offset_,
           Crc32(buf_.data() + section_payload_offset_, payload_len));
}

void Writer::PatchU32(std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buf_[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

void Writer::PatchU64(std::size_t offset, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buf_[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

// ------------------------------------------------------------------ Reader

Status Reader::Need(std::size_t count) const {
  if (count > remaining()) {
    return Status::IoError(StrFormat(
        "snapshot truncated: need %zu more byte(s), have %zu", count,
        remaining()));
  }
  return Status::Ok();
}

Status Reader::ReadHeader(std::uint32_t supported_version,
                          std::uint32_t* version) {
  PPDM_RETURN_IF_ERROR(Need(sizeof(kMagic)));
  if (std::memcmp(bytes_.data() + pos_, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a ppdm snapshot (bad magic)");
  }
  pos_ += sizeof(kMagic);
  PPDM_ASSIGN_OR_RETURN(*version, ReadU32());
  if (*version != supported_version) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot format version %u unsupported (this build reads only %u)",
        *version, supported_version));
  }
  return Status::Ok();
}

Result<std::uint8_t> Reader::ReadU8() {
  PPDM_RETURN_IF_ERROR(Need(1));
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

Result<std::uint32_t> Reader::ReadU32() {
  PPDM_RETURN_IF_ERROR(Need(4));
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 4;
  return value;
}

Result<std::uint64_t> Reader::ReadU64() {
  PPDM_RETURN_IF_ERROR(Need(8));
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 8;
  return value;
}

Result<double> Reader::ReadDouble() {
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t bits, ReadU64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::string> Reader::ReadString() {
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t length, ReadU64());
  PPDM_RETURN_IF_ERROR(Need(length));
  std::string value(bytes_.substr(pos_, length));
  pos_ += length;
  return value;
}

Result<std::vector<std::uint64_t>> Reader::ReadU64Array() {
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t count, ReadU64());
  // A corrupt count would provoke a huge allocation before the element
  // reads could fail; bound it by the bytes actually present.
  if (count > remaining() / 8) {
    return Status::IoError(StrFormat(
        "snapshot truncated: array claims %llu element(s), %zu byte(s) left",
        static_cast<unsigned long long>(count), remaining()));
  }
  std::vector<std::uint64_t> values(static_cast<std::size_t>(count));
  CopyLeArray(bytes_.data() + pos_, &values);
  pos_ += values.size() * 8;
  return values;
}

Result<std::vector<double>> Reader::ReadDoubleArray() {
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t count, ReadU64());
  if (count > remaining() / 8) {
    return Status::IoError(StrFormat(
        "snapshot truncated: array claims %llu element(s), %zu byte(s) left",
        static_cast<unsigned long long>(count), remaining()));
  }
  std::vector<double> values(static_cast<std::size_t>(count));
  CopyLeArray(bytes_.data() + pos_, &values);
  pos_ += values.size() * 8;
  return values;
}

Result<Reader> Reader::ReadSection(std::uint32_t expected_tag) {
  PPDM_ASSIGN_OR_RETURN(const std::uint32_t tag, ReadU32());
  if (tag != expected_tag) {
    return Status::InvalidArgument(StrFormat(
        "unexpected section tag 0x%08x (want 0x%08x)", tag, expected_tag));
  }
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t length, ReadU64());
  PPDM_ASSIGN_OR_RETURN(const std::uint32_t crc, ReadU32());
  PPDM_RETURN_IF_ERROR(Need(length));
  const std::string_view payload = bytes_.substr(pos_, length);
  if (Crc32(payload) != crc) {
    CrcFailuresCounter().Increment();
    return Status::IoError(StrFormat(
        "section 0x%08x payload fails its CRC32 (corrupt snapshot)", tag));
  }
  pos_ += length;
  return Reader(payload);
}

}  // namespace ppdm::store
