// Versioned, endian-stable binary codec — the byte layer of the store
// subsystem. Writer appends little-endian primitives into a growable
// buffer and wraps groups of them in CRC32-guarded sections; Reader is the
// bounds-checked inverse whose every failure path is a Status (truncated,
// corrupt, or wrong-format input must never abort a server).
//
// File layout:
//   [8-byte magic "PPDMSNAP"][u32 format version]
//   repeated sections: [u32 tag][u64 payload length][u32 crc32][payload]
//
// All integers are little-endian regardless of host order; doubles travel
// as the little-endian bytes of their IEEE-754 bit pattern, so a
// round-trip is bit-exact and files are exchangeable across hosts
// (distributed PPDM sites share aggregated statistics this way).
//
// The CRC is the IEEE CRC-32 (zlib's polynomial, not the CRC-32C of the
// x86 `crc32` instruction), computed by engine::simd::Crc32 on the active
// SIMD path: a PCLMULQDQ fold on the AVX2 path, slicing-by-8 on the scalar
// path, which is the reference the fold must equal. Arrays are bulk-copied
// on little-endian hosts and built element by element on big-endian ones;
// both produce the same bytes.

#ifndef PPDM_STORE_CODEC_H_
#define PPDM_STORE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ppdm::store {

/// IEEE CRC-32 (polynomial 0xEDB88320) of `size` bytes at `data`, on
/// engine::simd::ActivePath(); every path gives the same value.
std::uint32_t Crc32(const void* data, std::size_t size);
inline std::uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// The 8-byte file magic every store artifact starts with.
inline constexpr char kMagic[8] = {'P', 'P', 'D', 'M', 'S', 'N', 'A', 'P'};

/// Append-only little-endian encoder. Sections may not nest.
class Writer {
 public:
  /// Appends the file magic and format version; call once, first.
  void PutHeader(std::uint32_t version);

  void PutU8(std::uint8_t value);
  void PutU32(std::uint32_t value);
  void PutU64(std::uint64_t value);
  /// The IEEE-754 bit pattern of `value`, little-endian (bit-exact).
  void PutDouble(double value);
  /// u64 byte count followed by the raw bytes.
  void PutString(std::string_view value);
  /// The raw bytes alone, no length prefix (the reader must know the
  /// length from elsewhere).
  void PutRaw(std::string_view bytes);
  /// u64 element count followed by the elements. On a little-endian host
  /// the elements go in with one bulk copy; a big-endian host swaps them
  /// one at a time. The bytes are the same either way.
  void PutU64Array(const std::vector<std::uint64_t>& values);
  void PutDoubleArray(const std::vector<double>& values);
  /// The PutDoubleArray bytes of a column projection, gathered straight
  /// into the buffer: the count rows * columns.size(), then for each of
  /// the `rows` rows of the row-major block `values` (`width` doubles a
  /// row) its values at `columns`, in that order. Every index must be
  /// below `width`.
  void PutDoubleColumns(const double* values, std::size_t rows,
                        std::size_t width,
                        const std::vector<std::uint64_t>& columns);

  /// Grows the buffer so `bytes` more can be appended without
  /// reallocating (a caller that knows its final size pays one
  /// allocation).
  void Reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  /// Opens a CRC-guarded section tagged `tag`. Everything appended until
  /// EndSection() becomes the section payload.
  void BeginSection(std::uint32_t tag);

  /// Closes the open section, patching its length and CRC32.
  void EndSection();

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PatchU32(std::size_t offset, std::uint32_t value);
  void PatchU64(std::size_t offset, std::uint64_t value);

  std::string buf_;
  bool in_section_ = false;
  std::size_t section_len_offset_ = 0;
  std::size_t section_crc_offset_ = 0;
  std::size_t section_payload_offset_ = 0;
};

/// Bounds-checked little-endian decoder over a borrowed byte view (the
/// underlying buffer must outlive the Reader and any sub-Reader it hands
/// out). Every read returns a Status error instead of crashing on
/// truncated or malformed input.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  /// Checks the magic and reads the format version into `*version`.
  /// Wrong magic is kInvalidArgument ("not a snapshot"); any version but
  /// `supported_version` is kFailedPrecondition (an older or newer
  /// writer).
  Status ReadHeader(std::uint32_t supported_version, std::uint32_t* version);

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// A count, then that many elements. A count the remaining bytes cannot
  /// hold is kIoError before anything is allocated; the elements then
  /// arrive as one bulk copy on a little-endian host.
  Result<std::vector<std::uint64_t>> ReadU64Array();
  Result<std::vector<double>> ReadDoubleArray();

  /// Reads one section header, verifies the payload CRC32, and returns a
  /// Reader over the payload, advancing this Reader past it. A tag other
  /// than `expected_tag` is kInvalidArgument; a bad CRC or a payload
  /// length overrunning the buffer is kIoError (corruption).
  Result<Reader> ReadSection(std::uint32_t expected_tag);

 private:
  /// kOk when `count` more bytes are available, else kIoError (truncated).
  Status Need(std::size_t count) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ppdm::store

#endif  // PPDM_STORE_CODEC_H_
