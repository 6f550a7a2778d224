// Snapshot codec for the serving-layer state: an attribute's bin counts,
// the api::DatasetSessionSpec the open verb carries, and whole
// api::DatasetSession sessions, over the endian-stable Writer/Reader byte
// layer. A snapshot carries the session spec (per attribute: column,
// intervals, noise kind, privacy and confidence — what a provider
// chooses) plus the mutable accumulation; the fixed layouts (partitions,
// perturbed-value binnings, noise models) are re-derived deterministically
// from the spec on decode, so a decoded session continues byte-identically
// to the live one. A session capture is the exchange unit: the perturbed
// aggregates distributed PPDM deployments ship between sites.
//
// Every decode failure (truncation, CRC mismatch, wrong magic, other
// format version, shape mismatch) is a Status error, never a CHECK abort:
// these bytes come from disks and networks, not from callers.

#ifndef PPDM_STORE_SESSION_CODEC_H_
#define PPDM_STORE_SESSION_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/dataset_session.h"
#include "common/status.h"
#include "engine/thread_pool.h"
#include "store/codec.h"

namespace ppdm::store {

/// The one snapshot format version this build writes and reads; older
/// captures are refused (kFailedPrecondition), not migrated. History:
///   1  the spec also encoded per-attribute EM options, a shard size and a
///      warm-start flag;
///   2  the spec holds only what a provider chooses; the STAT masses were
///      warm-start seeds;
///   3  STAT carries `fitted_rows` after `batches`, and the masses are the
///      memoized fit over that many rows, served verbatim;
///   4  STAT counts are one bin vector; the class-count field is gone.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Section tags of a dataset-session snapshot.
inline constexpr std::uint32_t kSpecSectionTag = 0x43455053;   // "SPEC"
inline constexpr std::uint32_t kStateSectionTag = 0x54415453;  // "STAT"

// Field-level encoders: append into the caller's Writer (inside whatever
// section the caller opened) and the bounds-checked inverses.

/// One attribute's bin counts: num_bins, the record count (their sum),
/// then the counts. Decode rejects an empty array, a length other than
/// num_bins, and counts whose sum differs from the record count.
void EncodeCounts(const std::vector<std::uint64_t>& counts, Writer* writer);
Result<std::vector<std::uint64_t>> DecodeCounts(Reader* reader);

void EncodeDatasetSessionSpec(const api::DatasetSessionSpec& spec,
                              Writer* writer);
Result<api::DatasetSessionSpec> DecodeDatasetSessionSpec(Reader* reader);

/// A complete snapshot file of one dataset session: header, SPEC section,
/// STAT section. Captures a consistent point-in-time state under the
/// session's lock; safe concurrently with Ingest()/ReconstructAll().
std::string EncodeDatasetSession(const api::DatasetSession& session);

/// Decodes a snapshot produced by EncodeDatasetSession and rebuilds the
/// session over `pool`. Re-encoding the result reproduces `bytes` exactly.
Result<std::unique_ptr<api::DatasetSession>> DecodeDatasetSession(
    std::string_view bytes, engine::ThreadPool* pool = nullptr);

/// Cheap metadata of a snapshot (for listings): decodes the header and
/// section summaries without rebuilding the session.
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t records = 0;
  std::uint64_t batches = 0;
  std::size_t attributes = 0;
};
Result<SnapshotInfo> PeekDatasetSession(std::string_view bytes);

}  // namespace ppdm::store

#endif  // PPDM_STORE_SESSION_CODEC_H_
