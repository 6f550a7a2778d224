#include "store/session_codec.h"

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "data/schema.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perturb/noise_model.h"

namespace ppdm::store {
namespace {

// u8 wire values for the enums; decode validates the range so a corrupt
// byte surfaces as Status, never as an out-of-range enum.

Result<perturb::NoiseKind> NoiseKindFromWire(std::uint8_t wire) {
  switch (wire) {
    case 0: return perturb::NoiseKind::kNone;
    case 1: return perturb::NoiseKind::kUniform;
    case 2: return perturb::NoiseKind::kGaussian;
    default:
      return Status::InvalidArgument(
          StrFormat("unknown noise kind %u in snapshot", wire));
  }
}

std::uint8_t NoiseKindToWire(perturb::NoiseKind kind) {
  switch (kind) {
    case perturb::NoiseKind::kNone: return 0;
    case perturb::NoiseKind::kUniform: return 1;
    case perturb::NoiseKind::kGaussian: return 2;
  }
  return 0;  // unreachable
}

Result<data::AttributeKind> AttributeKindFromWire(std::uint8_t wire) {
  switch (wire) {
    case 0: return data::AttributeKind::kContinuous;
    case 1: return data::AttributeKind::kDiscrete;
    default:
      return Status::InvalidArgument(
          StrFormat("unknown attribute kind %u in snapshot", wire));
  }
}

}  // namespace

// ------------------------------------------------------------------ counts

void EncodeCounts(const std::vector<std::uint64_t>& counts, Writer* writer) {
  writer->PutU64(counts.size());
  writer->PutU64(std::accumulate(counts.begin(), counts.end(),
                                 std::uint64_t{0}));
  writer->PutU64Array(counts);
}

Result<std::vector<std::uint64_t>> DecodeCounts(Reader* reader) {
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t num_bins, reader->ReadU64());
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t record_count, reader->ReadU64());
  PPDM_ASSIGN_OR_RETURN(std::vector<std::uint64_t> counts,
                        reader->ReadU64Array());
  if (num_bins == 0 || counts.size() != num_bins) {
    return Status::InvalidArgument(StrFormat(
        "snapshot counts are %zu entries for %llu bins", counts.size(),
        static_cast<unsigned long long>(num_bins)));
  }
  // A sum that wraps around 2^64 is refused by DatasetSession::Restore,
  // which every decoded state passes through.
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  if (total != record_count) {
    return Status::InvalidArgument(StrFormat(
        "snapshot counts sum to %llu but claim %llu records",
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(record_count)));
  }
  return counts;
}

// ------------------------------------------------------ DatasetSessionSpec

void EncodeDatasetSessionSpec(const api::DatasetSessionSpec& spec,
                              Writer* writer) {
  writer->PutU64(spec.schema.NumFields());
  for (const data::FieldSpec& field : spec.schema.fields()) {
    writer->PutString(field.name);
    writer->PutU8(field.kind == data::AttributeKind::kContinuous ? 0 : 1);
    writer->PutDouble(field.lo);
    writer->PutDouble(field.hi);
  }
  writer->PutU64(spec.attributes.size());
  for (const api::AttributeSpec& attr : spec.attributes) {
    writer->PutU64(attr.column);
    writer->PutU64(attr.intervals);
    writer->PutU8(NoiseKindToWire(attr.noise));
    writer->PutDouble(attr.privacy_fraction);
    writer->PutDouble(attr.confidence);
  }
}

Result<api::DatasetSessionSpec> DecodeDatasetSessionSpec(Reader* reader) {
  api::DatasetSessionSpec spec;
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t num_fields, reader->ReadU64());
  std::vector<data::FieldSpec> fields;
  for (std::uint64_t f = 0; f < num_fields; ++f) {
    data::FieldSpec field;
    PPDM_ASSIGN_OR_RETURN(field.name, reader->ReadString());
    PPDM_ASSIGN_OR_RETURN(const std::uint8_t kind, reader->ReadU8());
    PPDM_ASSIGN_OR_RETURN(field.kind, AttributeKindFromWire(kind));
    PPDM_ASSIGN_OR_RETURN(field.lo, reader->ReadDouble());
    PPDM_ASSIGN_OR_RETURN(field.hi, reader->ReadDouble());
    fields.push_back(std::move(field));
  }
  spec.schema = data::Schema(std::move(fields));

  PPDM_ASSIGN_OR_RETURN(const std::uint64_t num_attrs, reader->ReadU64());
  for (std::uint64_t a = 0; a < num_attrs; ++a) {
    api::AttributeSpec attr;
    PPDM_ASSIGN_OR_RETURN(const std::uint64_t column, reader->ReadU64());
    PPDM_ASSIGN_OR_RETURN(const std::uint64_t intervals, reader->ReadU64());
    attr.column = static_cast<std::size_t>(column);
    attr.intervals = static_cast<std::size_t>(intervals);
    PPDM_ASSIGN_OR_RETURN(const std::uint8_t noise, reader->ReadU8());
    PPDM_ASSIGN_OR_RETURN(attr.noise, NoiseKindFromWire(noise));
    PPDM_ASSIGN_OR_RETURN(attr.privacy_fraction, reader->ReadDouble());
    PPDM_ASSIGN_OR_RETURN(attr.confidence, reader->ReadDouble());
    spec.attributes.push_back(std::move(attr));
  }
  return spec;
}

// ---------------------------------------------------------- DatasetSession

namespace {

// Codec telemetry: snapshot encode/decode wall time and encoded sizes —
// the CPU half of a checkpoint (the store histograms time the disk half).
obs::Histogram& EncodeSecondsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_store_encode_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Histogram& DecodeSecondsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_store_decode_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Counter& EncodeBytesCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_store_encode_bytes_total");
  return counter;
}

}  // namespace

std::string EncodeDatasetSession(const api::DatasetSession& session) {
  obs::ScopedSpan span("store.encode_session", &EncodeSecondsHistogram());
  const api::DatasetSessionSpec& spec = session.spec();
  const api::DatasetSessionState state = session.ExportState();

  Writer writer;
  writer.PutHeader(kFormatVersion);
  writer.BeginSection(kSpecSectionTag);
  EncodeDatasetSessionSpec(spec, &writer);
  writer.EndSection();
  writer.BeginSection(kStateSectionTag);
  writer.PutU64(state.rows);
  writer.PutU64(state.batches);
  writer.PutU64(state.fitted_rows);
  writer.PutU64(state.counts.size());
  for (std::size_t a = 0; a < state.counts.size(); ++a) {
    EncodeCounts(state.counts[a], &writer);
    writer.PutDoubleArray(state.last_masses[a]);
  }
  writer.EndSection();
  EncodeBytesCounter().Increment(writer.bytes().size());
  return writer.Take();
}

Result<std::unique_ptr<api::DatasetSession>> DecodeDatasetSession(
    std::string_view bytes, engine::ThreadPool* pool) {
  obs::ScopedSpan span("store.decode_session", &DecodeSecondsHistogram());
  Reader reader(bytes);
  std::uint32_t version = 0;
  PPDM_RETURN_IF_ERROR(reader.ReadHeader(kFormatVersion, &version));

  PPDM_ASSIGN_OR_RETURN(Reader spec_reader,
                        reader.ReadSection(kSpecSectionTag));
  PPDM_ASSIGN_OR_RETURN(const api::DatasetSessionSpec spec,
                        DecodeDatasetSessionSpec(&spec_reader));
  if (!spec_reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in snapshot SPEC section");
  }
  // Validate the spec, and with it the layouts it derives, before reading
  // the state: a decoded snapshot must not be able to drive session
  // construction into an allocation abort.
  PPDM_RETURN_IF_ERROR(spec.Validate());

  PPDM_ASSIGN_OR_RETURN(Reader state_reader,
                        reader.ReadSection(kStateSectionTag));
  api::DatasetSessionState state;
  PPDM_ASSIGN_OR_RETURN(state.rows, state_reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(state.batches, state_reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(state.fitted_rows, state_reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t num_attrs,
                        state_reader.ReadU64());
  if (num_attrs != spec.attributes.size()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot state carries %llu attribute(s), spec declares %zu",
        static_cast<unsigned long long>(num_attrs), spec.attributes.size()));
  }
  for (std::uint64_t a = 0; a < num_attrs; ++a) {
    PPDM_ASSIGN_OR_RETURN(std::vector<std::uint64_t> counts,
                          DecodeCounts(&state_reader));
    state.counts.push_back(std::move(counts));
    PPDM_ASSIGN_OR_RETURN(std::vector<double> masses,
                          state_reader.ReadDoubleArray());
    state.last_masses.push_back(std::move(masses));
  }
  if (!state_reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in snapshot STAT section");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after snapshot sections");
  }
  return api::DatasetSession::Restore(spec, std::move(state), pool);
}

Result<SnapshotInfo> PeekDatasetSession(std::string_view bytes) {
  Reader reader(bytes);
  SnapshotInfo info;
  PPDM_RETURN_IF_ERROR(reader.ReadHeader(kFormatVersion, &info.version));
  PPDM_ASSIGN_OR_RETURN(Reader spec_reader,
                        reader.ReadSection(kSpecSectionTag));
  PPDM_ASSIGN_OR_RETURN(const api::DatasetSessionSpec spec,
                        DecodeDatasetSessionSpec(&spec_reader));
  info.attributes = spec.attributes.size();
  PPDM_ASSIGN_OR_RETURN(Reader state_reader,
                        reader.ReadSection(kStateSectionTag));
  PPDM_ASSIGN_OR_RETURN(info.records, state_reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(info.batches, state_reader.ReadU64());
  return info;
}

}  // namespace ppdm::store
