// Tests for the persistence subsystem: the endian-stable codec (every
// malformed input — truncated, bit-flipped, wrong magic, future version —
// comes back as a Status error, never a CHECK abort), byte-identical
// snapshot/restore of bin counts / DatasetSession, the
// directory-backed SnapshotStore (atomic publication, corruption-safe
// reads), and the registry spill tier (eviction demotes, TryLookup
// transparently re-admits, equivalence with a never-evicted registry —
// race-checked under ThreadSanitizer in CI).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset_session.h"
#include "api/registry.h"
#include "common/fault.h"
#include "common/retry.h"
#include "data/row_batch.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "perturb/randomizer.h"
#include "store/codec.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "store/spill_store.h"
#include "synth/generator.h"
#include "test_util.h"

namespace ppdm::store {
namespace {

using test::BenchmarkDatasetSpec;
using test::PerturbedRows;
using test::ReconstructionsIdentical;
using test::TempDir;

namespace fs = std::filesystem;

// ------------------------------------------------------------------ crc32

/// The bytewise-table IEEE CRC-32 the codec first shipped with: the
/// reference every CRC kernel must reproduce bit for bit.
std::uint32_t ReferenceCrc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string bytes(size, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng() & 0xFFu);
  return bytes;
}

/// The CRC kernel paths this binary can run: scalar always, AVX2 (the
/// PCLMULQDQ fold) where the build and the CPU carry it.
std::vector<engine::simd::Path> CrcPaths() {
  std::vector<engine::simd::Path> paths = {engine::simd::Path::kScalar};
  if (engine::simd::Avx2Supported()) {
    paths.push_back(engine::simd::Path::kAvx2);
  }
  return paths;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
  const std::string ones(std::size_t{1} << 20, '\xFF');
  EXPECT_EQ(Crc32(ones), 0x956BAC74u);
  EXPECT_EQ(ReferenceCrc32(ones.data(), ones.size()), 0x956BAC74u);
  for (const engine::simd::Path path : CrcPaths()) {
    SCOPED_TRACE(engine::simd::PathName(path));
    EXPECT_EQ(engine::simd::Crc32("123456789", 9, path), 0xCBF43926u);
    EXPECT_EQ(engine::simd::Crc32(nullptr, 0, path), 0u);
    EXPECT_EQ(engine::simd::Crc32(ones.data(), ones.size(), path),
              0x956BAC74u);
  }
}

// Every length 0..1100 at every start offset 0..15, on each path: the
// fold's several 64-byte steps, each 16-byte block count it folds singly,
// every tail it leaves to slicing-by-8, each unaligned head, and the
// lengths under 64 that never fold.
TEST(Crc32Test, MatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  const std::string buffer = RandomBytes(1100 + 16, 0xC0FFEE);
  // One ingest-body-sized buffer (1024 rows of 9 doubles).
  const std::string body = RandomBytes(73728, 0xB0D1);
  for (const engine::simd::Path path : CrcPaths()) {
    SCOPED_TRACE(engine::simd::PathName(path));
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 1100; ++len) {
        const char* start = buffer.data() + offset;
        ASSERT_EQ(engine::simd::Crc32(start, len, path),
                  ReferenceCrc32(start, len))
            << "offset " << offset << ", length " << len;
      }
    }
    EXPECT_EQ(engine::simd::Crc32(body.data(), body.size(), path),
              ReferenceCrc32(body.data(), body.size()));
  }
  EXPECT_EQ(Crc32(body), ReferenceCrc32(body.data(), body.size()));
}

// ------------------------------------------------------------------ codec

/// Doubles from every IEEE-754 class: signed zeros, infinities, NaNs
/// with payload bits, denormals, then seeded random bit patterns.
std::vector<double> AwkwardDoubles(std::size_t random_count,
                                   std::uint64_t seed) {
  const auto from_bits = [](std::uint64_t bits) {
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  };
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      from_bits(0x7FF0000000000001ull),  // signalling NaN, low payload bit
      from_bits(0xFFF8DEADBEEF1234ull),  // negative quiet NaN with payload
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      from_bits(0x000FFFFFFFFFFFFFull),  // largest denormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -1.5,
  };
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < random_count; ++i) {
    values.push_back(from_bits(rng()));
  }
  return values;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(CodecTest, BulkArraysWriteTheBytesOfElementPuts) {
  for (std::size_t count : {0, 1, 7, 8, 9, 1000}) {
    const std::vector<double> doubles =
        AwkwardDoubles(count, 17 + count);
    std::vector<std::uint64_t> words(count);
    std::mt19937_64 rng(31 + count);
    for (std::uint64_t& word : words) word = rng();

    // A one-byte prefix puts each array at an odd offset.
    Writer bulk;
    bulk.PutU8(0x5A);
    bulk.PutDoubleArray(doubles);
    bulk.PutU64Array(words);
    Writer elementwise;
    elementwise.PutU8(0x5A);
    elementwise.PutU64(doubles.size());
    for (double value : doubles) elementwise.PutDouble(value);
    elementwise.PutU64(words.size());
    for (std::uint64_t word : words) elementwise.PutU64(word);
    EXPECT_EQ(bulk.bytes(), elementwise.bytes()) << count << " elements";

    Reader reader(bulk.bytes());
    ASSERT_TRUE(reader.ReadU8().ok());
    const Result<std::vector<double>> read_doubles = reader.ReadDoubleArray();
    ASSERT_TRUE(read_doubles.ok()) << read_doubles.status().ToString();
    EXPECT_TRUE(SameBits(read_doubles.value(), doubles))
        << count << " elements";
    const Result<std::vector<std::uint64_t>> read_words =
        reader.ReadU64Array();
    ASSERT_TRUE(read_words.ok()) << read_words.status().ToString();
    EXPECT_EQ(read_words.value(), words);
    EXPECT_TRUE(reader.AtEnd());
  }
}

// A gathered column projection writes the bytes of PutDoubleArray over
// the projected copy, whatever the column order, row count or offset.
TEST(CodecTest, DoubleColumnsWriteTheBytesOfTheProjectedArray) {
  constexpr std::size_t kWidth = 9;
  const std::vector<std::vector<std::uint64_t>> layouts = {
      {0}, {8}, {0, 1}, {4, 0, 7}, {0, 1, 2, 3, 4, 5, 6, 7, 8}};
  for (std::size_t rows : {0, 1, 3, 1024}) {
    const std::vector<double> values = AwkwardDoubles(rows * kWidth, rows);
    for (const std::vector<std::uint64_t>& columns : layouts) {
      std::vector<double> projected;
      for (std::size_t r = 0; r < rows; ++r) {
        for (const std::uint64_t c : columns) {
          projected.push_back(values[r * kWidth + c]);
        }
      }
      Writer gathered;
      gathered.PutU8(0x5A);
      gathered.PutDoubleColumns(values.data(), rows, kWidth, columns);
      Writer copied;
      copied.PutU8(0x5A);
      copied.PutDoubleArray(projected);
      EXPECT_EQ(gathered.bytes(), copied.bytes())
          << rows << " rows, " << columns.size() << " columns";
    }
  }
}

TEST(CodecTest, HostileArrayCountsAreStatusErrors) {
  for (std::uint64_t count : {std::uint64_t{3}, std::uint64_t{1} << 61,
                              ~std::uint64_t{0}}) {
    Writer writer;
    writer.PutU64(count);
    writer.PutDouble(1.0);
    writer.PutDouble(2.0);
    EXPECT_EQ(Reader(writer.bytes()).ReadDoubleArray().status().code(),
              StatusCode::kIoError)
        << count;
    EXPECT_EQ(Reader(writer.bytes()).ReadU64Array().status().code(),
              StatusCode::kIoError)
        << count;
  }
}

TEST(CodecTest, PrimitivesAreLittleEndianOnTheWire) {
  Writer writer;
  writer.PutU32(0x01020304u);
  writer.PutU64(0x1122334455667788ull);
  const std::string& bytes = writer.bytes();
  ASSERT_EQ(bytes.size(), 12u);
  const unsigned char expect[12] = {0x04, 0x03, 0x02, 0x01, 0x88, 0x77,
                                    0x66, 0x55, 0x44, 0x33, 0x22, 0x11};
  EXPECT_EQ(std::memcmp(bytes.data(), expect, sizeof(expect)), 0);
}

TEST(CodecTest, PrimitiveRoundTrip) {
  Writer writer;
  writer.PutU8(0xAB);
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0xFEEDFACECAFEBEEFull);
  writer.PutDouble(-0.1234567890123456789);
  writer.PutString("perturb \xF0\x9F\x94\x92 reconstruct");
  writer.PutU64Array({1, 0, 42, ~0ull});
  writer.PutDoubleArray({0.0, -1.5, 1e308});

  Reader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0xFEEDFACECAFEBEEFull);
  EXPECT_EQ(reader.ReadDouble().value(), -0.1234567890123456789);
  EXPECT_EQ(reader.ReadString().value(), "perturb \xF0\x9F\x94\x92 reconstruct");
  EXPECT_EQ(reader.ReadU64Array().value(),
            (std::vector<std::uint64_t>{1, 0, 42, ~0ull}));
  EXPECT_EQ(reader.ReadDoubleArray().value(),
            (std::vector<double>{0.0, -1.5, 1e308}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, EveryTruncationIsAStatusError) {
  Writer writer;
  writer.PutHeader(kFormatVersion);
  writer.BeginSection(0x31415926);
  writer.PutString("payload");
  writer.PutU64Array({7, 8, 9});
  writer.PutDoubleArray(AwkwardDoubles(3, 5));
  writer.EndSection();
  const std::string full = writer.bytes();

  for (std::size_t len = 0; len < full.size(); ++len) {
    Reader reader(std::string_view(full).substr(0, len));
    std::uint32_t version = 0;
    Status status = reader.ReadHeader(kFormatVersion, &version);
    if (status.ok()) {
      const Result<Reader> section = reader.ReadSection(0x31415926);
      status = section.status();
      if (section.ok()) {
        Reader payload = section.value();
        status = payload.ReadString().status();
        if (status.ok()) status = payload.ReadU64Array().status();
        if (status.ok()) status = payload.ReadDoubleArray().status();
      }
    }
    EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes";
  }
}

TEST(CodecTest, HeaderRejectsWrongMagicAndFutureVersion) {
  Writer writer;
  writer.PutHeader(kFormatVersion);
  std::string bytes = writer.bytes();
  std::uint32_t version = 0;

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  Reader bad(wrong_magic);
  EXPECT_EQ(bad.ReadHeader(kFormatVersion, &version).code(),
            StatusCode::kInvalidArgument);

  Writer future;
  future.PutHeader(kFormatVersion + 1);
  Reader newer(future.bytes());
  EXPECT_EQ(newer.ReadHeader(kFormatVersion, &version).code(),
            StatusCode::kFailedPrecondition);

  // Versions 1 (whose spec still carried EM options, a shard size and a
  // warm-start flag), 2 (no memoized fit row count) and 3 (a class
  // dimension in every STAT counts table) are refused too: the reader
  // accepts one version.
  for (const std::uint32_t old_version : {1u, 2u, 3u}) {
    Writer past;
    past.PutHeader(old_version);
    Reader older(past.bytes());
    EXPECT_EQ(older.ReadHeader(kFormatVersion, &version).code(),
              StatusCode::kFailedPrecondition)
        << "version " << old_version;
  }

  Reader good(bytes);
  EXPECT_TRUE(good.ReadHeader(kFormatVersion, &version).ok());
  EXPECT_EQ(version, kFormatVersion);
}

TEST(CodecTest, SectionCrcCatchesEveryBitFlip) {
  Writer writer;
  writer.BeginSection(0x600DF00D);
  writer.PutU64(1234567890123ull);
  writer.PutString("crc me");
  writer.EndSection();
  const std::string clean = writer.bytes();
  ASSERT_TRUE(Reader(clean).ReadSection(0x600DF00D).ok());

  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::string flipped = clean;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    const Result<Reader> section = Reader(flipped).ReadSection(0x600DF00D);
    EXPECT_FALSE(section.ok()) << "bit " << bit;
  }
}

// ----------------------------------------------------- field-level codecs

TEST(CountsCodecTest, RoundTripIsByteIdentical) {
  const std::vector<std::uint64_t> counts = {1, 0, 0, 1, 0, 2};

  Writer writer;
  EncodeCounts(counts, &writer);
  Reader reader(writer.bytes());
  const Result<std::vector<std::uint64_t>> decoded = DecodeCounts(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  Reader fields(writer.bytes());
  EXPECT_EQ(fields.ReadU64().value(), 6u);  // num_bins
  EXPECT_EQ(fields.ReadU64().value(), 4u);  // the record count
  EXPECT_EQ(decoded.value(), counts);

  Writer again;
  EncodeCounts(decoded.value(), &again);
  EXPECT_EQ(again.bytes(), writer.bytes());
}

TEST(CountsCodecTest, RejectsInconsistentCounts) {
  Writer writer;
  EncodeCounts({0, 1, 0, 0}, &writer);

  // Corrupt the record_count field (second u64) without touching counts;
  // the decoder must reject the inconsistency, not CHECK-abort.
  std::string bytes = writer.bytes();
  bytes[8] = 9;
  Reader reader(bytes);
  const Result<std::vector<std::uint64_t>> decoded = DecodeCounts(&reader);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CountsCodecTest, RejectsCountsOfTheWrongLength) {
  // A counts array one entry longer or shorter than num_bins, with a
  // consistent record count, is corruption too.
  for (const std::size_t length : {std::size_t{3}, std::size_t{5}}) {
    Writer writer;
    writer.PutU64(4);  // num_bins
    writer.PutU64(length);  // record_count: one per entry below
    writer.PutU64Array(std::vector<std::uint64_t>(length, 1));
    Reader reader(writer.bytes());
    const Result<std::vector<std::uint64_t>> decoded =
        DecodeCounts(&reader);
    EXPECT_FALSE(decoded.ok()) << "length " << length;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "length " << length;
  }
}

// ------------------------------------------------- dataset-session codec

// The acceptance property: snapshot a mid-stream session, restore it, and
// continue — Ingest + ReconstructAll on the restored session must be
// byte-identical to the never-snapshotted one, at 0/1/2/8 threads.
TEST(DatasetSnapshotTest, SnapshotRestoreContinuationIsByteIdentical) {
  const std::size_t num_attrs = 3;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(num_attrs, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(3000, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  const data::RowBatch all_rows(rows.data(), num_rows, num_cols);
  const std::size_t half = num_rows / 2;

  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    std::optional<engine::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    engine::ThreadPool* p = threads > 0 ? &*pool : nullptr;

    auto live = api::DatasetSession::Open(spec, p);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live.value()->Ingest(all_rows.Slice(0, half)).ok());
    // A mid-stream refresh gives the snapshot a memoized fit to carry.
    ASSERT_TRUE(live.value()->ReconstructAll().ok());

    const std::string bytes = EncodeDatasetSession(*live.value());
    auto restored = DecodeDatasetSession(bytes, p);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString()
                               << " at threads " << threads;
    EXPECT_EQ(restored.value()->record_count(), half);
    // Re-encoding the restored session reproduces the file bit for bit.
    EXPECT_EQ(EncodeDatasetSession(*restored.value()), bytes);

    // Continue both sessions identically.
    ASSERT_TRUE(
        live.value()->Ingest(all_rows.Slice(half, num_rows - half)).ok());
    ASSERT_TRUE(restored.value()
                    ->Ingest(all_rows.Slice(half, num_rows - half))
                    .ok());
    const auto live_estimates = live.value()->ReconstructAll();
    const auto restored_estimates = restored.value()->ReconstructAll();
    ASSERT_TRUE(live_estimates.ok());
    ASSERT_TRUE(restored_estimates.ok());
    for (std::size_t a = 0; a < num_attrs; ++a) {
      EXPECT_TRUE(ReconstructionsIdentical(live_estimates.value()[a],
                                           restored_estimates.value()[a]))
          << "attribute " << a << ", threads " << threads;
    }
  }
}

// The memo survives a snapshot mid-stream: refresh, ingest fewer rows than
// 1/16 of the fitted ones, snapshot and restore. Both sessions then answer
// a memo hit, and after further ingests a refit, with byte-identical
// replies; a v2 capture of the same session is refused.
TEST(DatasetSnapshotTest, MemoizedFitSurvivesSnapshotRestore) {
  const std::size_t num_attrs = 2;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(num_attrs, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(3000, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  const data::RowBatch all_rows(rows.data(), num_rows, num_cols);
  const std::size_t fitted = 1600;
  const std::size_t under = fitted / api::kRefitGrowthDivisor - 1;

  auto live = api::DatasetSession::Open(spec);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Ingest(all_rows.Slice(0, fitted)).ok());
  ASSERT_TRUE(live.value()->ReconstructAll().ok());
  ASSERT_TRUE(live.value()->Ingest(all_rows.Slice(fitted, under)).ok());
  EXPECT_EQ(live.value()->ExportState().fitted_rows, fitted);

  const std::string bytes = EncodeDatasetSession(*live.value());
  auto restored = DecodeDatasetSession(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(EncodeDatasetSession(*restored.value()), bytes);
  EXPECT_EQ(restored.value()->ExportState().fitted_rows, fitted);

  std::string v2 = bytes;
  v2[8] = 2;  // the u32 version after the 8-byte magic
  EXPECT_EQ(DecodeDatasetSession(v2).status().code(),
            StatusCode::kFailedPrecondition);

  // A memo hit one row short of the threshold, the refit that one more
  // row triggers, another refit, a memo hit, and a refit over the rest.
  const std::size_t steps[][2] = {{fitted + under, 0},
                                  {fitted + under, 1},
                                  {fitted + under + 1, 200},
                                  {fitted + under + 201, 5},
                                  {fitted + under + 206,
                                   num_rows - (fitted + under + 206)}};
  for (const auto& [offset, take] : steps) {
    if (take > 0) {
      ASSERT_TRUE(live.value()->Ingest(all_rows.Slice(offset, take)).ok());
      ASSERT_TRUE(
          restored.value()->Ingest(all_rows.Slice(offset, take)).ok());
    }
    const auto live_estimates = live.value()->ReconstructAll();
    const auto restored_estimates = restored.value()->ReconstructAll();
    ASSERT_TRUE(live_estimates.ok());
    ASSERT_TRUE(restored_estimates.ok());
    for (std::size_t a = 0; a < num_attrs; ++a) {
      EXPECT_TRUE(ReconstructionsIdentical(live_estimates.value()[a],
                                           restored_estimates.value()[a]))
          << "attribute " << a << " after " << offset + take << " rows";
    }
    if (offset + take == fitted + under) {
      EXPECT_EQ(live_estimates.value()[0].iterations, 0u);
      EXPECT_EQ(live_estimates.value()[0].sample_count, fitted);
    }
  }
}

// A memo that cannot have come from a refit is a Status from Restore, not
// an abort: more fitted rows than rows, masses on some attributes only, a
// fitted row count without masses, and masses that are not a
// distribution.
TEST(DatasetSnapshotTest, RestoreRejectsAnInconsistentMemo) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(400, &num_cols);
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()
                  ->Ingest(data::RowBatch(rows.data(),
                                          rows.size() / num_cols, num_cols))
                  .ok());
  ASSERT_TRUE(session.value()->ReconstructAll().ok());
  const api::DatasetSessionState good = session.value()->ExportState();
  ASSERT_EQ(good.fitted_rows, 400u);
  ASSERT_TRUE(api::DatasetSession::Restore(spec, good).ok());

  struct Case {
    const char* name;
    void (*mutate)(api::DatasetSessionState*);
  };
  const Case rejected[] = {
      {"fitted_rows > rows",
       [](api::DatasetSessionState* s) { s->fitted_rows = s->rows + 1; }},
      {"masses on one attribute only",
       [](api::DatasetSessionState* s) { s->last_masses[1].clear(); }},
      {"fitted_rows without masses",
       [](api::DatasetSessionState* s) {
         for (std::vector<double>& m : s->last_masses) m.clear();
       }},
      {"masses without fitted_rows",
       [](api::DatasetSessionState* s) { s->fitted_rows = 0; }},
      {"masses summing to 1 + 1e-8",
       [](api::DatasetSessionState* s) { s->last_masses[0][0] += 1e-8; }},
      {"masses summing to 0.5",
       [](api::DatasetSessionState* s) {
         for (double& m : s->last_masses[1]) m *= 0.5;
       }},
      {"one attribute entry too few",
       [](api::DatasetSessionState* s) {
         s->counts.pop_back();
         s->last_masses.pop_back();
       }},
      {"counts over one bin more than the w-grid",
       [](api::DatasetSessionState* s) {
         std::vector<std::uint64_t> counts(s->counts[0].size() + 1, 0);
         counts[0] = s->rows;
         s->counts[0] = std::move(counts);
       }},
      {"counts totalling rows + 1",
       [](api::DatasetSessionState* s) { ++s->counts[1][0]; }},
      {"counts whose sum wraps around to rows",
       [](api::DatasetSessionState* s) {
         std::vector<std::uint64_t>& c = s->counts[1];
         c[1] += c[0] + 1;
         c[0] = std::numeric_limits<std::uint64_t>::max();
       }},
      {"masses of the wrong length",
       [](api::DatasetSessionState* s) { s->last_masses[0].push_back(0.0); }},
      {"a NaN mass",
       [](api::DatasetSessionState* s) {
         s->last_masses[0][0] = std::numeric_limits<double>::quiet_NaN();
       }},
      {"a negative mass, the sum kept at 1",
       [](api::DatasetSessionState* s) {
         std::vector<double>& m = s->last_masses[1];
         const double shift = m[0] + 0.25;
         m[0] -= shift;
         m[1] += shift;
       }},
  };
  for (const Case& row : rejected) {
    api::DatasetSessionState state = good;
    row.mutate(&state);
    const auto restored = api::DatasetSession::Restore(spec, state);
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << row.name;
  }
}

TEST(DatasetSnapshotTest, EveryBitFlipIsDetected) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 8);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(200, &num_cols);
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()
                  ->Ingest(data::RowBatch(rows.data(),
                                          rows.size() / num_cols, num_cols))
                  .ok());
  ASSERT_TRUE(session.value()->ReconstructAll().ok());
  const std::string clean = EncodeDatasetSession(*session.value());
  ASSERT_TRUE(DecodeDatasetSession(clean).ok());

  // Flip every bit of the snapshot: each flip must surface as a Status
  // error (headers are validated; payloads are CRC32-guarded, and CRC32
  // detects all single-bit corruption) and must never abort.
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::string flipped = clean;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    const auto decoded = DecodeDatasetSession(flipped);
    EXPECT_FALSE(decoded.ok()) << "bit " << bit;
  }
}

TEST(DatasetSnapshotTest, EveryTruncationIsDetected) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 8);
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  const std::string clean = EncodeDatasetSession(*session.value());

  for (std::size_t len = 0; len < clean.size(); ++len) {
    const auto decoded =
        DecodeDatasetSession(std::string_view(clean).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
  }
  // Trailing garbage is rejected too.
  const auto padded = DecodeDatasetSession(clean + "x");
  EXPECT_FALSE(padded.ok());
}

// A CRC-valid snapshot with hostile layout *parameters* (absurd noise
// scale, interval count, or confidence) must be rejected before any
// state is derived — the derivation would otherwise abort on an
// astronomically large bin-layout allocation.
TEST(DatasetSnapshotTest, HostileLayoutParametersAreRejectedNotFatal) {
  // A spec whose noise settings are valid (confidence inside (0,1)) but
  // whose derived noise explodes the padded layout, and one with an
  // implausible interval count; spec validation rejects both.
  for (int variant = 0; variant < 2; ++variant) {
    api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 12);
    if (variant == 0) {
      spec.attributes[0].confidence = 1e-12;  // alpha = p*R/(2c) -> huge
    } else {
      spec.attributes[0].intervals = (1u << 20) + 1;
    }
    Writer writer;
    writer.PutHeader(kFormatVersion);
    writer.BeginSection(kSpecSectionTag);
    EncodeDatasetSessionSpec(spec, &writer);
    writer.EndSection();
    writer.BeginSection(kStateSectionTag);
    writer.EndSection();
    const auto decoded = DecodeDatasetSession(writer.bytes());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "variant " << variant;
  }
}

TEST(DatasetSnapshotTest, PeekReportsWithoutRebuilding) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(300, &num_cols);
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()
                  ->Ingest(data::RowBatch(rows.data(),
                                          rows.size() / num_cols, num_cols))
                  .ok());
  const Result<SnapshotInfo> info =
      PeekDatasetSession(EncodeDatasetSession(*session.value()));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, kFormatVersion);
  EXPECT_EQ(info.value().records, 300u);
  EXPECT_EQ(info.value().batches, 1u);
  EXPECT_EQ(info.value().attributes, 2u);
}

// Format pin of version 4, checked with the bytewise reference CRC. A
// failure here means the snapshot bytes changed: that needs a
// kFormatVersion bump, not a new pin. The refresh before encoding puts
// `fitted_rows` and the memoized masses under the pin.
TEST(DatasetSnapshotTest, SnapshotBytesArePinned) {
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 8);
  const std::size_t cols = spec.schema.NumFields();
  // Row values from a formula, not a generator, so the pin depends on
  // nothing but the session's binning and the codec.
  std::vector<double> rows;
  for (std::size_t i = 0; i < 32 * cols; ++i) {
    rows.push_back(2500.0 * static_cast<double>(i % 61) +
                   0.125 * static_cast<double>(i));
  }
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      session.value()->Ingest(data::RowBatch(rows.data(), 32, cols)).ok());
  ASSERT_TRUE(session.value()->ReconstructAll().ok());
  const std::string snapshot = EncodeDatasetSession(*session.value());
  EXPECT_EQ(snapshot.size(), 914u);
  EXPECT_EQ(ReferenceCrc32(snapshot.data(), snapshot.size()), 0x9C4A9CDEu);
}

// --------------------------------------------------------- snapshot store

TEST(SnapshotStoreTest, PutGetListDeleteLifecycle) {
  TempDir dir;
  const Result<SnapshotStore> opened = SnapshotStore::Open(dir.path);
  ASSERT_TRUE(opened.ok());
  const SnapshotStore& store = opened.value();

  EXPECT_FALSE(store.Contains("alpha"));
  EXPECT_EQ(store.Get("alpha").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Put("alpha", "bytes-a").ok());
  ASSERT_TRUE(store.Put("beta", "bytes-b").ok());
  EXPECT_TRUE(store.Contains("alpha"));
  EXPECT_EQ(store.Get("alpha").value(), "bytes-a");
  EXPECT_EQ(store.List().value(),
            (std::map<std::string, std::uint64_t>{{"alpha", 7},
                                                  {"beta", 7}}));

  // Overwrite replaces atomically (shorter content, no stale tail).
  ASSERT_TRUE(store.Put("alpha", "v2").ok());
  EXPECT_EQ(store.Get("alpha").value(), "v2");

  EXPECT_TRUE(store.Delete("alpha").ok());
  EXPECT_EQ(store.Delete("alpha").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.List().value(),
            (std::map<std::string, std::uint64_t>{{"beta", 7}}));
}

TEST(SnapshotStoreTest, NamesWithArbitraryBytesRoundTrip) {
  TempDir dir;
  const SnapshotStore store = SnapshotStore::Open(dir.path).value();
  const std::vector<std::string> names = {
      "plain", "with space", "slash/../escape", "per%cent",
      "uni\xC3\xA7ode", "..", "a.b.c"};
  for (const std::string& name : names) {
    ASSERT_TRUE(store.Put(name, "x" + name).ok()) << name;
  }
  for (const std::string& name : names) {
    EXPECT_EQ(store.Get(name).value(), "x" + name) << name;
  }
  // Every name lists under its own size: everything stayed inside the
  // store directory (no path traversal).
  std::map<std::string, std::uint64_t> sizes;
  for (const std::string& name : names) sizes[name] = name.size() + 1;
  EXPECT_EQ(store.List().value(), sizes);
}

TEST(SnapshotStoreTest, EmptyNameIsRejectedEverywhere) {
  TempDir dir;
  const SnapshotStore store = SnapshotStore::Open(dir.path).value();
  // "" would encode to the dotfile ".snap", reachable by Get but
  // invisible to List; it must be rejected outright instead.
  EXPECT_EQ(store.Put("", "bytes").code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(store.Contains(""));
  EXPECT_EQ(store.Get("").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete("").code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.List().value().empty());
}

TEST(SnapshotStoreTest, CorruptedAndTruncatedFilesSurfaceStatus) {
  TempDir dir;
  const SnapshotStore store = SnapshotStore::Open(dir.path).value();
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 8);
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  const std::string clean = EncodeDatasetSession(*session.value());
  ASSERT_TRUE(store.Put("victim", clean).ok());

  // Truncate the file on disk behind the store's back.
  {
    std::ofstream out(
        (fs::path(dir.path) / "victim.snap").string(),
        std::ios::binary | std::ios::trunc);
    out.write(clean.data(), static_cast<std::streamsize>(clean.size() / 2));
  }
  const Result<std::string> half = store.Get("victim");
  ASSERT_TRUE(half.ok());  // the store serves bytes; the codec judges them
  EXPECT_FALSE(DecodeDatasetSession(half.value()).ok());

  // Replace with garbage: wrong magic, surfaced as InvalidArgument.
  ASSERT_TRUE(store.Put("victim", "not a snapshot at all").ok());
  const auto garbage = DecodeDatasetSession(store.Get("victim").value());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------- registry spill

std::vector<double> SmallBatch(const api::DatasetSessionSpec& spec,
                               double value) {
  return std::vector<double>(spec.schema.NumFields(), value);
}

TEST(SpillRegistryTest, EvictionSpillsAndLookupTransparentlyReadmits) {
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore spill(snapshots);

  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  const std::size_t per_session =
      api::DatasetSession::Open(spec).value()->ApproxMemoryBytes();
  api::SessionRegistryOptions options;
  options.max_bytes = per_session + per_session / 2;  // room for one
  options.spill = &spill;
  api::SessionRegistry registry(options);

  auto a = registry.Open("a", spec);
  ASSERT_TRUE(a.ok());
  const std::vector<double> row = SmallBatch(spec, 30000.0);
  ASSERT_TRUE(a.value()
                  ->Ingest(data::RowBatch(row.data(), 1,
                                          spec.schema.NumFields()))
                  .ok());
  a.value().reset();  // registry holds the only reference now

  ASSERT_TRUE(registry.Open("b", spec).ok());  // evicts + spills "a"
  {
    const api::SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.open_sessions, 1u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.spills, 1u);
    EXPECT_EQ(stats.spilled_sessions, 1u);
    EXPECT_GT(stats.spilled_bytes, 0u);
  }
  EXPECT_TRUE(snapshots.Contains("a"));

  // Open must refuse the spilled name: it is still logically open.
  EXPECT_EQ(registry.Open("a", spec).status().code(),
            StatusCode::kFailedPrecondition);

  // TryLookup re-admits with the accumulated evidence intact (and demotes
  // "b" to fit the budget again).
  const Result<std::shared_ptr<api::DatasetSession>> readmitted =
      registry.TryLookup("a");
  ASSERT_TRUE(readmitted.ok());
  EXPECT_EQ(readmitted.value()->record_count(), 1u);
  {
    const api::SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.readmissions, 1u);
    EXPECT_EQ(stats.spills, 2u);  // "b" went down
    EXPECT_EQ(stats.spill_failures, 0u);
    EXPECT_EQ(stats.hits, 1u);  // a re-admission serves the lookup
  }

  // Close drops both tiers; the name becomes reusable.
  EXPECT_TRUE(registry.Close("b"));
  EXPECT_FALSE(snapshots.Contains("b"));
  EXPECT_TRUE(registry.Close("a"));
  EXPECT_EQ(registry.TryLookup("a").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Open("a", spec).ok());
}

// A spill tier whose Drop fails while `fail_drop` is set.
class DropFailingSpill : public api::SessionSpill {
 public:
  explicit DropFailingSpill(SessionSpillStore* inner) : inner_(inner) {}
  Result<std::uint64_t> Spill(const std::string& name,
                              const api::DatasetSession& session) override {
    return inner_->Spill(name, session);
  }
  Result<std::shared_ptr<api::DatasetSession>> Admit(
      const std::string& name, engine::ThreadPool* pool) override {
    return inner_->Admit(name, pool);
  }
  Result<std::map<std::string, std::uint64_t>> List() const override {
    return inner_->List();
  }
  Status Drop(const std::string& name) override {
    if (fail_drop) return Status::IoError("injected drop failure");
    return inner_->Drop(name);
  }
  bool fail_drop = false;

 private:
  SessionSpillStore* inner_;
};

// Close closes the name even when its spilled capture cannot be deleted:
// the name leaves OpenNames() and the spill ledger (a drain must not
// checkpoint a closed tenant), the failure is counted in Stats and in
// ppdm_registry_spill_failures_total alike, the orphaned capture is
// never served, and the next Open of the name retries the Drop.
TEST(SpillRegistryTest, CloseWithAFailedDropStillClosesTheName) {
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore store(snapshots);
  DropFailingSpill spill(&store);

  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  const std::size_t per_session =
      api::DatasetSession::Open(spec).value()->ApproxMemoryBytes();
  api::SessionRegistryOptions options;
  options.max_bytes = per_session + per_session / 2;  // room for one
  options.spill = &spill;
  api::SessionRegistry registry(options);

  ASSERT_TRUE(registry.Open("a", spec).ok());
  ASSERT_TRUE(registry.Open("b", spec).ok());  // spills "a"
  ASSERT_EQ(registry.OpenNames(), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(snapshots.Contains("a"));

  const obs::Counter& spill_failures_metric =
      *obs::MetricsRegistry::Global().GetCounter(
          "ppdm_registry_spill_failures_total");
  const std::uint64_t metric_before = spill_failures_metric.Value();
  const std::uint64_t stats_before = registry.GetStats().spill_failures;
  spill.fail_drop = true;
  EXPECT_TRUE(registry.Close("a"));
  EXPECT_EQ(registry.OpenNames(), std::vector<std::string>{"b"});
  {
    const api::SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.spill_failures, 1u);
    EXPECT_EQ(spill_failures_metric.Value() - metric_before,
              stats.spill_failures - stats_before);
    EXPECT_EQ(stats.spilled_sessions, 0u);
    EXPECT_EQ(stats.spilled_bytes, 0u);
  }
  EXPECT_TRUE(snapshots.Contains("a"));
  EXPECT_EQ(registry.TryLookup("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Open("a", spec).status().code(), StatusCode::kIoError);
  EXPECT_TRUE(snapshots.Contains("a"));

  spill.fail_drop = false;
  EXPECT_FALSE(registry.Close("a"));
  EXPECT_TRUE(registry.Open("a", spec).ok());
  EXPECT_FALSE(snapshots.Contains("a"));
}

// The acceptance property: traffic through a budget-starved registry with
// a spill tier produces byte-identical estimates to an unbounded registry
// — sessions keep all their evidence across demote/re-admit cycles.
TEST(SpillRegistryTest, SpilledRegistryEquivalentToNeverEvicted) {
  const std::size_t num_sessions = 3;
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  std::size_t num_cols = 0;
  const std::vector<double> rows = PerturbedRows(1200, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  const data::RowBatch all_rows(rows.data(), num_rows, num_cols);

  for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    std::optional<engine::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    engine::ThreadPool* p = threads > 0 ? &*pool : nullptr;

    TempDir dir;
    SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
    SessionSpillStore spill(snapshots);
    api::SessionRegistryOptions starved_options;
    starved_options.max_bytes = 1;  // nothing fits: every touch demotes
    starved_options.spill = &spill;
    api::SessionRegistry starved(starved_options, p);
    api::SessionRegistry unbounded({}, p);

    for (std::size_t s = 0; s < num_sessions; ++s) {
      const std::string name = "s" + std::to_string(s);
      ASSERT_TRUE(starved.Open(name, spec).ok());
      ASSERT_TRUE(unbounded.Open(name, spec).ok());
    }
    // Interleave uneven batches round-robin across sessions, always
    // looking up again (the serving pattern spill-exactness asks for).
    std::size_t offset = 0, step = 17;
    while (offset < num_rows) {
      const std::size_t take = std::min(step, num_rows - offset);
      const std::string name =
          "s" + std::to_string(offset % num_sessions);
      const data::RowBatch batch = all_rows.Slice(offset, take);
      {
        // Scoped: both references drop before the next touch demotes
        // this session.
        const Result<std::shared_ptr<api::DatasetSession>> hot =
            starved.TryLookup(name);
        const Result<std::shared_ptr<api::DatasetSession>> cold =
            unbounded.TryLookup(name);
        ASSERT_TRUE(hot.ok());
        ASSERT_TRUE(cold.ok());
        ASSERT_TRUE(hot.value()->Ingest(batch).ok());
        ASSERT_TRUE(cold.value()->Ingest(batch).ok());
      }
      offset += take;
      step = step * 2 + 1;
    }
    ASSERT_GT(starved.GetStats().spills, 0u);
    ASSERT_GT(starved.GetStats().readmissions, 0u);

    for (std::size_t s = 0; s < num_sessions; ++s) {
      const std::string name = "s" + std::to_string(s);
      const Result<std::shared_ptr<api::DatasetSession>> found_hot =
          starved.TryLookup(name);
      const Result<std::shared_ptr<api::DatasetSession>> found_cold =
          unbounded.TryLookup(name);
      ASSERT_TRUE(found_hot.ok());
      ASSERT_TRUE(found_cold.ok());
      const std::shared_ptr<api::DatasetSession>& hot = found_hot.value();
      const std::shared_ptr<api::DatasetSession>& cold = found_cold.value();
      EXPECT_EQ(hot->record_count(), cold->record_count());
      const auto hot_estimates = hot->ReconstructAll();
      const auto cold_estimates = cold->ReconstructAll();
      ASSERT_TRUE(hot_estimates.ok());
      ASSERT_TRUE(cold_estimates.ok());
      for (std::size_t a = 0; a < spec.attributes.size(); ++a) {
        EXPECT_TRUE(ReconstructionsIdentical(hot_estimates.value()[a],
                                             cold_estimates.value()[a]))
            << name << " attribute " << a << ", threads " << threads;
      }
    }
    EXPECT_EQ(starved.GetStats().spill_failures, 0u);
  }
}

// Satellite regression: a session larger than the whole budget must
// spill/admit deterministically — never flushing within-budget tenants,
// never thrashing them on repeated access.
TEST(SpillRegistryTest, OversizedSessionNeverFlushesTenants) {
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore spill(snapshots);

  const api::DatasetSessionSpec small_spec = BenchmarkDatasetSpec(1, 8);
  const api::DatasetSessionSpec whale_spec = BenchmarkDatasetSpec(6, 64);
  const std::size_t small_bytes =
      api::DatasetSession::Open(small_spec).value()->ApproxMemoryBytes();
  const std::size_t whale_bytes =
      api::DatasetSession::Open(whale_spec).value()->ApproxMemoryBytes();
  ASSERT_GT(whale_bytes, 3 * small_bytes);

  api::SessionRegistryOptions options;
  options.max_bytes = 2 * small_bytes + small_bytes / 2;  // two tenants
  ASSERT_GT(whale_bytes, options.max_bytes);
  options.spill = &spill;
  api::SessionRegistry registry(options);

  ASSERT_TRUE(registry.Open("t1", small_spec).ok());
  ASSERT_TRUE(registry.Open("t2", small_spec).ok());
  ASSERT_EQ(registry.GetStats().evictions, 0u);

  // Opening the whale serves it but must not flush the tenants.
  ASSERT_TRUE(registry.Open("whale", whale_spec).ok());
  EXPECT_TRUE(registry.TryLookup("t1").ok());  // demotes the whale
  EXPECT_TRUE(registry.TryLookup("t2").ok());
  {
    const api::SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.open_sessions, 2u);       // both tenants resident
    EXPECT_EQ(stats.evictions, 1u);           // exactly the whale
    EXPECT_EQ(stats.spills, 1u);
    EXPECT_LE(stats.approx_bytes, options.max_bytes);
  }

  // Steady tenant traffic causes no further motion (no thrash).
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(registry.TryLookup("t1").ok());
    EXPECT_TRUE(registry.TryLookup("t2").ok());
  }
  EXPECT_EQ(registry.GetStats().evictions, 1u);

  // Touching the whale re-admits it deterministically; the next tenant
  // touch demotes it again — tenants still never spill.
  EXPECT_TRUE(registry.TryLookup("whale").ok());
  EXPECT_TRUE(registry.TryLookup("t1").ok());
  const api::SessionRegistry::Stats stats = registry.GetStats();
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_EQ(stats.evictions, 2u);  // the whale both times
  EXPECT_EQ(stats.open_sessions, 2u);
}

// The registry serves only the captures it holds. A capture it neither
// demoted nor was handed is invisible (every verb misses and its bytes
// stay put) until a fresh Open of the name discards it; AdoptCaptures
// hands every capture over, and Stats and the spilled-sessions gauge
// count each one with its size.
TEST(SpillRegistryTest, OnlyCapturesTheRegistryHoldsAreServed) {
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore spill(snapshots);
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  const std::vector<double> row = SmallBatch(spec, 30000.0);
  ASSERT_TRUE(session.value()
                  ->Ingest(data::RowBatch(row.data(), 1,
                                          spec.schema.NumFields()))
                  .ok());
  const std::string bytes = EncodeDatasetSession(*session.value());
  ASSERT_TRUE(snapshots.Put("old", bytes).ok());
  ASSERT_TRUE(snapshots.Put("kept", bytes).ok());
  api::SessionRegistryOptions options;
  options.spill = &spill;
  {
    api::SessionRegistry fresh(options);
    EXPECT_EQ(fresh.TryLookup("old").status().code(), StatusCode::kNotFound);
    EXPECT_EQ(fresh.Checkpoint("old").status().code(),
              StatusCode::kNotFound);
    EXPECT_FALSE(fresh.Close("old"));
    EXPECT_TRUE(fresh.OpenNames().empty());
    EXPECT_EQ(snapshots.Get("old").value(), bytes);

    const auto opened = fresh.Open("old", spec);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value()->record_count(), 0u);
    EXPECT_FALSE(snapshots.Contains("old"));
    EXPECT_EQ(fresh.GetStats().spilled_sessions, 0u);
  }

  api::SessionRegistry resumed(options);
  ASSERT_TRUE(resumed.AdoptCaptures().ok());
  const api::SessionRegistry::Stats stats = resumed.GetStats();
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.spilled_sessions, 1u);
  EXPECT_EQ(stats.spilled_bytes, bytes.size());
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("ppdm_registry_spilled_sessions")
                ->Value(),
            1);
  EXPECT_EQ(resumed.OpenNames(), std::vector<std::string>{"kept"});
  EXPECT_EQ(resumed.Open("kept", spec).status().code(),
            StatusCode::kFailedPrecondition);
  const auto readmitted = resumed.TryLookup("kept");
  ASSERT_TRUE(readmitted.ok());
  EXPECT_EQ(readmitted.value()->record_count(), 1u);
}

// Checkpoint writes a resident session in place (it stays resident, and
// the capture decodes to its state) and leaves a spilled session alone:
// its capture is already current, so nothing is put or re-admitted.
TEST(SpillRegistryTest, CheckpointWritesResidentSessionsOnly) {
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore spill(snapshots);
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  const std::size_t per_session =
      api::DatasetSession::Open(spec).value()->ApproxMemoryBytes();
  api::SessionRegistryOptions options;
  options.max_bytes = per_session + per_session / 2;  // room for one
  options.spill = &spill;
  api::SessionRegistry registry(options);

  auto a = registry.Open("a", spec);
  ASSERT_TRUE(a.ok());
  const std::vector<double> row = SmallBatch(spec, 30000.0);
  ASSERT_TRUE(a.value()
                  ->Ingest(data::RowBatch(row.data(), 1,
                                          spec.schema.NumFields()))
                  .ok());
  a.value().reset();
  const Result<std::uint64_t> captured = registry.Checkpoint("a");
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const Result<std::string> bytes = snapshots.Get("a");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(captured.value(), bytes.value().size());
  EXPECT_EQ(DecodeDatasetSession(bytes.value()).value()->record_count(), 1u);
  EXPECT_EQ(registry.GetStats().open_sessions, 1u);
  EXPECT_EQ(registry.GetStats().spills, 0u);

  ASSERT_TRUE(registry.Open("b", spec).ok());  // demotes "a"
  const obs::Counter& puts =
      *obs::MetricsRegistry::Global().GetCounter("ppdm_store_puts_total");
  const std::uint64_t puts_before = puts.Value();
  const api::SessionRegistry::Stats before = registry.GetStats();
  ASSERT_EQ(before.spilled_sessions, 1u);
  EXPECT_EQ(registry.Checkpoint("a").value(), before.spilled_bytes);
  EXPECT_EQ(puts.Value(), puts_before);
  EXPECT_EQ(registry.GetStats().readmissions, before.readmissions);
  EXPECT_EQ(registry.Checkpoint("absent").status().code(),
            StatusCode::kNotFound);

  api::SessionRegistry storeless({});
  ASSERT_TRUE(storeless.Open("a", spec).ok());
  EXPECT_EQ(storeless.Checkpoint("a").status().code(),
            StatusCode::kFailedPrecondition);
}

// TryLookup of a corrupt capture is a miss that keeps the bytes (operator
// forensics) until Close() discards them.
TEST(SpillRegistryTest, CorruptCaptureIsAMissUntilClosed) {
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore spill(snapshots);
  api::SessionRegistryOptions options;
  options.spill = &spill;
  api::SessionRegistry registry(options);

  ASSERT_TRUE(snapshots.Put("broken", "these are not the bytes").ok());
  ASSERT_TRUE(registry.AdoptCaptures().ok());  // the restart hand-over
  // The backend's decode Status surfaces, not kNotFound: the capture
  // exists but cannot be re-admitted.
  EXPECT_EQ(registry.TryLookup("broken").status().code(),
            StatusCode::kInvalidArgument);
  {
    const api::SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.spill_failures, 1u);
    EXPECT_EQ(stats.misses, 1u);
  }
  EXPECT_TRUE(snapshots.Contains("broken"));
  EXPECT_EQ(registry
                .Open("broken", BenchmarkDatasetSpec(1, 12))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(registry.Close("broken"));
  EXPECT_FALSE(snapshots.Contains("broken"));
  EXPECT_TRUE(registry.Open("broken", BenchmarkDatasetSpec(1, 12)).ok());
}

// Race check (ThreadSanitizer in CI): spill-tier demotions and
// re-admissions racing in-flight Ingest/ReconstructAll through held
// shared_ptrs must be safe — the spill serializes a point-in-time state
// under the session lock while the worker keeps mutating.
TEST(SpillRegistryTest, SpillTrafficRacingIngestIsSafe) {
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore spill(snapshots);
  engine::ThreadPool pool(2);

  api::SessionRegistryOptions options;
  options.max_bytes = 1;  // every touch demotes the other tenant
  options.spill = &spill;
  api::SessionRegistry registry(options, &pool);
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 8);
  ASSERT_TRUE(registry.Open("x", spec).ok());
  ASSERT_TRUE(registry.Open("y", spec).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  const std::size_t cols = spec.schema.NumFields();
  std::thread worker([&] {
    std::vector<double> rows(8 * cols, 42000.0);
    int flip = 0;
    while (!stop.load()) {
      Result<std::shared_ptr<api::DatasetSession>> found =
          registry.TryLookup(++flip % 2 == 0 ? "x" : "y");
      if (!found.ok()) continue;
      const std::shared_ptr<api::DatasetSession> session = found.value();
      if (!session->Ingest(data::RowBatch(rows.data(), 8, cols)).ok() ||
          !session->ReconstructAll().ok()) {
        ++failures;
        return;
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    (void)registry.TryLookup(i % 2 == 0 ? "y" : "x");
  }
  stop.store(true);
  worker.join();
  EXPECT_EQ(failures.load(), 0);
  const api::SessionRegistry::Stats stats = registry.GetStats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.readmissions, 0u);
  EXPECT_EQ(stats.spill_failures, 0u);
}

// ------------------------------------------------- store under injection
//
// Deterministic fault points (common/fault.h) aimed at the persistence
// seams. The broader chaos matrix lives in fault_test.cc; these pin the
// store-local contracts: a torn write never replaces the previous
// snapshot, and a demotion that dies mid-eviction leaves the budget
// ledger exact.

TEST(SnapshotStoreTest, TornWriteNeverReplacesThePublishedSnapshot) {
  fault::DisarmAll();
  TempDir dir;
  const SnapshotStore store = SnapshotStore::Open(dir.path).value();
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 8);
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  const std::string v1 = EncodeDatasetSession(*session.value());
  ASSERT_TRUE(store.Put("victim", v1).ok());

  // The overwrite dies between write(2) and the rename publication —
  // the torn-write window. Nothing may reach the published name.
  ASSERT_TRUE(
      fault::ArmFromSpec("store.put.sync=prob:1,permanent").ok());
  EXPECT_FALSE(store.Put("victim", v1 + "tail that must never land").ok());
  fault::DisarmAll();

  const Result<std::string> survived = store.Get("victim");
  ASSERT_TRUE(survived.ok());
  EXPECT_EQ(survived.value(), v1);  // byte-identical, not merely decodable
  EXPECT_TRUE(DecodeDatasetSession(survived.value()).ok());
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(SpillRegistryTest, DemotionFailureMidEvictionKeepsTheLedgerExact) {
  fault::DisarmAll();
  TempDir dir;
  SnapshotStore snapshots = SnapshotStore::Open(dir.path).value();
  SessionSpillStore spill(snapshots);

  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 12);
  const std::size_t per_session =
      api::DatasetSession::Open(spec).value()->ApproxMemoryBytes();
  auto now = std::chrono::steady_clock::now();
  api::SessionRegistryOptions options;
  options.max_bytes = per_session + per_session / 2;  // room for one
  options.spill = &spill;
  options.clock = [&now] { return now; };
  api::SessionRegistry registry(options);

  auto a = registry.Open("a", spec);
  ASSERT_TRUE(a.ok());
  const std::vector<double> row = SmallBatch(spec, 30000.0);
  ASSERT_TRUE(a.value()
                  ->Ingest(data::RowBatch(row.data(), 1,
                                          spec.schema.NumFields()))
                  .ok());
  a.value().reset();

  // Opening "b" tries to evict "a"; the demotion dies. The registry must
  // keep "a" whole — resident and over budget — not drop it on the floor.
  ASSERT_TRUE(fault::ArmFromSpec("spill.demote=once").ok());
  ASSERT_TRUE(registry.Open("b", spec).ok());
  {
    const api::SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.open_sessions, 2u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.spills, 0u);
    EXPECT_EQ(stats.spill_failures, 1u);
    EXPECT_EQ(stats.degraded_sessions, 1u);
    EXPECT_GT(stats.approx_bytes, options.max_bytes);  // honest ledger
    EXPECT_EQ(stats.spilled_sessions, 0u);
    EXPECT_EQ(stats.spilled_bytes, 0u);  // no phantom capture accounted
  }
  EXPECT_TRUE(snapshots.List().value().empty());  // and none on disk

  // The `once` trigger disarmed itself; the next touch past the backoff
  // window retries the demotion and every ledger column lands exactly.
  now += api::kSpillRetryBackoff;
  ASSERT_TRUE(registry.TryLookup("b").ok());
  {
    const api::SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.open_sessions, 1u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.spills, 1u);
    EXPECT_EQ(stats.spilled_sessions, 1u);
    EXPECT_GT(stats.spilled_bytes, 0u);
    EXPECT_EQ(stats.degraded_sessions, 0u);
    EXPECT_LE(stats.approx_bytes, options.max_bytes);
  }

  // The evidence ingested before the failed attempt survived the detour.
  const Result<std::shared_ptr<api::DatasetSession>> readmitted =
      registry.TryLookup("a");
  ASSERT_TRUE(readmitted.ok());
  EXPECT_EQ(readmitted.value()->record_count(), 1u);
  fault::DisarmAll();
}

}  // namespace
}  // namespace ppdm::store
