// P7 — persistence subsystem: the byte codec under every snapshot and
// every served ingest (CRC32 on each SIMD path at the served body sizes,
// double-array encode/decode, ingest frame encode + verify, at the served
// ingest shape and cut down to two tracked columns), then snapshot
// encode / store put / store get / decode+restore throughput as the
// session grows (attribute count), and the registry's spill path —
// re-admission latency of a TryLookup served from disk vs. one served
// from RAM, and the daemon's drain of 64 tenants that overflow a 1 MiB
// registry (wall time of Server::Stop, store puts and re-admissions).
// Ends with the round-trip equivalence cross-check (restore, continue,
// byte-compare against the never-snapshotted session). Honours
// PPDM_PAPER_SCALE=1 and PPDM_BENCH_RECORDS=N (CI smoke); the codec rows,
// the drain row and a machine fingerprint go to PPDM_BENCH_JSON as
// NDJSON.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/dataset_session.h"
#include "api/registry.h"
#include "bench/bench_util.h"
#include "data/row_batch.h"
#include "engine/simd.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "perturb/randomizer.h"
#include "store/codec.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "store/spill_store.h"
#include "synth/generator.h"

namespace {

using namespace ppdm;

constexpr std::size_t kIntervals = 60;

api::DatasetSessionSpec SpecFor(const data::Schema& schema,
                                std::size_t num_attrs) {
  api::DatasetSessionSpec spec;
  spec.schema = schema;
  for (std::size_t column = 0; column < num_attrs; ++column) {
    api::AttributeSpec attr;
    attr.column = column;
    attr.intervals = kIntervals;
    attr.noise = perturb::NoiseKind::kUniform;
    attr.privacy_fraction = 1.0;
    spec.attributes.push_back(attr);
  }
  return spec;
}

bool Identical(const reconstruct::Reconstruction& a,
               const reconstruct::Reconstruction& b) {
  return a.masses == b.masses && a.iterations == b.iterations &&
         a.sample_count == b.sample_count;
}

/// Keeps timed results observable so the calls cannot be elided.
volatile std::size_t g_sink = 0;

/// Best of five timings of `calls` back-to-back calls of `fn`, in
/// microseconds per call: one timing spans milliseconds, not one call.
double BestUsPerCall(std::size_t calls, const std::function<void()>& fn) {
  double best = 0.0;
  for (int repeat = 0; repeat < 5; ++repeat) {
    const double seconds = bench::WallSeconds([&] {
      for (std::size_t i = 0; i < calls; ++i) fn();
    });
    const double us = 1e6 * seconds / static_cast<double>(calls);
    if (repeat == 0 || us < best) best = us;
  }
  return best;
}

/// One codec row: the table line plus its NDJSON record.
void CodecRow(const std::string& label, std::size_t bytes, double us) {
  const double mb_per_s = static_cast<double>(bytes) / us;  // bytes/µs
  std::printf("%-36s %10.2f %12.0f\n", label.c_str(), us, mb_per_s);
  bench::EmitBenchJson("perf_store", label,
                       {{"bytes", static_cast<double>(bytes)},
                        {"us_per_call", us},
                        {"mb_per_s", mb_per_s}});
}

/// One ingest frame's trip through the wire codec: encode, then the
/// header decode and body CRC check the daemon runs before dispatch.
double FrameEncodeVerifyUs(std::size_t calls, net::Verb verb,
                           const std::string& body) {
  return BestUsPerCall(calls, [&] {
    const std::string frame = net::EncodeFrame(verb, 1, 1, 0, body);
    const net::FrameHeader header =
        net::DecodeHeader(frame, net::kDefaultMaxBodyBytes).value();
    g_sink = g_sink +
             net::VerifyBody(header,
                             std::string_view(frame).substr(header.header_size))
                 .ok();
  });
}

/// The byte layer at the served ingest shape: 1024 rows of the 9-field
/// schema, 9,216 doubles, a 73,728-byte array. The tracked rows are the
/// same 1024 rows cut down to columns 0 and 1, the ingest_tracked body a
/// client sends for a tenant reconstructing two attributes: the gather
/// (compare "double array encode 9216") and its 16,424-byte frame.
void RunCodecRows() {
  std::size_t num_cols = 0;
  const std::vector<double> values = bench::PerturbedRowMajor(
      1024, synth::Function::kF1, 20000607, 99, &num_cols);
  store::Writer writer;
  writer.PutU64(values.size() / num_cols);
  writer.PutU64(num_cols);
  writer.PutDoubleArray(values);
  const std::string body = writer.Take();
  const std::string array_bytes = body.substr(16);  // count + elements
  constexpr std::size_t kCalls = 200;

  bench::EmitMachineFingerprint("perf_store");
  std::printf("%-36s %10s %12s\n", "codec case", "us/call", "MB/s");
  // The CRC kernel on each SIMD path, at the refresh-em tracked body
  // (64 rows x 9 columns), the ingest-wire tracked body (1024 x 2) and the
  // full 1024 x 9 array; shorter buffers get proportionally more calls.
  const std::string payload = body.substr(16 + 8);  // elements alone
  const engine::simd::Path active = engine::simd::ActivePath();
  for (const engine::simd::Path path :
       {engine::simd::Path::kScalar, engine::simd::Path::kAvx2}) {
    if (!engine::simd::SetPath(path).ok()) continue;
    for (const std::size_t bytes : {std::size_t{4704}, std::size_t{16424},
                                    payload.size()}) {
      const std::string_view buffer(payload.data(), bytes);
      CodecRow("crc32 " + std::to_string(bytes) + " B " +
                   engine::simd::PathName(path),
               bytes,
               BestUsPerCall(kCalls * (payload.size() / bytes), [&] {
                 g_sink = g_sink + store::Crc32(buffer);
               }));
    }
  }
  (void)engine::simd::SetPath(active);
  CodecRow("double array encode 9216", array_bytes.size(),
           BestUsPerCall(kCalls, [&] {
             store::Writer w;
             w.PutDoubleArray(values);
             g_sink = g_sink + w.bytes().size();
           }));
  CodecRow("double array decode 9216", array_bytes.size(),
           BestUsPerCall(kCalls, [&] {
             store::Reader reader(array_bytes);
             g_sink = g_sink + reader.ReadDoubleArray().value().size();
           }));
  CodecRow("ingest frame encode+verify", body.size(),
           FrameEncodeVerifyUs(kCalls, net::Verb::kIngest, body));

  const std::size_t rows = values.size() / num_cols;
  const std::vector<std::uint64_t> tracked = {0, 1};
  store::Writer tracked_writer;
  tracked_writer.PutU64(rows);
  tracked_writer.PutU64Array(tracked);
  tracked_writer.PutDoubleColumns(values.data(), rows, num_cols, tracked);
  const std::string tracked_body = tracked_writer.Take();
  CodecRow("tracked column gather 1024x2",
           tracked_body.size() - 8 - 8 * (1 + tracked.size()),
           BestUsPerCall(kCalls, [&] {
             store::Writer w;
             w.PutDoubleColumns(values.data(), rows, num_cols, tracked);
             g_sink = g_sink + w.bytes().size();
           }));
  CodecRow("tracked ingest frame encode+verify", tracked_body.size(),
           FrameEncodeVerifyUs(kCalls, net::Verb::kIngestTracked,
                               tracked_body));
  std::printf("\n");
}

/// The drain of a daemon whose tenants overflow its budget: 64 tenants
/// of 9 uniform attributes at 100 intervals, 40 rows each, under a
/// 1 MiB registry, so Stop() finds some resident and some spilled.
/// Times Stop() on fresh daemons and prints the median wall time with
/// the store puts and re-admissions one drain makes. Returns false when
/// a daemon cannot be driven.
bool RunDrainRow(const std::string& dir) {
  constexpr std::uint64_t kTenants = 64;
  constexpr std::size_t kRows = 40;
  constexpr int kRuns = 7;
  api::DatasetSessionSpec spec = SpecFor(synth::BenchmarkSchema(), 9);
  for (api::AttributeSpec& attr : spec.attributes) attr.intervals = 100;
  std::size_t num_cols = 0;
  const std::vector<double> rows = bench::PerturbedRowMajor(
      kTenants * kRows, synth::Function::kF1, 20000607, 99, &num_cols);
  const obs::Counter& puts =
      *obs::MetricsRegistry::Global().GetCounter("ppdm_store_puts_total");

  std::vector<double> seconds;
  std::uint64_t drain_puts = 0, readmissions = 0;
  std::size_t resident = 0, spilled = 0;
  for (int run = 0; run < kRuns; ++run) {
    std::filesystem::remove_all(dir);
    net::ServerOptions options;
    options.checkpoint_dir = dir;
    options.registry_max_bytes = std::size_t{1} << 20;
    Result<std::unique_ptr<net::Server>> server = net::Server::Start(options);
    if (!server.ok()) return false;
    {
      Result<net::Client> client =
          net::Client::Connect("127.0.0.1", server.value()->port());
      if (!client.ok()) return false;
      for (std::uint64_t tenant = 0; tenant < kTenants; ++tenant) {
        const std::vector<double> slice(
            rows.begin() + tenant * kRows * num_cols,
            rows.begin() + (tenant + 1) * kRows * num_cols);
        if (!client.value().Open(tenant, spec).ok() ||
            !client.value().Ingest(tenant, kRows, num_cols, slice).ok()) {
          return false;
        }
      }
    }
    const api::SessionRegistry::Stats before =
        server.value()->registry_stats();
    const std::uint64_t puts_before = puts.Value();
    bool stopped = false;
    seconds.push_back(bench::WallSeconds(
        [&] { stopped = server.value()->Stop().ok(); }));
    if (!stopped || server.value()->drained_checkpoints() != kTenants) {
      return false;
    }
    drain_puts = puts.Value() - puts_before;
    readmissions =
        server.value()->registry_stats().readmissions - before.readmissions;
    resident = before.open_sessions;
    spilled = before.spilled_sessions;
  }
  std::vector<double> sorted = seconds;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = sorted[sorted.size() / 2];
  const std::string label = "drain 64 tenants under 1 MiB";
  std::printf("%-36s %8.2f ms p50 (min %.2f), %llu put(s), "
              "%llu readmission(s); %zu resident, %zu spilled\n",
              label.c_str(), 1e3 * p50, 1e3 * sorted.front(),
              static_cast<unsigned long long>(drain_puts),
              static_cast<unsigned long long>(readmissions), resident,
              spilled);
  bench::EmitBenchJson(
      "perf_store", label,
      {{"seconds", sorted.front()},
       {"seconds_p50", p50},
       {"samples", static_cast<double>(sorted.size())},
       {"store_puts", static_cast<double>(drain_puts)},
       {"readmissions", static_cast<double>(readmissions)},
       {"resident", static_cast<double>(resident)},
       {"spilled", static_cast<double>(spilled)}});
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace

int main() {
  bench::PrintBanner("P7", "store: snapshot/restore + registry spill path");
  core::ExperimentConfig config = bench::DefaultConfig(synth::Function::kF1);
  config.train_records = bench::BenchRecords(config.train_records);
  const std::size_t records = config.train_records;
  std::printf("records=%zu  K=%zu  hardware threads=%u\n\n", records,
              kIntervals, std::thread::hardware_concurrency());
  RunCodecRows();
  if (!RunDrainRow((std::filesystem::temp_directory_path() /
                    "ppdm_bench_store_drain")
                       .string())) {
    std::printf("FAILED to drive the drain daemon\n");
    return 1;
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() / "ppdm_bench_store").string();
  std::filesystem::remove_all(dir);
  const Result<store::SnapshotStore> opened = store::SnapshotStore::Open(dir);
  if (!opened.ok()) {
    std::printf("FAILED to open bench store: %s\n",
                opened.status().ToString().c_str());
    return 1;
  }
  const store::SnapshotStore& snapshots = opened.value();

  std::size_t num_cols = 0;
  const std::vector<double> rows = bench::PerturbedRowMajor(
      records, synth::Function::kF1, 20000607, 99, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;
  const data::RowBatch all_rows(rows.data(), num_rows, num_cols);
  const data::Schema schema = synth::BenchmarkSchema();

  bench::ThroughputReporter reporter("records");
  for (std::size_t attrs : {std::size_t{1}, std::size_t{4},
                            std::size_t{8}}) {
    if (attrs > schema.NumFields()) continue;
    auto session = api::DatasetSession::Open(SpecFor(schema, attrs));
    if (!session.ok() || !session.value()->Ingest(all_rows).ok() ||
        !session.value()->ReconstructAll().ok()) {
      std::printf("FAILED to build the %zu-attribute session\n", attrs);
      return 1;
    }
    const std::string tag = std::to_string(attrs) + " attrs";
    const std::string baseline = "encode " + tag;

    std::string bytes;
    reporter.Measure("encode " + tag, num_rows, baseline, [&] {
      bytes = store::EncodeDatasetSession(*session.value());
    });
    const std::string name = "bench-" + tag;
    reporter.Measure("store put " + tag, num_rows, baseline, [&] {
      if (!snapshots.Put(name, bytes).ok()) std::exit(1);
    });
    reporter.Measure("store get " + tag, num_rows, baseline, [&] {
      if (!snapshots.Get(name).ok()) std::exit(1);
    });
    reporter.Measure("decode+restore " + tag, num_rows, baseline, [&] {
      if (!store::DecodeDatasetSession(bytes).ok()) std::exit(1);
    });
    std::printf("%-36s %10.1f KiB on disk\n", ("  snapshot " + tag).c_str(),
                static_cast<double>(bytes.size()) / 1024.0);
  }

  // Registry spill path: a budget-starved two-tenant registry demotes one
  // session and re-admits the other on every alternating TryLookup; the
  // unbounded registry serves the same traffic from RAM.
  {
    store::SessionSpillStore spill(snapshots);
    api::SessionRegistryOptions starved_options;
    starved_options.max_bytes = 1;
    starved_options.spill = &spill;
    api::SessionRegistry starved(starved_options);
    api::SessionRegistry unbounded({});
    const api::DatasetSessionSpec spec = SpecFor(schema, 4);
    const std::size_t half = num_rows / 2;
    for (const char* name : {"left", "right"}) {
      auto hot = starved.Open(name, spec);
      auto cold = unbounded.Open(name, spec);
      if (!hot.ok() || !cold.ok() ||
          !hot.value()->Ingest(all_rows.Slice(0, half)).ok() ||
          !cold.value()->Ingest(all_rows.Slice(0, half)).ok()) {
        std::printf("FAILED to seed the spill registries\n");
        return 1;
      }
    }
    const std::size_t lookups = 64;
    reporter.Measure("lookup from RAM x64", lookups, "lookup from RAM x64",
                     [&] {
                       for (std::size_t i = 0; i < lookups; ++i) {
                         if (!unbounded.TryLookup(i % 2 ? "left" : "right")
                                  .ok()) {
                           std::exit(1);
                         }
                       }
                     });
    reporter.Measure("lookup via spill x64", lookups, "lookup from RAM x64",
                     [&] {
                       for (std::size_t i = 0; i < lookups; ++i) {
                         if (!starved.TryLookup(i % 2 ? "left" : "right")
                                  .ok()) {
                           std::exit(1);
                         }
                       }
                     });
    const api::SessionRegistry::Stats stats = starved.GetStats();
    std::printf("  spill traffic: %llu spill(s), %llu readmission(s), "
                "%llu failure(s)\n",
                static_cast<unsigned long long>(stats.spills),
                static_cast<unsigned long long>(stats.readmissions),
                static_cast<unsigned long long>(stats.spill_failures));
    if (stats.spill_failures != 0) {
      std::printf("EQUIVALENCE FAILED: spill failures on the bench path\n");
      return 1;
    }
  }

  // Round-trip equivalence cross-check: snapshot mid-stream, restore,
  // continue both, byte-compare the estimates.
  {
    const api::DatasetSessionSpec spec = SpecFor(schema, 4);
    const std::size_t half = num_rows / 2;
    auto live = api::DatasetSession::Open(spec);
    if (!live.ok() || !live.value()->Ingest(all_rows.Slice(0, half)).ok() ||
        !live.value()->ReconstructAll().ok()) {
      std::printf("EQUIVALENCE FAILED: cannot build the live session\n");
      return 1;
    }
    auto restored =
        store::DecodeDatasetSession(store::EncodeDatasetSession(
            *live.value()));
    if (!restored.ok()) {
      std::printf("EQUIVALENCE FAILED: %s\n",
                  restored.status().ToString().c_str());
      return 1;
    }
    if (!live.value()->Ingest(all_rows.Slice(half, num_rows - half)).ok() ||
        !restored.value()
             ->Ingest(all_rows.Slice(half, num_rows - half))
             .ok()) {
      std::printf("EQUIVALENCE FAILED: continuation ingest\n");
      return 1;
    }
    const auto live_estimates = live.value()->ReconstructAll();
    const auto restored_estimates = restored.value()->ReconstructAll();
    if (!live_estimates.ok() || !restored_estimates.ok()) {
      std::printf("EQUIVALENCE FAILED: continuation reconstruct\n");
      return 1;
    }
    for (std::size_t a = 0; a < live_estimates.value().size(); ++a) {
      if (!Identical(live_estimates.value()[a],
                     restored_estimates.value()[a])) {
        std::printf("EQUIVALENCE FAILED at attribute %zu\n", a);
        return 1;
      }
    }
    std::printf("\nequivalence OK: restored session continued "
                "byte-identically over %zu records x %zu attrs\n",
                num_rows, live_estimates.value().size());
  }

  std::filesystem::remove_all(dir);
  return 0;
}
