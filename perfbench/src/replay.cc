#include "replay.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "api/registry.h"
#include "common/strings.h"
#include "engine/thread_pool.h"
#include "net/frame.h"
#include "sample_stats.h"
#include "store/codec.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "store/spill_store.h"
#include "synth/generator.h"

namespace perfbench {

using ppdm::Status;
using ppdm::StrFormat;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps timed results observable so the calls cannot be elided.
volatile std::size_t g_sink = 0;

/// The daemon runs --threads=2; in-process sessions get the same pool.
constexpr std::size_t kPoolThreads = 2;

ppdm::data::RowBatch BatchOf(const std::vector<double>& values) {
  const std::size_t cols = ppdm::synth::kNumAttributes;
  return ppdm::data::RowBatch(values.data(), values.size() / cols, cols);
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Replays one tenant's ops; "" when its last reconstruct matches.
std::string ReplayTenant(const ppdm::api::DatasetSessionSpec& spec,
                         const TenantData& tenant, const TenantLog& log,
                         ppdm::engine::ThreadPool* pool) {
  auto opened = ppdm::api::DatasetSession::Open(spec, pool);
  if (!opened.ok()) return opened.status().ToString();
  ppdm::api::DatasetSession& session = *opened.value();
  std::vector<ppdm::reconstruct::Reconstruction> last;
  for (const Op& op : log.ops) {
    if (op.reconstruct) {
      auto estimates = session.ReconstructAll();
      if (!estimates.ok()) return estimates.status().ToString();
      last = std::move(estimates).value();
    } else if (Status s = session.Ingest(BatchOf(tenant.batches[op.batch]));
               !s.ok()) {
      return s.ToString();
    }
  }
  if (last.empty() || last.size() != log.last_masses.size()) {
    return "no comparable final reconstruct";
  }
  for (std::size_t a = 0; a < last.size(); ++a) {
    if (!SameBytes(last[a].masses, log.last_masses[a])) {
      return StrFormat("attribute %zu masses differ from the in-process "
                       "session",
                       a);
    }
  }
  return "";
}

/// Times `fn(i)` call by call until `max_calls` calls or `budget_s`
/// seconds, whichever comes first; returns the per-call µs.
template <typename Fn>
std::vector<double> TimeCalls(std::size_t max_calls, double budget_s, Fn fn) {
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(budget_s));
  for (std::size_t i = 0; i < max_calls && (i == 0 || Clock::now() < stop);
       ++i) {
    const auto t0 = Clock::now();
    fn(i);
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return us;
}

double P50(std::vector<double> samples) { return Summarize(std::move(samples)).p50; }

}  // namespace

OracleResult CheckServedMasses(const Workload& workload,
                               const std::vector<TenantData>& tenants,
                               const std::vector<TenantLog>& logs) {
  const ppdm::api::DatasetSessionSpec spec = SessionSpec(workload);
  std::vector<std::string> failures(tenants.size());
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kConnections; ++w) {
    threads.emplace_back([&, w] {
      ppdm::engine::ThreadPool pool(kPoolThreads);
      for (std::size_t t = w; t < tenants.size(); t += kConnections) {
        failures[t] = ReplayTenant(spec, tenants[t], logs[t], &pool);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  OracleResult result;
  result.tenants = tenants.size();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (failures[t].empty()) continue;
    result.ok = false;
    if (result.detail.empty()) {
      result.detail = StrFormat("tenant %llu: %s",
                                static_cast<unsigned long long>(tenants[t].id),
                                failures[t].c_str());
    }
  }
  return result;
}

std::map<std::string, double> MeasureLayers(
    const Workload& workload, const std::vector<TenantData>& tenants,
    const std::vector<std::string>& frames, const std::string& scratch_dir) {
  std::map<std::string, double> out;
  const std::vector<std::vector<double>>& batches = tenants.front().batches;

  // net + store codec over the captured request frames.
  std::vector<std::string_view> bodies;
  for (const std::string& frame : frames) {
    auto header = ppdm::net::DecodeHeader(frame, ppdm::net::kDefaultMaxBodyBytes);
    if (header.ok()) {
      bodies.push_back(std::string_view(frame).substr(header.value().header_size));
    }
  }
  if (!bodies.empty()) {
    out["net.frame_parse_us"] = P50(TimeCalls(4096, 0.25, [&](std::size_t i) {
      const std::string& frame = frames[i % frames.size()];
      g_sink = g_sink + ppdm::net::HeaderBytesNeeded(frame);
      auto header =
          ppdm::net::DecodeHeader(frame, ppdm::net::kDefaultMaxBodyBytes);
      const Status verified = ppdm::net::VerifyBody(
          header.value(),
          std::string_view(frame).substr(header.value().header_size));
      g_sink = g_sink + verified.ok();
    }));
    std::vector<double> rates;
    const std::vector<double> crc_us =
        TimeCalls(4096, 0.25, [&](std::size_t i) {
          g_sink = g_sink + ppdm::store::Crc32(bodies[i % bodies.size()]);
        });
    for (std::size_t i = 0; i < crc_us.size(); ++i) {
      rates.push_back(static_cast<double>(bodies[i % bodies.size()].size()) /
                      crc_us[i]);  // bytes per µs = MB/s
    }
    out["store.crc32_mb_per_s"] = P50(rates);
    out["store.array_decode_us"] = P50(TimeCalls(4096, 0.25, [&](std::size_t i) {
      ppdm::store::Reader reader(bodies[i % bodies.size()]);
      (void)reader.ReadU64();
      (void)reader.ReadU64();
      g_sink = g_sink + reader.ReadDoubleArray().value().size();
    }));
  }
  out["store.array_encode_us"] = P50(TimeCalls(4096, 0.25, [&](std::size_t i) {
    ppdm::store::Writer writer;
    writer.PutDoubleArray(batches[i % batches.size()]);
    g_sink = g_sink + writer.bytes().size();
  }));

  // api session: ingest, and a warm refresh after each new batch.
  ppdm::engine::ThreadPool pool(kPoolThreads);
  const ppdm::api::DatasetSessionSpec spec = SessionSpec(workload);
  auto opened = ppdm::api::DatasetSession::Open(spec, &pool);
  if (!opened.ok()) return out;
  ppdm::api::DatasetSession& session = *opened.value();
  out["api.session_ingest_us"] = P50(TimeCalls(1024, 0.25, [&](std::size_t i) {
    g_sink = g_sink + session.Ingest(BatchOf(batches[i % batches.size()])).ok();
  }));
  std::vector<double> refresh_us;
  for (std::size_t i = 0; i < 256; ++i) {
    (void)session.Ingest(BatchOf(batches[i % batches.size()]));
    const auto t0 = Clock::now();
    g_sink = g_sink + session.ReconstructAll().ok();
    refresh_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (i >= 16 && Summarize(refresh_us).mean * static_cast<double>(i) > 3e5) {
      break;
    }
  }
  out["api.session_reconstruct_us"] = P50(refresh_us);

  // store: the session codec and the snapshot store.
  std::string capture;
  out["store.session_encode_us"] = P50(TimeCalls(256, 0.2, [&](std::size_t) {
    capture = ppdm::store::EncodeDatasetSession(session);
  }));
  out["store.session_decode_us"] = P50(TimeCalls(256, 0.2, [&](std::size_t) {
    g_sink = g_sink + ppdm::store::DecodeDatasetSession(capture, &pool).ok();
  }));
  const std::string store_dir = scratch_dir + "/layer-store";
  const std::string spill_dir = scratch_dir + "/layer-spill";
  auto store = ppdm::store::SnapshotStore::Open(store_dir);
  if (store.ok()) {
    out["store.put_us"] = P50(TimeCalls(24, 0.5, [&](std::size_t) {
      g_sink = g_sink + store.value().Put("t0", capture).ok();
    }));
    out["store.get_us"] = P50(TimeCalls(256, 0.2, [&](std::size_t) {
      g_sink = g_sink + store.value().Get("t0").ok();
    }));
  }

  // api registry: a resident lookup, and a readmission from the spill
  // tier (a 1-byte budget keeps only the most recently touched tenant).
  {
    ppdm::api::SessionRegistry registry({}, &pool);
    auto resident = registry.Open("t0", spec);
    if (resident.ok()) {
      (void)resident.value()->Ingest(BatchOf(batches.front()));
      out["api.registry_lookup_us"] = P50(TimeCalls(4096, 0.1, [&](std::size_t) {
        g_sink = g_sink + registry.TryLookup("t0").ok();
      }));
    }
  }
  auto spill_store = ppdm::store::SnapshotStore::Open(spill_dir);
  if (spill_store.ok()) {
    ppdm::store::SessionSpillStore spill(spill_store.value());
    ppdm::api::SessionRegistryOptions options;
    options.max_bytes = 1;
    options.spill = &spill;
    ppdm::api::SessionRegistry registry(options, &pool);
    for (const char* name : {"t0", "t1"}) {
      auto session_or = registry.Open(name, spec);
      if (session_or.ok()) {
        (void)session_or.value()->Ingest(BatchOf(batches.front()));
      }
    }
    out["api.registry_readmit_us"] = P50(TimeCalls(24, 0.5, [&](std::size_t i) {
      g_sink = g_sink + registry.TryLookup(i % 2 == 0 ? "t0" : "t1").ok();
    }));
  }
  std::error_code ignored;
  std::filesystem::remove_all(store_dir, ignored);
  std::filesystem::remove_all(spill_dir, ignored);
  return out;
}

}  // namespace perfbench
