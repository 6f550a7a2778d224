// P8 — network serving: the daemon behind a real TCP loopback, swept
// over tenant counts. Each sweep starts a fresh in-process Server, drives
// it with one client connection per tenant group (ingest every batch,
// reconstruct every 4th), and reports sustained QPS plus client-side
// p50/p99 per verb — the numbers an operator sizes `ppdm served` with.
// Emits one NDJSON row per sweep (EmitBenchJson; PPDM_BENCH_JSON=FILE
// appends them to a file). Honours PPDM_BENCH_RECORDS=N (CI smoke).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "synth/generator.h"

namespace {

using namespace ppdm;

constexpr std::size_t kIntervals = 30;
constexpr std::size_t kBatchRecords = 1024;
constexpr std::size_t kNumAttrs = 2;
constexpr std::size_t kReconstructEvery = 4;

api::DatasetSessionSpec SpecFor(const data::Schema& schema) {
  api::DatasetSessionSpec spec;
  spec.schema = schema;
  for (std::size_t column = 0; column < kNumAttrs; ++column) {
    api::AttributeSpec attr;
    attr.column = column;
    attr.intervals = kIntervals;
    attr.noise = perturb::NoiseKind::kUniform;
    attr.privacy_fraction = 1.0;
    spec.attributes.push_back(attr);
  }
  spec.shard_size = 512;
  return spec;
}

}  // namespace

int main() {
  bench::PrintBanner("P8", "network serving daemon: QPS vs tenant count");
  const std::size_t records_per_tenant = bench::BenchRecords(8000);
  const std::size_t server_threads =
      std::max(2u, std::thread::hardware_concurrency() / 2);
  std::printf("records/tenant=%zu  batch=%zu  attrs=%zu  server threads=%zu\n\n",
              records_per_tenant, kBatchRecords, kNumAttrs, server_threads);

  const data::Schema schema = synth::BenchmarkSchema();
  const api::DatasetSessionSpec spec = SpecFor(schema);
  std::size_t num_cols = 0;
  const std::vector<double> rows = bench::PerturbedRowMajor(
      records_per_tenant, synth::Function::kF1, /*seed=*/20000607,
      /*noise_seed=*/0x5DEECE66DULL, &num_cols);
  const std::size_t num_rows = rows.size() / num_cols;

  auto& metrics = obs::MetricsRegistry::Global();
  std::printf("%-14s %10s %12s %12s %12s %12s\n", "case", "req/s",
              "ing p50 ms", "ing p99 ms", "rec p50 ms", "rec p99 ms");

  for (const std::size_t tenants : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const std::string label = "tenants=" + std::to_string(tenants);
    net::ServerOptions options;
    options.num_threads = server_threads;
    options.shard_size = 512;
    auto server = net::Server::Start(options);
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
      return 1;
    }
    const int port = server.value()->port();

    obs::Histogram* ingest_hist = metrics.GetHistogram(
        "ppdm_bench_serve_ingest_seconds",
        obs::Histogram::LatencyBucketsSeconds(), {{"case", label}});
    obs::Histogram* reconstruct_hist = metrics.GetHistogram(
        "ppdm_bench_serve_reconstruct_seconds",
        obs::Histogram::LatencyBucketsSeconds(), {{"case", label}});
    std::atomic<std::uint64_t> requests{0};
    std::atomic<bool> failed{false};

    // One connection per tenant, one driver thread per connection (the
    // loadgen shape with connections == tenants).
    auto drive = [&](std::uint64_t tenant) {
      auto client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok() || !client.value().Open(tenant, spec).ok()) {
        failed.store(true);
        return;
      }
      requests.fetch_add(1, std::memory_order_relaxed);
      std::size_t batch_index = 0;
      for (std::size_t r = 0; r < num_rows; r += kBatchRecords) {
        const std::size_t n = std::min(kBatchRecords, num_rows - r);
        const std::vector<double> batch(rows.begin() + r * num_cols,
                                        rows.begin() + (r + n) * num_cols);
        obs::ScopedTimer timer(ingest_hist);
        if (!client.value().Ingest(tenant, n, num_cols, batch).ok()) {
          failed.store(true);
          return;
        }
        timer.Stop();
        requests.fetch_add(1, std::memory_order_relaxed);
        if (++batch_index % kReconstructEvery == 0) {
          obs::ScopedTimer refresh(reconstruct_hist);
          if (!client.value().Reconstruct(tenant).ok()) {
            failed.store(true);
            return;
          }
          refresh.Stop();
          requests.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };

    const double seconds = bench::WallSeconds([&] {
      std::vector<std::thread> drivers;
      for (std::uint64_t tenant = 0; tenant < tenants; ++tenant) {
        drivers.emplace_back(drive, tenant);
      }
      for (std::thread& driver : drivers) driver.join();
    });
    if (failed.load() || !server.value()->Stop().ok()) {
      std::fprintf(stderr, "%s: request failure\n", label.c_str());
      return 1;
    }

    const double qps =
        seconds > 0 ? static_cast<double>(requests.load()) / seconds : 0.0;
    const double ing_p50 = 1e3 * ingest_hist->Quantile(0.5);
    const double ing_p99 = 1e3 * ingest_hist->Quantile(0.99);
    const double rec_p50 = 1e3 * reconstruct_hist->Quantile(0.5);
    const double rec_p99 = 1e3 * reconstruct_hist->Quantile(0.99);
    std::printf("%-14s %10.0f %12.3f %12.3f %12.3f %12.3f\n", label.c_str(),
                qps, ing_p50, ing_p99, rec_p50, rec_p99);
    bench::EmitBenchJson(
        "perf_serve", label,
        {{"tenants", static_cast<double>(tenants)},
         {"requests", static_cast<double>(requests.load())},
         {"seconds", seconds},
         {"qps", qps},
         {"ingest_p50_ms", ing_p50},
         {"ingest_p99_ms", ing_p99},
         {"reconstruct_p50_ms", rec_p50},
         {"reconstruct_p99_ms", rec_p99}});
  }
  return 0;
}
