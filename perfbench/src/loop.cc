#include "loop.h"

#include <chrono>
#include <thread>
#include <unordered_map>

#include "common/strings.h"
#include "ledger.h"
#include "reference.h"
#include "store/codec.h"
#include "synth/generator.h"

namespace perfbench {

using ppdm::Result;
using ppdm::Status;
using ppdm::net::Client;
using ppdm::net::Verb;

namespace {

using Clock = std::chrono::steady_clock;

/// A traced worker fetches the daemon's span ring after this many of its
/// own requests; with two workers that stays well inside the ring's 512
/// spans even on the spill path.
constexpr std::size_t kTraceFetchEvery = 16;
constexpr std::size_t kCapturedFramesPerWorker = 32;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

std::size_t NumCols() { return ppdm::synth::kNumAttributes; }

/// Everything one loop thread owns.
struct Worker {
  Client* client = nullptr;
  LoopStats stats;
  bool traced = false;
  std::uint64_t worker_index = 0;
  std::uint64_t next_request_id = 1ULL << 40;
  std::uint64_t next_trace = 1;
  std::size_t since_fetch = 0;
  /// Traced requests not yet joined: trace id → index in stats.traced.
  std::unordered_map<std::uint64_t, std::size_t> pending;

  void Fail(const Status& status) {
    ++stats.failed;
    if (stats.first_error.empty()) stats.first_error = status.ToString();
  }
};

/// Fetches the daemon's span ring and attaches every span of a pending
/// trace id to its sample. Unmatched samples stay unjoined (dropped by the
/// ring before the fetch).
void FetchAndJoin(Worker* worker) {
  worker->since_fetch = 0;
  if (worker->pending.empty()) return;
  const Result<std::string> json = worker->client->Trace();
  if (json.ok()) {
    for (DaemonSpan& span : ParseChromeTrace(json.value())) {
      const auto it = worker->pending.find(span.trace);
      if (it == worker->pending.end()) continue;
      worker->stats.traced[it->second].spans.push_back(std::move(span));
    }
  }
  worker->pending.clear();
}

/// One traced request: the payload build plus EncodeFrame, SendRaw to
/// ReadFrame, and DecodeResponseBody plus the payload decode, each timed.
template <typename Build, typename Decode>
Result<double> TracedCall(Worker* worker, Verb verb, std::uint64_t tenant,
                          bool query, Build build, Decode decode) {
  StageSample sample;
  sample.trace_id = (worker->worker_index + 1) << 56 | worker->next_trace++;
  sample.query = query;
  const std::uint64_t request_id = worker->next_request_id++;
  const auto t0 = Clock::now();
  const std::string payload = build();
  const std::string frame = ppdm::net::EncodeFrame(verb, request_id, tenant, 0,
                                                   payload, sample.trace_id);
  const auto t1 = Clock::now();
  Status status = worker->client->SendRaw(frame);
  Result<ppdm::net::Frame> response =
      status.ok() ? worker->client->ReadFrame() : Result<ppdm::net::Frame>(status);
  const auto t2 = Clock::now();
  status = [&]() -> Status {
    PPDM_RETURN_IF_ERROR(response.status());
    if (response.value().header.request_id != request_id) {
      return Status::Internal("response correlates another request");
    }
    PPDM_ASSIGN_OR_RETURN(
        const ppdm::net::ResponseBody body,
        ppdm::net::DecodeResponseBody(response.value().body));
    PPDM_RETURN_IF_ERROR(body.status);
    return decode(body.payload);
  }();
  const auto t3 = Clock::now();
  if (!status.ok()) return status;
  sample.encode_us = Us(t1 - t0);
  sample.round_trip_us = Us(t2 - t1);
  sample.decode_us = Us(t3 - t2);
  sample.total_us = Us(t3 - t0);
  worker->pending[sample.trace_id] = worker->stats.traced.size();
  worker->stats.traced.push_back(sample);
  if (verb == Verb::kIngest) {
    worker->stats.ingest_payload_bytes += payload.size();
    if (worker->stats.captured_frames.size() < kCapturedFramesPerWorker) {
      worker->stats.captured_frames.push_back(frame);
    }
  }
  if (++worker->since_fetch >= kTraceFetchEvery) FetchAndJoin(worker);
  return sample.total_us / 1e3;
}

/// Ingests the tenant's next pool batch; records the latency and the op,
/// and checks the acknowledged count against the running total.
void Ingest(Worker* worker, const TenantData& tenant, TenantLog* log) {
  const auto index = static_cast<std::uint32_t>(log->next_batch++ %
                                                tenant.batches.size());
  const std::vector<double>& values = tenant.batches[index];
  const std::uint64_t rows = values.size() / NumCols();
  std::uint64_t count = 0;
  ++worker->stats.attempted;
  Result<double> ms = Status::Internal("unset");
  if (worker->traced) {
    ms = TracedCall(
        worker, Verb::kIngest, tenant.id, /*query=*/false,
        [&] {
          ppdm::store::Writer writer;
          writer.PutU64(rows);
          writer.PutU64(NumCols());
          writer.PutDoubleArray(values);
          return writer.Take();
        },
        [&](std::string_view payload) -> Status {
          ppdm::store::Reader reader(payload);
          PPDM_ASSIGN_OR_RETURN(count, reader.ReadU64());
          return Status::Ok();
        });
  } else {
    const auto t0 = Clock::now();
    Result<std::uint64_t> acked =
        worker->client->Ingest(tenant.id, rows, NumCols(), values);
    const auto t1 = Clock::now();
    if (acked.ok()) {
      count = acked.value();
      ms = Us(t1 - t0) / 1e3;
    } else {
      ms = acked.status();
    }
  }
  if (!ms.ok()) {
    worker->Fail(ms.status());
    return;
  }
  worker->stats.ingest_ms.push_back(ms.value());
  log->acked_records += rows;
  if (count != log->acked_records) ++worker->stats.count_mismatches;
  worker->stats.acked_records += rows;
  log->ops.push_back({index, false});
}

/// Decodes a reconstruct payload into per-attribute masses.
Status DecodeEstimates(std::string_view payload,
                       std::vector<std::vector<double>>* masses) {
  ppdm::store::Reader reader(payload);
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t count, reader.ReadU64());
  masses->clear();
  for (std::uint64_t a = 0; a < count; ++a) {
    PPDM_RETURN_IF_ERROR(reader.ReadU64().status());  // iterations
    PPDM_RETURN_IF_ERROR(reader.ReadU64().status());  // sample count
    PPDM_ASSIGN_OR_RETURN(std::vector<double> estimate,
                          reader.ReadDoubleArray());
    masses->push_back(std::move(estimate));
  }
  return Status::Ok();
}

Status ReconstructUntraced(Client* client, std::uint64_t tenant,
                           TenantLog* log) {
  PPDM_ASSIGN_OR_RETURN(const std::vector<ppdm::net::AttributeEstimate> estimates,
                        client->Reconstruct(tenant));
  log->last_masses.clear();
  for (const ppdm::net::AttributeEstimate& estimate : estimates) {
    log->last_masses.push_back(estimate.masses);
  }
  log->ops.push_back({0, true});
  return Status::Ok();
}

/// The workload's query verb for one tenant.
void Query(Worker* worker, const Workload& workload, const TenantData& tenant,
           TenantLog* log) {
  ++worker->stats.attempted;
  Result<double> ms = Status::Internal("unset");
  const bool reconstruct = workload.reconstructs();
  const Verb verb = workload.query_verb;
  if (worker->traced) {
    std::vector<std::vector<double>> masses;
    ms = TracedCall(
        worker, verb, tenant.id, /*query=*/true, [] { return std::string(); },
        [&](std::string_view payload) -> Status {
          if (reconstruct) return DecodeEstimates(payload, &masses);
          ppdm::store::Reader reader(payload);
          return reader.ReadU64().status();
        });
    if (ms.ok() && reconstruct) {
      log->last_masses = std::move(masses);
      log->ops.push_back({0, true});
    }
  } else {
    const auto t0 = Clock::now();
    const Status status =
        reconstruct ? ReconstructUntraced(worker->client, tenant.id, log)
                    : worker->client->Snapshot(tenant.id).status();
    const auto t1 = Clock::now();
    ms = status.ok() ? Result<double>(Us(t1 - t0) / 1e3) : Result<double>(status);
  }
  if (!ms.ok()) {
    worker->Fail(ms.status());
    return;
  }
  worker->stats.query_ms.push_back(ms.value());
}

}  // namespace

void Append(LoopStats* into, LoopStats&& from) {
  auto append = [](auto* dst, auto&& src) {
    dst->insert(dst->end(), std::make_move_iterator(src.begin()),
                std::make_move_iterator(src.end()));
  };
  append(&into->ingest_ms, std::move(from.ingest_ms));
  append(&into->query_ms, std::move(from.query_ms));
  append(&into->traced, std::move(from.traced));
  append(&into->captured_frames, std::move(from.captured_frames));
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->acked_records += from.acked_records;
  into->count_mismatches += from.count_mismatches;
  into->ingest_payload_bytes += from.ingest_payload_bytes;
  into->wall_s += from.wall_s;
  into->client_cpu_s += from.client_cpu_s;
  into->daemon_cpu_s += from.daemon_cpu_s;
  if (into->first_error.empty()) into->first_error = from.first_error;
}

Status LoadGen::Connect(int port) {
  clients_.clear();
  for (std::size_t c = 0; c < kConnections; ++c) {
    PPDM_ASSIGN_OR_RETURN(Client client, Client::Connect("127.0.0.1", port));
    clients_.push_back(std::move(client));
  }
  return Status::Ok();
}

template <typename Fn>
Status LoadGen::PerWorker(Fn fn) {
  std::vector<Status> results(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kConnections; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::size_t> mine;
      for (std::size_t t = w; t < tenants_.size(); t += kConnections) {
        mine.push_back(t);
      }
      results[w] = fn(w, &clients_[w], mine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& result : results) PPDM_RETURN_IF_ERROR(result);
  return Status::Ok();
}

Status LoadGen::OpenAndWarm() {
  logs_.assign(tenants_.size(), TenantLog{});
  const ppdm::api::DatasetSessionSpec spec = SessionSpec(workload_);
  return PerWorker([&](std::size_t, Client* client,
                       const std::vector<std::size_t>& mine) -> Status {
    Worker worker;
    worker.client = client;
    for (const std::size_t t : mine) {
      PPDM_RETURN_IF_ERROR(client->Open(tenants_[t].id, spec).status());
      Ingest(&worker, tenants_[t], &logs_[t]);
      if (workload_.reconstructs()) {
        PPDM_RETURN_IF_ERROR(
            ReconstructUntraced(client, tenants_[t].id, &logs_[t]));
      }
    }
    if (worker.stats.failed > 0 || worker.stats.count_mismatches > 0) {
      return Status::Internal("warm-up ingest failed: " +
                              worker.stats.first_error);
    }
    return Status::Ok();
  });
}

LoopStats LoadGen::Run(double seconds, bool traced) {
  std::vector<Worker> workers(kConnections);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  (void)PerWorker([&](std::size_t w, Client* client,
                      const std::vector<std::size_t>& mine) -> Status {
    Worker& worker = workers[w];
    worker.client = client;
    worker.traced = traced;
    worker.worker_index = w;
    const double cpu_start = ThreadCpuSeconds();
    while (Clock::now() < deadline) {
      for (const std::size_t t : mine) {
        if (Clock::now() >= deadline) break;
        TenantLog& log = logs_[t];
        Ingest(&worker, tenants_[t], &log);
        ++log.loop_ingests;
        if (workload_.query_every > 0 &&
            log.loop_ingests % workload_.query_every == 0 &&
            Clock::now() < deadline) {
          Query(&worker, workload_, tenants_[t], &log);
        }
      }
    }
    if (traced) FetchAndJoin(&worker);
    worker.stats.client_cpu_s = ThreadCpuSeconds() - cpu_start;
    return Status::Ok();
  });
  LoopStats stats;
  for (Worker& worker : workers) Append(&stats, std::move(worker.stats));
  stats.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return stats;
}

Status LoadGen::FinalReconstruct() {
  return PerWorker([&](std::size_t, Client* client,
                       const std::vector<std::size_t>& mine) -> Status {
    for (const std::size_t t : mine) {
      PPDM_RETURN_IF_ERROR(
          ReconstructUntraced(client, tenants_[t].id, &logs_[t]));
    }
    return Status::Ok();
  });
}

Result<std::string> LoadGen::Stats() { return clients_.front().Stats(); }

Status RunUtilityPass(int port, const Workload& workload,
                      const TenantData& tenant, TenantLog* log) {
  PPDM_ASSIGN_OR_RETURN(Client client, Client::Connect("127.0.0.1", port));
  PPDM_RETURN_IF_ERROR(
      client.Open(tenant.id, SessionSpec(workload)).status());
  Worker worker;
  worker.client = &client;
  for (std::size_t b = 0; b < tenant.batches.size(); ++b) {
    Ingest(&worker, tenant, log);
  }
  if (worker.stats.failed > 0 || worker.stats.count_mismatches > 0) {
    return Status::Internal("utility ingest failed: " +
                            worker.stats.first_error);
  }
  return ReconstructUntraced(&client, tenant.id, log);
}

}  // namespace perfbench
