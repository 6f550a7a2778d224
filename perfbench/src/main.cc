// perfbench_load — the served-path benchmark's load generator.
//
//   perfbench_load --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --daemon=PATH/ppdm --workdir=DIR
//
// Spawns `ppdm served --threads=2 --port=0` (plus the workload's registry
// and checkpoint flags), sets it up several times to time set-up, drives
// the workload's closed loop for S seconds, then checks the outputs: every
// ingest acknowledgement equals the client's running total, and every
// tenant's final served masses are byte-identical to an in-process
// api::DatasetSession fed the same ops. The last stdout line is the JSON
// result: end-to-end metrics with --trace=0, per-layer metrics with
// --trace=1 (whose run also prints the latency ledger).

#include <linux/magic.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "daemon.h"
#include "exposition.h"
#include "ledger.h"
#include "loop.h"
#include "reference.h"
#include "replay.h"
#include "sample_stats.h"
#include "stats/histogram.h"
#include "store/codec.h"
#include "synth/generator.h"
#include "workload.h"

namespace perfbench {
namespace {

using ppdm::Result;
using ppdm::Status;
using ppdm::StrFormat;
using Clock = std::chrono::steady_clock;

/// Daemons per run, each set up, measured for a share of the window and
/// checked; every end-to-end metric but utility_tv is a median over them.
constexpr int kRounds = 5;
/// How often the reference unit (about 0.2 ms of CPU) is timed during a
/// loop window: under 1% of one core.
constexpr std::chrono::milliseconds kReferencePeriod{40};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  std::string workdir;
};

Result<Options> ParseOptions(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument " + arg);
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return Status::InvalidArgument("--" + arg + " needs a value");
    }
  }
  Options options;
  for (const char* required : {"workload", "daemon", "workdir"}) {
    if (flags.count(required) == 0) {
      return Status::InvalidArgument(StrFormat("--%s is required", required));
    }
  }
  options.workload = flags["workload"];
  options.daemon = flags["daemon"];
  options.workdir = flags["workdir"];
  if (flags.count("seed")) {
    PPDM_ASSIGN_OR_RETURN(const long long seed, ppdm::ParseInt(flags["seed"]));
    options.seed = static_cast<std::uint64_t>(seed);
  }
  if (flags.count("seconds")) {
    PPDM_ASSIGN_OR_RETURN(options.seconds, ppdm::ParseDouble(flags["seconds"]));
  }
  if (flags.count("trace")) options.trace = flags["trace"] == "1";
  if (!(options.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  return options;
}

/// One reported metric, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

std::string FilesystemName(const std::string& path) {
  struct statfs info;
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case EXT4_SUPER_MAGIC: return "ext4";
    case XFS_SUPER_MAGIC: return "xfs";
    case BTRFS_SUPER_MAGIC: return "btrfs";
    case TMPFS_MAGIC: return "tmpfs";
    case OVERLAYFS_SUPER_MAGIC: return "overlayfs";
    case NFS_SUPER_MAGIC: return "nfs";
    case FUSE_SUPER_MAGIC: return "fuse";
    default:
      return StrFormat("0x%lx", static_cast<unsigned long>(info.f_type));
  }
}

/// Removes a directory tree on scope exit (checkpoint and scratch dirs).
class DirGuard {
 public:
  explicit DirGuard(std::string path) : path_(std::move(path)) {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
    std::filesystem::create_directories(path_, ignored);
  }
  ~DirGuard() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  DirGuard(const DirGuard&) = delete;
  DirGuard& operator=(const DirGuard&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Wire bytes of one request of `workload`, averaged over its cadence of
/// ingests and queries — what the daemon reads per request.
double WireBytesPerRequest(const Workload& workload) {
  ppdm::store::Writer writer;
  writer.PutU64(workload.batch_rows);
  writer.PutU64(ppdm::synth::kNumAttributes);
  writer.PutDoubleArray(std::vector<double>(
      workload.batch_rows * ppdm::synth::kNumAttributes, 0.0));
  const double ingest = static_cast<double>(
      ppdm::net::EncodeFrame(ppdm::net::Verb::kIngest, 1, 0, 0, writer.bytes())
          .size());
  const double query = static_cast<double>(
      ppdm::net::EncodeFrame(workload.query_verb, 1, 0, 0, "").size());
  const double every = static_cast<double>(workload.query_every);
  return (ingest * every + query) / (every + 1.0);
}

/// Prints one verb's client-observed p50, p90 and p99 with the sample
/// count, exact from the raw samples. A tail with fewer than
/// kMinTailSamples samples beyond it is withheld, and the line says so.
void PrintLatency(const std::string& prefix, const std::string& verb,
                  const std::vector<double>& ms) {
  const Summary s = Summarize(ms);
  std::printf("%-26s %14.6g ms     %s, n=%zu (wall clock, printed only)\n",
              (prefix + "_p50_ms").c_str(), s.p50, verb.c_str(), s.n);
  for (const int percentile : {90, 99}) {
    const std::string name = StrFormat("%s_p%d_ms", prefix.c_str(), percentile);
    const std::optional<double> tail = TailQuantile(ms, percentile / 100.0);
    if (tail.has_value()) {
      std::printf("%-26s %14.6g ms     %s, n=%zu (wall clock, printed only)\n",
                  name.c_str(), *tail, verb.c_str(), s.n);
    } else {
      std::printf("%-26s omitted: %zu %s samples leave fewer than %zu beyond "
                  "it\n",
                  name.c_str(), s.n, verb.c_str(), kMinTailSamples);
    }
  }
}

void PrintResult(bool correct, const LoopStats& loop,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-26s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(loop.attempted, 1)),
      static_cast<unsigned long long>(loop.failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if (!correct) break;
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Per-layer metrics of a traced run. `window` holds the daemon's counter
/// growth over the traced windows.
std::vector<Metric> LayerMetrics(const LoopStats& untraced,
                                 const LoopStats& traced, const Scrape& window,
                                 const std::map<std::string, double>& timed) {
  const LedgerStages ingest = CollectStages(traced.traced, /*query=*/false);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto get = [&](const char* key) { return window.Get(key); };
  auto mean_us = [&](const char* histogram) {
    return 1e6 * HistogramMean(window, histogram);
  };
  auto timed_or_zero = [&](const char* name) {
    const auto it = timed.find(name);
    return it == timed.end() ? 0.0 : it->second;
  };
  const double requests = get("ppdm_net_request_seconds_count");
  const double hits = get("ppdm_kernel_cache_hits_total");
  const double builds = get("ppdm_kernel_cache_builds_total");
  const double untraced_p50 = Summarize(untraced.ingest_ms).p50;
  const double traced_p50 = Summarize(traced.ingest_ms).p50;

  std::vector<Metric> m = {
      {"net.client_encode_us", Summarize(ingest.encode).p50, "us", "ingest"},
      {"net.round_trip_us", Summarize(ingest.round_trip).p50, "us", "ingest"},
      {"net.client_decode_us", Summarize(ingest.decode).p50, "us", "ingest"},
      {"net.request_us", mean_us("ppdm_net_request_seconds"), "us",
       "daemon mean, all verbs"},
      {"net.unspanned_us", Summarize(ingest.unspanned).p50, "us", "ingest"},
      {"net.bytes_per_request", ratio(get("ppdm_net_bytes_read_total"), requests),
       "B", "daemon"},
      {"net.read_pauses", get("ppdm_net_read_pauses_total"), "count", "daemon"},
      {"store.write_amplification",
       ratio(get("ppdm_store_put_bytes_total"),
             static_cast<double>(traced.ingest_payload_bytes)),
       "ratio", "daemon put bytes / ingest payload bytes"},
      {"store.retries", get("ppdm_retry_attempts_total"), "count", "daemon"},
      {"api.service_queue_us", mean_us("ppdm_service_queue_wait_seconds"), "us",
       "daemon mean"},
      {"api.service_run_us", mean_us("ppdm_service_run_seconds"), "us",
       "daemon mean"},
      {"api.kernel_cache_hit_ratio", ratio(hits, hits + builds), "ratio",
       "daemon"},
      {"api.registry_readmit_ratio",
       ratio(get("ppdm_registry_readmissions_total"),
             get("ppdm_net_requests_total{verb=\"ingest\"}")),
       "ratio", "daemon readmissions / ingest lookups"},
      {"api.registry_spills", get("ppdm_registry_spills_total"), "count",
       "daemon"},
      {"reconstruct.em_fit_us", mean_us("ppdm_em_fit_seconds"), "us",
       "daemon mean"},
      {"reconstruct.em_iterations", HistogramMean(window, "ppdm_em_iterations"),
       "count", "daemon mean per fit"},
      {"engine.tasks_per_request", ratio(get("ppdm_engine_tasks_total"), requests),
       "count", "daemon"},
      {"obs.trace_drop_ratio",
       ratio(get("ppdm_trace_dropped_total"), get("ppdm_trace_recorded_total")),
       "ratio", "daemon"},
      {"obs.tracing_overhead_pct",
       untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                        : 0.0,
       "%", "traced vs untraced ingest p50"},
      {"ledger.ingest_residual_pct",
       100.0 * ratio(Summarize(ingest.residual).mean, Summarize(ingest.total).mean),
       "%", "client ingest latency no span covers"},
  };
  for (const char* name :
       {"net.frame_parse_us", "store.crc32_mb_per_s", "store.array_encode_us",
        "store.array_decode_us", "store.session_encode_us",
        "store.session_decode_us", "store.put_us", "store.get_us",
        "api.session_ingest_us", "api.session_reconstruct_us",
        "api.registry_lookup_us", "api.registry_readmit_us"}) {
    m.push_back({name, timed_or_zero(name),
                 std::string(name).find("mb_per_s") != std::string::npos ? "MB/s"
                                                                         : "us",
                 "in-process p50"});
  }
  return m;
}

/// The workload-separation self-checks of a traced run; false when one
/// fails (the workload no longer stresses the layer it was chosen for).
bool PrintSeparation(const Workload& workload, const Scrape& totals,
                     const std::vector<Metric>& layers) {
  auto layer = [&](const std::string& name) {
    for (const Metric& m : layers) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  bool ok = true;
  auto check = [&](bool pass, const std::string& what) {
    std::printf("separation %-4s %s\n", pass ? "ok" : "FAIL", what.c_str());
    ok = ok && pass;
  };
  if (workload.spill) {
    const double ratio = layer("api.registry_readmit_ratio");
    check(ratio >= 0.9,
          StrFormat("spill-churn readmits %.3f of its ingest lookups (>= 0.9)",
                    ratio));
  } else {
    const double puts = totals.Get("ppdm_store_puts_total");
    check(puts == 0, StrFormat("%s made %.0f store puts (== 0)",
                               workload.name.c_str(), puts));
  }
  if (workload.name == "refresh-em") {
    const double wire = WireBytesPerRequest(FindWorkload("ingest-wire").value());
    const double bytes = layer("net.bytes_per_request");
    check(bytes < wire / 10,
          StrFormat("refresh-em reads %.0f B/request, below 1/10 of "
                    "ingest-wire's %.0f",
                    bytes, wire));
  }
  return ok;
}

int Run(const Options& options) {
  Result<Workload> found = FindWorkload(options.workload);
  if (!found.ok()) {
    std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
    return 2;
  }
  const Workload workload = found.value();
  std::error_code ignored;
  std::filesystem::create_directories(options.workdir, ignored);
  const std::vector<TenantData> tenants =
      GenerateTenants(workload, options.seed);
  const UtilityData utility = GenerateUtility(workload, options.seed);

  std::printf(
      "workload %s seed %llu: %zu tenants over %zu connections, %zu-row "
      "batches, %zu tracked %s attributes at %zu intervals, %s after every "
      "%zu batch(es) per tenant, closed loop for %.1f s%s\n",
      workload.name.c_str(), static_cast<unsigned long long>(options.seed),
      workload.tenants, kConnections, workload.batch_rows, workload.tracked,
      ppdm::perturb::NoiseKindName(workload.noise).c_str(), workload.intervals,
      ppdm::net::VerbName(static_cast<std::uint32_t>(workload.query_verb))
          .c_str(),
      workload.query_every, options.seconds,
      options.trace ? " (traced)" : "");

  // kRounds rounds, each on a freshly spawned daemon: set-up (spawn until
  // every tenant is open and warmed), 1/kRounds of the closed-loop window,
  // the final reconstructs, peak RSS, SIGTERM, and the oracle replay of
  // that daemon's tenants. Several daemons per run average over thread
  // placements instead of drawing one.
  LoadGen gen(workload, tenants);
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::vector<double> rss_mb;
  // Per round: CPU microseconds per completed request of the loop, and the
  // median cost of the reference unit over the loop window.
  std::vector<double> daemon_cpu_us;
  std::vector<double> client_cpu_us;
  std::vector<double> reference_s;
  LoopStats untraced;
  LoopStats traced;
  Scrape window;  // daemon counter growth over the traced windows
  Scrape totals;  // daemon counters at the end of each round, summed
  Scrape last;    // the last daemon's final counters (fingerprint)
  OracleResult oracle;
  std::vector<TenantLog> utility_logs(utility.tenants.size());
  const double round_seconds = options.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    const bool final_round = round + 1 == kRounds;
    // Declared before the daemon: an early return kills the daemon first.
    const DirGuard checkpoint(options.workdir + "/checkpoints");
    const auto t0 = Clock::now();
    Result<Daemon> spawned =
        Daemon::Spawn(options.daemon, DaemonFlags(workload, checkpoint.path()));
    if (!spawned.ok()) {
      std::fprintf(stderr, "spawn: %s\n", spawned.status().ToString().c_str());
      return 1;
    }
    Daemon daemon = std::move(spawned).value();
    Status status = gen.Connect(daemon.port());
    if (status.ok()) status = gen.OpenAndWarm();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_wall_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    const Result<double> setup_cpu = daemon.CpuSeconds();
    if (!setup_cpu.ok()) {
      std::fprintf(stderr, "set-up: %s\n", setup_cpu.status().ToString().c_str());
      return 1;
    }
    setup_cpu_s.push_back(setup_cpu.value());

    if (!options.trace) {
      ReferenceSampler reference(kReferencePeriod);
      LoopStats round_stats = gen.Run(round_seconds, /*traced=*/false);
      reference_s.push_back(reference.Stop());
      const Result<double> cpu_after = daemon.CpuSeconds();
      if (!cpu_after.ok()) {
        std::fprintf(stderr, "loop: %s\n", cpu_after.status().ToString().c_str());
        return 1;
      }
      round_stats.daemon_cpu_s = cpu_after.value() - setup_cpu.value();
      const auto requests = static_cast<double>(round_stats.ingest_ms.size() +
                                                round_stats.query_ms.size());
      daemon_cpu_us.push_back(1e6 * round_stats.daemon_cpu_s / requests);
      client_cpu_us.push_back(1e6 * round_stats.client_cpu_s / requests);
      Append(&untraced, std::move(round_stats));
    } else {
      Append(&untraced, gen.Run(round_seconds / 2, /*traced=*/false));
      const Result<std::string> before = gen.Stats();
      Append(&traced, gen.Run(round_seconds / 2, /*traced=*/true));
      const Result<std::string> after = gen.Stats();
      if (!before.ok() || !after.ok()) {
        std::fprintf(stderr, "stats verb failed\n");
        return 1;
      }
      window.Add(Scrape::Growth(Scrape::Parse(before.value()),
                                Scrape::Parse(after.value())));
    }

    status = gen.FinalReconstruct();
    for (std::size_t u = 0; final_round && status.ok() && u < utility_logs.size();
         ++u) {
      status = RunUtilityPass(daemon.port(), workload, utility.tenants[u],
                              &utility_logs[u]);
    }
    const Result<std::string> text = gen.Stats();
    const Result<double> rss = daemon.PeakRssMb();
    const Status stopped = daemon.Terminate();
    if (!status.ok() || !text.ok() || !rss.ok() || !stopped.ok()) {
      std::fprintf(stderr, "round %d: %s / %s / %s / %s\n", round,
                   status.ToString().c_str(), text.status().ToString().c_str(),
                   rss.status().ToString().c_str(), stopped.ToString().c_str());
      return 1;
    }
    last = Scrape::Parse(text.value());
    totals.Add(last);
    rss_mb.push_back(rss.value());

    for (OracleResult checked :
         {CheckServedMasses(workload, tenants, gen.logs()),
          final_round
              ? CheckServedMasses(workload, utility.tenants, utility_logs)
              : OracleResult{}}) {
      oracle.tenants += checked.tenants;
      if (!checked.ok && oracle.ok) {
        oracle.ok = false;
        oracle.detail = StrFormat("round %d, %s", round, checked.detail.c_str());
      }
    }
  }
  const LoopStats& measured = options.trace ? traced : untraced;

  std::printf(
      "fingerprint: {\"cores\": %u, \"simd_path\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"checkpoint_fs\": \"%s\"}\n",
      std::thread::hardware_concurrency(),
      last.LabelWhere("ppdm_simd_path", "path", 1).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, FilesystemName(options.workdir).c_str());

  const std::uint64_t mismatches =
      untraced.count_mismatches + traced.count_mismatches;
  const bool correct = oracle.ok && mismatches == 0;
  std::printf(
      "oracle %s: %llu ingest acknowledgements off the running total; "
      "%llu of %llu requests failed; %zu tenant sessions over %d daemons %s\n",
      correct ? "ok" : "FAILED", static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(measured.failed),
      static_cast<unsigned long long>(measured.attempted), oracle.tenants,
      kRounds,
      oracle.ok ? "byte-identical to in-process sessions"
                : ("differ: " + oracle.detail).c_str());
  if (!measured.first_error.empty()) {
    std::printf("first failure: %s\n", measured.first_error.c_str());
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    // Wall-clock figures, for reading: on a shared host they follow the
    // host's load (see README), so the metrics below are CPU times.
    std::printf("%-26s %14.6g s      median of %d set-ups (wall clock, printed "
                "only)\n",
                "setup_wall_s", Median(setup_wall_s), kRounds);
    PrintLatency("ingest", "ingest", untraced.ingest_ms);
    PrintLatency("query",
                 ppdm::net::VerbName(
                     static_cast<std::uint32_t>(workload.query_verb)),
                 untraced.query_ms);
    const std::size_t completed =
        untraced.ingest_ms.size() + untraced.query_ms.size();
    std::printf("%-26s %14.6g 1/s    %zu in %.1f s (wall clock, printed only)\n",
                "requests_per_s",
                static_cast<double>(completed) / untraced.wall_s, completed,
                untraced.wall_s);
    std::printf("%-26s %14.6g 1/s    (wall clock, printed only)\n",
                "records_per_s",
                static_cast<double>(untraced.acked_records) / untraced.wall_s);

    // The CPU-time metrics: each round's CPU time, scaled to the nominal
    // machine by that round's reference unit, then the median of the
    // rounds. The raw values are printed beside them.
    auto scaled_median = [&](const char* name, const std::vector<double>& raw) {
      std::vector<double> scaled;
      std::string line = StrFormat("%s per round, unscaled:", name);
      for (std::size_t r = 0; r < raw.size(); ++r) {
        scaled.push_back(raw[r] * kReferenceUnitSeconds / reference_s[r]);
        line += StrFormat(" %.4g", raw[r]);
      }
      std::printf("%s\n", line.c_str());
      return Median(scaled);
    };
    std::string line = "reference unit per round, us:";
    for (const double s : reference_s) line += StrFormat(" %.4g", 1e6 * s);
    std::printf("%s (nominal %.4g)\n", line.c_str(), 1e6 * kReferenceUnitSeconds);
    metrics.push_back(
        {"setup_s", scaled_median("setup_s", setup_cpu_s), "s",
         StrFormat("daemon CPU from spawn until warmed, median of %d set-ups",
                   kRounds)});
    metrics.push_back(
        {"daemon_cpu_us_per_request",
         scaled_median("daemon_cpu_us_per_request", daemon_cpu_us), "us",
         StrFormat("median of %d rounds, %zu requests", kRounds, completed)});
    metrics.push_back(
        {"client_cpu_us_per_request",
         scaled_median("client_cpu_us_per_request", client_cpu_us), "us",
         StrFormat("loop threads, median of %d rounds", kRounds)});
    double tv = 0.0;
    std::size_t estimates = 0;
    for (std::size_t u = 0; u < utility.tenants.size(); ++u) {
      for (std::size_t a = 0; a < utility.truth_masses[u].size(); ++a) {
        tv += ppdm::stats::TotalVariation(utility_logs[u].last_masses[a],
                                          utility.truth_masses[u][a]);
        ++estimates;
      }
    }
    metrics.push_back(
        {"utility_tv", tv / static_cast<double>(estimates), "ratio",
         StrFormat("mean over %zu estimates, %zu tenants x %zu rows", estimates,
                   utility.tenants.size(), kUtilityRows)});
    metrics.push_back({"daemon_peak_rss_mb", Median(rss_mb), "MiB",
                       StrFormat("VmHWM, median of %d daemons", kRounds)});
  } else {
    for (const bool query : {false, true}) {
      const std::string verb =
          query ? ppdm::net::VerbName(
                      static_cast<std::uint32_t>(workload.query_verb))
                : "ingest";
      std::printf("%s", RenderLedger(workload.name + " " + verb,
                                     CollectStages(traced.traced, query))
                            .c_str());
    }
    const DirGuard scratch(options.workdir + "/layers");
    const std::map<std::string, double> timed = MeasureLayers(
        workload, tenants, traced.captured_frames, scratch.path());
    metrics = LayerMetrics(untraced, traced, window, timed);
    if (!PrintSeparation(workload, totals, metrics)) {
      std::printf("separation FAILED: %s no longer stresses its layer\n",
                  workload.name.c_str());
    }
  }
  PrintResult(correct, measured, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const ppdm::Result<perfbench::Options> options =
      perfbench::ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(options.value());
}
