// Shared helpers for the figure/table generators. Every bench binary runs
// with no arguments, prints paper-style rows to stdout, and honours
// PPDM_PAPER_SCALE=1 for the paper's full 100k-record runs.

#ifndef PPDM_BENCH_BENCH_UTIL_H_
#define PPDM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/experiment.h"
#include "engine/simd.h"
#include "obs/metrics.h"
#include "perturb/randomizer.h"
#include "synth/generator.h"

namespace ppdm::bench {

/// The default experimental cell: paper workload at laptop scale unless
/// PPDM_PAPER_SCALE=1 asks for the full 100k/5k.
inline core::ExperimentConfig DefaultConfig(synth::Function fn) {
  core::ExperimentConfig config;
  config.function = fn;
  config.train_records = 20000;
  config.test_records = 5000;
  config.seed = 20000607;  // SIGMOD 2000 vintage
  core::ApplyScale(&config);
  return config;
}

/// Record-count override for smoke runs: PPDM_BENCH_RECORDS=N replaces
/// `default_records` (CI runs the perf benches this way so every code
/// path executes without perf-scale wall time). Wins over
/// PPDM_PAPER_SCALE when both are set.
inline std::size_t BenchRecords(std::size_t default_records) {
  if (const char* env = std::getenv("PPDM_BENCH_RECORDS")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return default_records;
}

/// Perturbed benchmark records flattened row-major — the provider
/// arrival shape the streaming benches feed to sessions. Generates
/// `records` rows of `function` from `seed`, perturbs every column with
/// 100% noise of `kind` (the paper's uniform noise by default; streams
/// seeded `noise_seed`), and transposes the column-major Dataset into one
/// row-major vector; `*num_cols` receives the schema width.
inline std::vector<double> PerturbedRowMajor(
    std::size_t records, synth::Function function, std::uint64_t seed,
    std::uint64_t noise_seed, std::size_t* num_cols,
    perturb::NoiseKind kind = perturb::NoiseKind::kUniform) {
  synth::GeneratorOptions gen;
  gen.num_records = records;
  gen.function = function;
  gen.seed = seed;
  const data::Dataset original = synth::Generate(gen);
  perturb::RandomizerOptions noise;
  noise.kind = kind;
  noise.privacy_fraction = 1.0;
  noise.seed = noise_seed;
  const data::Dataset perturbed =
      perturb::Randomizer(original.schema(), noise).Perturb(original);
  *num_cols = perturbed.NumCols();
  std::vector<double> rows(perturbed.NumRows() * perturbed.NumCols());
  for (std::size_t c = 0; c < perturbed.NumCols(); ++c) {
    const std::vector<double>& column = perturbed.Column(c);
    for (std::size_t r = 0; r < perturbed.NumRows(); ++r) {
      rows[r * perturbed.NumCols() + c] = column[r];
    }
  }
  return rows;
}

/// All five benchmark functions.
inline std::vector<synth::Function> AllFunctions() {
  return {synth::Function::kF1, synth::Function::kF2, synth::Function::kF3,
          synth::Function::kF4, synth::Function::kF5};
}

/// Banner naming the experiment and its provenance in the paper.
inline void PrintBanner(const std::string& experiment_id,
                        const std::string& what) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), what.c_str());
  std::printf("(Agrawal & Srikant, \"Privacy-Preserving Data Mining\", "
              "SIGMOD 2000)\n");
  std::printf("================================================================\n");
}

/// "85.3" from 0.853.
inline double Pct(double fraction) { return 100.0 * fraction; }

/// One NDJSON result row: printed to stdout and, when PPDM_BENCH_JSON
/// names a file, appended there too — dashboards scrape either. Fields
/// are flat string→double pairs plus the bench/case labels; doubles are
/// emitted with enough digits to round-trip.
inline void EmitBenchJson(
    const std::string& bench, const std::string& label,
    const std::vector<std::pair<std::string, double>>& fields) {
  std::string line = "{\"bench\":\"" + bench + "\",\"case\":\"" + label + "\"";
  for (const auto& [key, value] : fields) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    line += ",\"" + key + "\":" + number;
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  if (const char* path = std::getenv("PPDM_BENCH_JSON")) {
    if (std::FILE* file = std::fopen(path, "a")) {
      std::fprintf(file, "%s\n", line.c_str());
      std::fclose(file);
    }
  }
}

/// The machine context of a bench run as one NDJSON row: compiler, the
/// dispatched SIMD path, whether assertions are compiled in, and cores.
inline void EmitMachineFingerprint(const std::string& bench) {
  EmitBenchJson(
      bench,
      StrFormat("machine: %s, simd %s, %s",
#ifdef __clang__
                "clang " __clang_version__,
#else
                "gcc " __VERSION__,
#endif
                engine::simd::PathName(engine::simd::ActivePath()),
#ifdef NDEBUG
                "NDEBUG"
#else
                "assertions on"
#endif
                ),
      {{"cores", static_cast<double>(std::thread::hardware_concurrency())}});
}

/// Wall-clock seconds spent running `fn` once.
inline double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Shared wall-clock/throughput reporter for the perf benches: each
/// Measure() times a case, prints seconds, items/sec, and the speedup
/// relative to the first measurement labelled `baseline_of` (pass the
/// current label itself, or "" for an absolute row). Runs each case at
/// least `repeats` times and until the runs add up to kMinCaseSeconds
/// (at most kMaxCaseSamples runs), so a microsecond case is a few
/// thousand samples rather than three, and keeps the fastest, the usual
/// guard against noisy neighbours on shared machines.
///
/// Every run's wall time is kept per case, so the destructor can print
/// exact per-case p50/p99 order statistics over the samples. It is
/// also fed into the process metrics registry as
/// ppdm_bench_run_seconds{case="<label>"}, and PPDM_BENCH_METRICS=1 dumps
/// the full Prometheus text exposition — engine/store counters included —
/// after the rows.
/// A non-empty `bench` additionally emits one NDJSON row per Measure()
/// (EmitBenchJson: seconds, the median run's seconds_p50, samples,
/// items/sec, items/sec/core, cores, speedup) so dashboards scrape the
/// perf sweeps without parsing the table.
class ThroughputReporter {
 public:
  /// Wall time a case's runs must add up to before Measure() stops.
  static constexpr double kMinCaseSeconds = 0.1;
  /// Bound on a case's runs, so a near-empty case cannot run forever.
  static constexpr std::size_t kMaxCaseSamples = 100000;

  explicit ThroughputReporter(std::string unit = "records", int repeats = 3,
                              std::string bench = "")
      : unit_(std::move(unit)), repeats_(repeats), bench_(std::move(bench)) {
    std::printf("%-36s %10s %16s %16s %9s\n", "case", "seconds",
                (unit_ + "/sec").c_str(), (unit_ + "/sec/core").c_str(),
                "speedup");
  }

  ~ThroughputReporter() {
    PrintLatencySummary();
    if (std::getenv("PPDM_BENCH_METRICS") != nullptr) {
      std::printf("\n%s",
                  obs::MetricsRegistry::Global().RenderText().c_str());
    }
  }

  /// Times fn, records `items` processed under `label`; returns seconds.
  /// `cores` is the worker parallelism of the run (default 1) — the
  /// per-core throughput column divides by it, making scaling sweeps
  /// comparable across thread counts (flat items/sec/core = linear
  /// scaling).
  double Measure(const std::string& label, std::size_t items,
                 const std::string& baseline_of,
                 const std::function<void()>& fn, std::size_t cores = 1) {
    obs::Histogram* const histogram =
        obs::MetricsRegistry::Global().GetHistogram(
            "ppdm_bench_run_seconds",
            obs::Histogram::LatencyBucketsSeconds(), {{"case", label}});
    std::vector<double>& samples = SamplesFor(label);
    std::vector<double> runs;
    double total = 0.0;
    while (runs.size() < kMaxCaseSamples &&
           (runs.size() < static_cast<std::size_t>(std::max(repeats_, 1)) ||
            total < kMinCaseSeconds)) {
      const double run = WallSeconds(fn);
      histogram->Observe(run);
      runs.push_back(run);
      total += run;
    }
    samples.insert(samples.end(), runs.begin(), runs.end());
    std::sort(runs.begin(), runs.end());
    const double seconds = runs.front();
    const double median = NearestRank(runs, 0.5);
    // A sub-clock-resolution run (seconds == 0) can neither anchor nor
    // receive a meaningful speedup; such rows print "-" instead.
    if (!baseline_of.empty() && seconds > 0.0 &&
        baselines_.count(baseline_of) == 0) {
      baselines_[baseline_of] = seconds;
    }
    const double throughput =
        seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
    const double per_core =
        cores > 0 ? throughput / static_cast<double>(cores) : throughput;
    double speedup = 0.0;
    if (baseline_of.empty() || seconds <= 0.0 ||
        baselines_.count(baseline_of) == 0) {
      std::printf("%-36s %10.4f %16.0f %16.0f %9s\n", label.c_str(),
                  seconds, throughput, per_core, "-");
    } else {
      speedup = baselines_[baseline_of] / seconds;
      std::printf("%-36s %10.4f %16.0f %16.0f %8.2fx\n", label.c_str(),
                  seconds, throughput, per_core, speedup);
    }
    if (!bench_.empty()) {
      EmitBenchJson(bench_, label,
                    {{"seconds", seconds},
                     {"seconds_p50", median},
                     {"samples", static_cast<double>(runs.size())},
                     {"items", static_cast<double>(items)},
                     {"per_sec", throughput},
                     {"per_sec_per_core", per_core},
                     {"cores", static_cast<double>(cores)},
                     {"speedup", speedup}});
    }
    return seconds;
  }

  /// Per-case p50/p99 across the samples: exact order statistics
  /// (nearest rank) of the recorded wall times. With few runs p99 is the
  /// slowest run.
  void PrintLatencySummary() const {
    if (cases_.empty()) return;
    std::printf("\n%-36s %12s %12s %8s\n", "case (samples)",
                "p50 us", "p99 us", "n");
    for (const auto& [label, samples] : cases_) {
      if (samples.empty()) continue;
      std::vector<double> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      std::printf("%-36s %12.2f %12.2f %8zu\n", label.c_str(),
                  1e6 * NearestRank(sorted, 0.5),
                  1e6 * NearestRank(sorted, 0.99), sorted.size());
    }
  }

 private:
  /// The q-quantile of ascending `sorted` by nearest rank: the smallest
  /// sample with at least a q share of the samples at or below it.
  static double NearestRank(const std::vector<double>& sorted, double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
  }

  /// The sample list of `label`, created in measurement order on first
  /// use; a repeated label appends to its existing list.
  std::vector<double>& SamplesFor(const std::string& label) {
    for (auto& [name, samples] : cases_) {
      if (name == label) return samples;
    }
    return cases_.emplace_back(label, std::vector<double>{}).second;
  }

  std::string unit_;
  int repeats_;
  std::string bench_;  // NDJSON bench id; empty = table only
  std::map<std::string, double> baselines_;
  /// Run wall times per case, in measurement order.
  std::vector<std::pair<std::string, std::vector<double>>> cases_;
};

}  // namespace ppdm::bench

#endif  // PPDM_BENCH_BENCH_UTIL_H_
