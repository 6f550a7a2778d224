// P4 — throughput scaling of the parallel execution engine at 1/2/4/8
// worker threads: per-column perturbation, the single-column binned EM
// reconstruction, and the per-attribute/per-class reconstruction fan-out
// that dominates tree training; plus the cost of one session refit in µs
// per fit (kernel table rebuilt or kept, and the served refresh layout of
// 18 Gaussian 200-interval tables cycling). Honours PPDM_PAPER_SCALE=1 for
// the paper's 100k-record runs, and cross-checks that every thread count
// produced byte-identical perturbed columns and reconstruction masses (the
// engine's determinism contract). PPDM_BENCH_JSON=FILE appends the rows and
// a machine fingerprint as NDJSON.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"
#include "synth/generator.h"

namespace {

using namespace ppdm;

// Runs `fits` EM fits, fit i through `fit_once(i)` (returning its
// iteration count), best of 5 repeats; prints and emits µs per fit and
// iterations per fit.
void MeasureFits(const std::string& label, std::size_t fits,
                 const std::function<std::size_t(std::size_t)>& fit_once) {
  double best = 0.0;
  std::size_t iterations = 0;
  for (int r = 0; r < 5; ++r) {
    iterations = 0;
    const double seconds = bench::WallSeconds([&] {
      for (std::size_t i = 0; i < fits; ++i) iterations += fit_once(i);
    });
    if (r == 0 || seconds < best) best = seconds;
  }
  const double us_per_fit = 1e6 * best / static_cast<double>(fits);
  const double iterations_per_fit =
      static_cast<double>(iterations) / static_cast<double>(fits);
  std::printf("%-36s %10.2f %14.2f\n", label.c_str(), us_per_fit,
              iterations_per_fit);
  bench::EmitBenchJson("perf_engine", label,
                       {{"us_per_fit", us_per_fit},
                        {"iterations_per_fit", iterations_per_fit},
                        {"fits", static_cast<double>(fits)}});
}

bool SameMasses(const reconstruct::Reconstruction& a,
                const reconstruct::Reconstruction& b) {
  return a.masses.size() == b.masses.size() &&
         std::memcmp(a.masses.data(), b.masses.data(),
                     a.masses.size() * sizeof(double)) == 0 &&
         a.iterations == b.iterations;
}

}  // namespace

int main() {
  bench::PrintBanner("P4", "parallel engine throughput scaling");
  const core::ExperimentConfig config = bench::DefaultConfig(
      synth::Function::kF1);
  std::printf("records=%zu  hardware threads=%u\n\n", config.train_records,
              std::thread::hardware_concurrency());

  synth::GeneratorOptions gen;
  gen.num_records = config.train_records;
  gen.function = config.function;
  gen.seed = config.seed;
  const data::Dataset train = synth::Generate(gen);

  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kUniform;
  noise.privacy_fraction = 1.0;
  noise.seed = config.seed + 0x9E1517BULL;
  const perturb::Randomizer randomizer(train.schema(), noise);

  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  bench::EmitMachineFingerprint("perf_engine");
  bench::ThroughputReporter reporter("records", 3, "perf_engine");
  char label[64];

  // -------------------------------------------- per-column perturbation
  // One task per attribute; every thread count must write the bytes of the
  // pool-less reference.
  const data::Dataset perturbed = randomizer.Perturb(train);
  bool perturb_identical = true;
  for (std::size_t threads : thread_counts) {
    engine::ThreadPool pool(threads);
    std::snprintf(label, sizeof(label), "perturb 9 attrs t=%zu", threads);
    reporter.Measure(label, train.NumRows(), "perturb", [&] {
      const data::Dataset p = randomizer.Perturb(train, &pool);
      (void)p;
    }, threads);
    const data::Dataset p = randomizer.Perturb(train, &pool);
    for (std::size_t c = 0; c < train.NumCols(); ++c) {
      perturb_identical =
          perturb_identical && p.Column(c) == perturbed.Column(c);
    }
  }
  engine::ThreadPool single(1);

  // ------------------------------------- single-column binned EM path
  const data::FieldSpec& field = train.schema().Field(synth::kSalary);
  const stats::Partition partition(field.lo, field.hi, 100);
  const reconstruct::BayesReconstructor reconstructor(
      randomizer.ModelFor(synth::kSalary), {});
  const std::vector<double>& salary = perturbed.Column(synth::kSalary);
  std::vector<reconstruct::Reconstruction> em_results;
  for (std::size_t threads : thread_counts) {
    engine::ThreadPool pool(threads);
    reconstruct::Reconstruction result;
    std::snprintf(label, sizeof(label), "EM binned K=100 t=%zu", threads);
    reporter.Measure(label, train.NumRows(), "em", [&] {
      result = reconstructor.Fit(salary, partition, &pool);
    }, threads);
    em_results.push_back(result);
  }

  // ------------------------------------------- E-step SIMD path sweep
  // Single-threaded so the rows isolate the kernel speedup (scalar, the
  // lane-blocked reference, is the anchor). scalar and avx2 must be
  // byte-identical.
  namespace simd = engine::simd;
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  std::vector<reconstruct::Reconstruction> simd_results;
  for (simd::Path path : paths) {
    (void)simd::SetPath(path);
    reconstruct::Reconstruction result;
    std::snprintf(label, sizeof(label), "EM binned K=100 simd=%s",
                  simd::PathName(path));
    reporter.Measure(label, train.NumRows(), "simd", [&] {
      result = reconstructor.Fit(salary, partition, &single);
    });
    simd_results.push_back(result);
  }
  (void)simd::SetPath(simd::Avx2Supported() ? simd::Path::kAvx2
                                            : simd::Path::kScalar);

  // ----------------------------------------- EM refit cost per fit
  // A session refit is a cold EM over binned counts: wbins × K ×
  // iterations, independent of the record count, so these rows report µs
  // per fit and iterations per fit rather than records/s. "Table rebuilt"
  // builds the O(wbins + K) likelihood table every call; "table kept"
  // reuses one prebuilt table — what a DatasetSession keeping each
  // attribute's table saves every refit after the first.
  std::printf("\n%-36s %10s %14s\n", "EM refit case", "us/fit",
              "iterations/fit");
  constexpr std::size_t kRefreshFits = 20;
  for (const auto kind :
       {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
    engine::ThreadPool pool(1);
    const char* kind_name =
        kind == perturb::NoiseKind::kUniform ? "uniform" : "gauss";
    const perturb::NoiseModel noise_model = perturb::NoiseForPrivacy(
        kind, 1.0, partition.hi() - partition.lo(), 0.95);
    const reconstruct::BayesReconstructor rec(noise_model, {});
    stats::Histogram counts(rec.PerturbedBinning(partition));
    counts.AddAll(salary);
    const std::vector<double> weights = counts.Weights();
    const double total = static_cast<double>(salary.size());
    const reconstruct::KernelTable table = rec.BuildKernelTable(partition);
    std::snprintf(label, sizeof(label), "refit %s (table rebuilt)",
                  kind_name);
    MeasureFits(label, kRefreshFits, [&](std::size_t) {
      return rec.FitFromCounts(weights, total, rec.BuildKernelTable(partition),
                               &pool)
          .iterations;
    });
    std::snprintf(label, sizeof(label), "refit %s (table kept)", kind_name);
    MeasureFits(label, kRefreshFits, [&](std::size_t) {
      return rec.FitFromCounts(weights, total, table, &pool).iterations;
    });
  }

  // The served refresh layout: 2 tenants × 9 Gaussian attributes at 200
  // intervals, each a cold refit from its own table and its own counts,
  // cycled through all 18 like a daemon refitting its tenants, so the
  // tables compete for cache as they do there.
  {
    struct RefreshSlot {
      reconstruct::BayesReconstructor rec;
      reconstruct::KernelTable table;
      std::vector<double> weights;
    };
    std::vector<RefreshSlot> slots;
    for (std::uint64_t tenant = 0; tenant < 2; ++tenant) {
      Rng noise_rng(config.seed + 0x5EED + tenant);
      for (std::size_t col = 0; col < train.NumCols(); ++col) {
        const data::FieldSpec& field = train.schema().Field(col);
        const stats::Partition p(field.lo, field.hi, 200);
        const reconstruct::BayesReconstructor rec(
            perturb::NoiseForPrivacy(perturb::NoiseKind::kGaussian, 1.0,
                                     field.Range(), 0.95),
            {});
        const stats::Partition wgrid = rec.PerturbedBinning(p);
        std::vector<double> weights(wgrid.intervals(), 0.0);
        for (double x : train.Column(col)) {
          weights[wgrid.IntervalOf(x + rec.noise().Sample(&noise_rng))] +=
              1.0;
        }
        slots.push_back({rec, rec.BuildKernelTable(p), std::move(weights)});
      }
    }
    const double total = static_cast<double>(train.NumRows());
    constexpr std::size_t kCycles = 5;
    MeasureFits("refresh-em refit gauss K=200 x18", kCycles * slots.size(),
                [&](std::size_t i) {
                  const RefreshSlot& slot = slots[i % slots.size()];
                  return slot.rec
                      .FitFromCounts(slot.weights, total, slot.table, nullptr)
                      .iterations;
                });
  }
  std::printf("\n");

  // ----------------------- per-attribute / per-class fan-out (ByClass)
  // The trainer's root-time precompute: 9 attributes × 2 classes = 18
  // independent EM fits, fanned out one attribute per task.
  for (std::size_t threads : thread_counts) {
    engine::ThreadPool pool(threads);
    std::snprintf(label, sizeof(label), "by-class 9 attrs t=%zu", threads);
    reporter.Measure(label, train.NumRows() * train.NumCols(), "fanout", [&] {
      engine::ParallelFor(&pool, train.NumCols(), [&](std::size_t col) {
        const data::FieldSpec& field = train.schema().Field(col);
        const stats::Partition p(field.lo, field.hi, 30);
        const reconstruct::BayesReconstructor rec(randomizer.ModelFor(col),
                                                  {});
        const std::vector<reconstruct::Reconstruction> r =
            reconstruct::ReconstructByClass(perturbed, col, p, rec);
        (void)r;
      });
    }, threads);
  }

  // ------------------------------------------------ determinism check
  std::printf("\nPerturbed columns byte-identical across thread counts: %s\n",
              perturb_identical ? "yes" : "NO — DETERMINISM VIOLATION");
  bool identical = true;
  for (std::size_t i = 1; i < em_results.size(); ++i) {
    identical = identical && SameMasses(em_results[0], em_results[i]);
  }
  std::printf("EM masses byte-identical across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  // Every dispatched path must agree bitwise with the scalar reference,
  // and the single-threaded engine with the multi-threaded sweep.
  bool simd_identical = true;
  for (std::size_t i = 1; i < simd_results.size(); ++i) {
    simd_identical =
        simd_identical && SameMasses(simd_results[0], simd_results[i]);
  }
  simd_identical =
      simd_identical && SameMasses(simd_results[0], em_results[0]);
  std::printf("EM masses byte-identical across SIMD paths: %s\n",
              simd_identical ? "yes" : "NO — DETERMINISM VIOLATION");
  return perturb_identical && identical && simd_identical ? 0 : 1;
}
