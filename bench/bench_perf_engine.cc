// P4 — throughput scaling of the parallel execution engine at 1/2/4/8
// worker threads: sharded perturbation, the single-column binned EM
// reconstruction, and the per-attribute/per-class reconstruction fan-out
// that dominates tree training. Honours PPDM_PAPER_SCALE=1 for the paper's
// 100k-record runs, and cross-checks that every thread count produced
// byte-identical reconstruction masses (the engine's determinism contract).

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/batch.h"
#include "engine/shard_stats.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"
#include "synth/generator.h"

namespace {

using namespace ppdm;

bool SameMasses(const reconstruct::Reconstruction& a,
                const reconstruct::Reconstruction& b) {
  return a.masses.size() == b.masses.size() &&
         std::memcmp(a.masses.data(), b.masses.data(),
                     a.masses.size() * sizeof(double)) == 0 &&
         a.log_likelihood_trace == b.log_likelihood_trace;
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
  bench::ThroughputReporter reporter("records", 3, "perf_engine");
  char label[64];

  // ---------------------------------------------- sharded perturbation
  for (std::size_t threads : thread_counts) {
    engine::BatchOptions options;
    options.num_threads = threads;
    const engine::Batch batch(options);
    std::snprintf(label, sizeof(label), "perturb 9 attrs t=%zu", threads);
    reporter.Measure(label, train.NumRows(), "perturb", [&] {
      const data::Dataset p = batch.PerturbShards(randomizer, train);
      (void)p;
    }, threads);
  }
  const data::Dataset perturbed = engine::Batch({1, 16384})
                                      .PerturbShards(randomizer, train);

  // ------------------------------------- single-column binned EM path
  const reconstruct::Partition partition = reconstruct::Partition::ForField(
      train.schema().Field(synth::kSalary), 100);
  const reconstruct::BayesReconstructor reconstructor(
      randomizer.ModelFor(synth::kSalary), {});
  const std::vector<double>& salary = perturbed.Column(synth::kSalary);
  std::vector<reconstruct::Reconstruction> em_results;
  for (std::size_t threads : thread_counts) {
    engine::BatchOptions options;
    options.num_threads = threads;
    const engine::Batch batch(options);
    reconstruct::Reconstruction result;
    std::snprintf(label, sizeof(label), "EM binned K=100 t=%zu", threads);
    reporter.Measure(label, train.NumRows(), "em", [&] {
      result = batch.ReconstructParallel(salary, partition, reconstructor);
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
  const engine::Batch single({1, 16384});
  std::vector<reconstruct::Reconstruction> simd_results;
  for (simd::Path path : paths) {
    (void)simd::SetPath(path);
    reconstruct::Reconstruction result;
    std::snprintf(label, sizeof(label), "EM binned K=100 simd=%s",
                  simd::PathName(path));
    reporter.Measure(label, train.NumRows(), "simd", [&] {
      result = single.ReconstructParallel(salary, partition, reconstructor);
    });
    simd_results.push_back(result);
  }
  (void)simd::SetPath(simd::Avx2Supported() ? simd::Path::kAvx2
                                            : simd::Path::kScalar);

  // --------------------------------- kernel-cache warm-refresh speedup
  // A streaming refresh pays O(wbins·K) to rebuild the likelihood table
  // unless the cached one still matches. Cold rebuilds every call; warm
  // reuses one prebuilt table — the speedup is what AttributeState's
  // cache buys a warm-started session refresh.
  for (const auto kind :
       {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
    engine::ThreadPool pool(1);
    const char* kind_name =
        kind == perturb::NoiseKind::kUniform ? "uniform" : "gauss";
    const perturb::NoiseModel noise_model = perturb::NoiseForPrivacy(
        kind, 1.0, partition.hi() - partition.lo(), 0.95);
    const reconstruct::BayesReconstructor rec(noise_model, {});
    const stats::Histogram whist = rec.PerturbedBinning(partition);
    const engine::ShardStats counts = engine::IngestBinnedColumn(
        salary.data(), salary.size(), whist.lo(), whist.hi(), whist.width(),
        whist.bins(), &pool, 16384);
    const std::vector<double> weights = counts.BinWeights();
    const double total = static_cast<double>(salary.size());
    const reconstruct::KernelTable table = rec.BuildKernelTable(partition,
                                                                &pool);
    // Warm-start from the converged masses so both rows time a
    // short refresh (the steady-state shape), not a cold convergence.
    const std::vector<double> masses =
        rec.FitFromCounts(weights, total, partition, &pool, nullptr, &table)
            .masses;
    const std::string anchor = std::string("refresh-") + kind_name;
    std::snprintf(label, sizeof(label), "refresh cold %s (rebuild)",
                  kind_name);
    reporter.Measure(label, salary.size(), anchor, [&] {
      const reconstruct::Reconstruction r = rec.FitFromCounts(
          weights, total, partition, &pool, &masses, nullptr);
      (void)r;
    });
    std::snprintf(label, sizeof(label), "refresh warm %s (cached)",
                  kind_name);
    reporter.Measure(label, salary.size(), anchor, [&] {
      const reconstruct::Reconstruction r = rec.FitFromCounts(
          weights, total, partition, &pool, &masses, &table);
      (void)r;
    });
  }

  // ----------------------- per-attribute / per-class fan-out (ByClass)
  // The trainer's root-time precompute: 9 attributes × 2 classes = 18
  // independent EM fits, fanned out one attribute per task.
  for (std::size_t threads : thread_counts) {
    engine::ThreadPool pool(threads);
    std::snprintf(label, sizeof(label), "by-class 9 attrs t=%zu", threads);
    reporter.Measure(label, train.NumRows() * train.NumCols(), "fanout", [&] {
      engine::ParallelFor(&pool, train.NumCols(), [&](std::size_t col) {
        const reconstruct::Partition p = reconstruct::Partition::ForField(
            train.schema().Field(col), 30);
        const reconstruct::BayesReconstructor rec(randomizer.ModelFor(col),
                                                  {});
        const std::vector<reconstruct::Reconstruction> r =
            reconstruct::ReconstructByClass(perturbed, col, p, rec);
        (void)r;
      });
    }, threads);
  }

  // ------------------------------------------------ determinism check
  bool identical = true;
  for (std::size_t i = 1; i < em_results.size(); ++i) {
    identical = identical && SameMasses(em_results[0], em_results[i]);
  }
  std::printf("\nEM masses byte-identical across thread counts: %s\n",
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
  return identical && simd_identical ? 0 : 1;
}
