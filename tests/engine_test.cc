// Tests for the parallel execution engine: the thread pool and its
// data-parallel primitives, the ingestion bin pass, and — the contract
// everything else leans on — thread-count invariance: every engine job
// yields byte-identical results for every number of worker threads.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "perturb/noise_model.h"
#include "perturb/randomizer.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"
#include "stats/partition.h"
#include "synth/generator.h"
#include "tree/trainer.h"
#include "test_util.h"

namespace ppdm::engine {
namespace {

using test::PathGuard;
using test::ReconstructionsIdentical;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{4}}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    for (auto& v : visits) v = 0;
    ParallelFor(&pool, kN, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST(ThreadPoolTest, ParallelForWithNullPoolRunsInline) {
  std::size_t count = 0;
  ParallelFor(nullptr, 17, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 17u);
}

TEST(ThreadPoolTest, ParallelForZeroItemsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  ParallelFor(&pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    ParallelFor(&pool, 50, [&](std::size_t i) {
      sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptionsAndKeepsPoolUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](std::size_t i) {
                    if (i == 37) throw std::runtime_error("poisoned");
                  }),
      std::runtime_error);
  // The barrier released cleanly: the pool still works afterwards.
  std::atomic<int> sum{0};
  ParallelFor(&pool, 10, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPoolTest, MakeChunksCoversRangeWithoutOverlap) {
  const std::vector<ChunkRange> chunks = MakeChunks(10, 3);
  ASSERT_EQ(chunks.size(), 4u);
  std::size_t expected_begin = 0;
  for (const ChunkRange& c : chunks) {
    EXPECT_EQ(c.begin, expected_begin);
    expected_begin = c.end;
  }
  EXPECT_EQ(chunks.back().end, 10u);
}

TEST(ThreadPoolTest, MakeChunksEdgeCases) {
  EXPECT_TRUE(MakeChunks(0, 4).empty());
  // chunk_size > n yields a single chunk.
  EXPECT_EQ(MakeChunks(7, 100).size(), 1u);
}

// ------------------------------------------------------------ ingestion

// The counts of one column by the scalar reference binning, one value at a
// time: what every sharded, strided or SIMD bin pass must reproduce.
stats::Histogram AddLoop(const std::vector<double>& values,
                         const stats::Partition& grid) {
  stats::Histogram counts(grid);
  counts.AddAll(values);
  return counts;
}

// Bins `columns` of a row-major `width`-wide block with BinColumns and
// counts each column's run; empty when a value is not finite.
std::vector<stats::Histogram> BinAndCount(
    const std::vector<double>& rows, std::size_t width,
    const std::vector<std::size_t>& columns,
    const std::vector<const stats::Partition*>& grids, ThreadPool* pool) {
  const std::size_t num_rows = rows.size() / width;
  std::vector<std::uint32_t> bins(num_rows * columns.size());
  if (!BinColumns(rows.data(), num_rows, width, columns, grids, pool,
                  bins.data())) {
    return {};
  }
  std::vector<stats::Histogram> counts;
  for (std::size_t a = 0; a < columns.size(); ++a) {
    counts.emplace_back(*grids[a]);
    counts.back().AddIndices(bins.data() + a * num_rows, num_rows);
  }
  return counts;
}

// The session's fold over strided columns, across a shard boundary, at
// every pool size: each column's counts equal a per-value Add loop.
TEST(IngestTest, BinColumnsEqualsAddLoopAtEveryPoolSize) {
  constexpr std::size_t kWidth = 5;
  const std::size_t num_rows = kIngestShardRows + 10;
  Rng rng(7);
  std::vector<double> rows(num_rows * kWidth);
  for (double& v : rows) v = rng.UniformReal(-1.0, 2.0);
  const std::vector<std::size_t> columns = {3, 0, 4};
  const stats::Partition coarse(0.0, 1.0, 3);
  const stats::Partition fine(-0.5, 1.5, 41);
  const std::vector<const stats::Partition*> grids = {&coarse, &fine,
                                                      &coarse};
  std::vector<stats::Histogram> reference;
  for (std::size_t a = 0; a < columns.size(); ++a) {
    std::vector<double> column(num_rows);
    for (std::size_t r = 0; r < num_rows; ++r) {
      column[r] = rows[r * kWidth + columns[a]];
    }
    reference.push_back(AddLoop(column, *grids[a]));
  }
  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const std::vector<stats::Histogram> counts =
        BinAndCount(rows, kWidth, columns, grids, &pool);
    ASSERT_EQ(counts.size(), columns.size()) << "threads " << threads;
    for (std::size_t a = 0; a < columns.size(); ++a) {
      EXPECT_EQ(counts[a].counts(), reference[a].counts())
          << "threads " << threads << " column " << columns[a];
      EXPECT_EQ(counts[a].total(), num_rows);
    }
  }
}

// Fit counts through the same fold: its estimate equals FitFromCounts over
// the Add-loop counts bit for bit, at every pool size, across a shard
// boundary.
TEST(IngestTest, FitCountsLikeAnAddLoopAtEveryPoolSize) {
  Rng rng(13);
  std::vector<double> values(kIngestShardRows + 10);
  for (double& v : values) v = rng.UniformReal(-0.5, 1.5);
  const stats::Partition partition(0.0, 1.0, 20);
  const reconstruct::BayesReconstructor rec(
      perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0, 0.95),
      {});
  const stats::Histogram counts =
      AddLoop(values, rec.PerturbedBinning(partition));
  const reconstruct::Reconstruction reference = rec.FitFromCounts(
      counts.Weights(), static_cast<double>(values.size()),
      rec.BuildKernelTable(partition), nullptr);
  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const reconstruct::Reconstruction fit =
        rec.Fit(values, partition, &pool);
    ASSERT_EQ(fit.masses.size(), reference.masses.size());
    EXPECT_EQ(std::memcmp(fit.masses.data(), reference.masses.data(),
                          fit.masses.size() * sizeof(double)),
              0)
        << "threads " << threads;
    EXPECT_EQ(fit.iterations, reference.iterations);
  }
}

TEST(IngestTest, NoRowsBinNothing) {
  const stats::Partition grid(0.0, 1.0, 4);
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::uint32_t untouched = 7;
    EXPECT_TRUE(BinColumns(nullptr, 0, 1, {0}, {&grid}, &pool, &untouched));
    EXPECT_EQ(untouched, 7u);
    const reconstruct::BayesReconstructor rec(
        perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0,
                                 0.95),
        {});
    const reconstruct::Reconstruction fit = rec.Fit({}, grid, &pool);
    EXPECT_EQ(fit.masses, std::vector<double>(4, 0.25));
  }
}

// An inf or NaN in Fit's column is a programmer error (offline data is
// finite: the CSV reader rejects such cells). Without the gate the SIMD
// paths would bin a NaN differently; with it, Fit aborts naming the input,
// wherever the value sits and at every pool size.
TEST(IngestDeathTest, FitRejectsANonFiniteValue) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const stats::Partition partition(0.0, 1.0, 20);
  const reconstruct::BayesReconstructor rec(
      perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0, 0.95),
      {});
  std::vector<double> values(kIngestShardRows + 10, 0.5);
  for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    for (const std::size_t at : {std::size_t{0}, values.size() - 1}) {
      for (const double bad : {std::nan(""),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
        std::vector<double> poisoned = values;
        poisoned[at] = bad;
        EXPECT_DEATH(
            {
              std::optional<ThreadPool> pool;
              if (threads > 0) pool.emplace(threads);
              (void)rec.Fit(poisoned, partition,
                            threads > 0 ? &*pool : nullptr);
            },
            "perturbed value is inf or NaN")
            << "threads " << threads << " at " << at << " value " << bad;
      }
    }
  }
}

// ------------------------------------------------------------------- SIMD

TEST(SimdTest, PadLanesRoundsUpToLaneMultiple) {
  EXPECT_EQ(simd::PadLanes(0), 0u);
  EXPECT_EQ(simd::PadLanes(1), 4u);
  EXPECT_EQ(simd::PadLanes(4), 4u);
  EXPECT_EQ(simd::PadLanes(5), 8u);
  EXPECT_EQ(simd::PadLanes(100), 100u);
}

TEST(SimdTest, SetPathFromStringRejectsUnknownNames) {
  PathGuard guard;
  EXPECT_FALSE(simd::SetPathFromString("sse9").ok());
  EXPECT_TRUE(simd::SetPathFromString("scalar").ok());
  EXPECT_EQ(simd::ActivePath(), simd::Path::kScalar);
  // "off" is not a path: rejected like any other unknown name, naming the
  // accepted values, and the active path stays where it was.
  const Status off = simd::SetPathFromString("off");
  EXPECT_EQ(off.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(off.message().find("scalar|avx2"), std::string::npos)
      << off.message();
  EXPECT_EQ(simd::ActivePath(), simd::Path::kScalar);
}

TEST(SimdTest, StrictEnvResolveRejectsOff) {
  PathGuard guard;
  const char* previous = std::getenv("PPDM_SIMD");
  const std::string saved = previous == nullptr ? "" : previous;
  setenv("PPDM_SIMD", "off", 1);
  const Status status = simd::InitFromEnv();
  if (previous == nullptr) {
    unsetenv("PPDM_SIMD");
  } else {
    setenv("PPDM_SIMD", saved.c_str(), 1);
  }
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("scalar|avx2"), std::string::npos)
      << status.message();
}

TEST(SimdTest, BinIndicesMatchesIntervalOfOnEveryPath) {
  PathGuard guard;
  const stats::Partition grid(-0.3, 1.3, 16);
  Rng rng(41);
  std::vector<double> values;
  // Random interior values plus every hazardous edge: the exact bounds,
  // bin edges, values far outside the range (the cvttpd overflow hazard),
  // and values a ULP around the clamps.
  for (int i = 0; i < 1000; ++i) values.push_back(rng.UniformReal(-1.0, 2.0));
  for (std::size_t b = 0; b <= 16; ++b) {
    values.push_back(-0.3 + 0.1 * static_cast<double>(b));
  }
  values.insert(values.end(),
                {-0.3, 1.3, -1e18, 1e18, -0.3000000000000001,
                 1.2999999999999998, 0.0, 1.0});

  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  for (simd::Path path : paths) {
    ASSERT_TRUE(simd::SetPath(path).ok());
    std::vector<std::uint32_t> idx(values.size());
    simd::BinIndices(values.data(), values.size(), grid.lo(), grid.hi(),
                     grid.width(), grid.intervals(), idx.data());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(idx[i], grid.IntervalOf(values[i]))
          << "path=" << simd::PathName(path) << " value=" << values[i];
    }
  }
}

TEST(SimdTest, DotAndScaleAddByteIdenticalScalarVsAvx2) {
  if (!simd::Avx2Supported()) GTEST_SKIP() << "AVX2 unavailable";
  Rng rng(43);
  const std::size_t n = simd::PadLanes(157);
  std::vector<double> a(n, 0.0), b(n, 0.0);
  for (std::size_t i = 0; i < 157; ++i) {
    a[i] = rng.UniformReal(-1.0, 1.0);
    b[i] = rng.UniformReal(0.0, 2.0);
  }
  const double dot_scalar = simd::Dot(a.data(), b.data(), n,
                                      simd::Path::kScalar);
  const double dot_avx2 = simd::Dot(a.data(), b.data(), n,
                                    simd::Path::kAvx2);
  EXPECT_EQ(std::memcmp(&dot_scalar, &dot_avx2, sizeof(double)), 0);

  std::vector<double> acc1(n, 0.5), acc2(n, 0.5);
  simd::ScaleAdd(acc1.data(), a.data(), b.data(), 1.7, n,
                 simd::Path::kScalar);
  simd::ScaleAdd(acc2.data(), a.data(), b.data(), 1.7, n,
                 simd::Path::kAvx2);
  EXPECT_EQ(std::memcmp(acc1.data(), acc2.data(), n * sizeof(double)), 0);
}

TEST(SimdTest, FourRowKernelsEqualFourSingleRowCalls) {
  // Dot4/ScaleAdd4 are the E-step's four-row kernels: on every path they
  // must reproduce four single-row Dot/ScaleAdd calls on that same path
  // byte for byte — the per-row lane order, reduction tree and (for the
  // accumulate) the row order applied to each element.
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  Rng rng(47);
  for (const std::size_t logical : {std::size_t{1}, std::size_t{4},
                                    std::size_t{157}, std::size_t{200}}) {
    const std::size_t n = simd::PadLanes(logical);
    std::vector<std::vector<double>> rows(4, std::vector<double>(n, 0.0));
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < logical; ++i) {
      // Magnitudes spread over many binades so reassociation would show.
      for (auto& row : rows) {
        row[i] = rng.UniformReal(0.0, 1.0) *
                 std::ldexp(1.0, static_cast<int>(rng.UniformInt(-30, 30)));
      }
      b[i] = rng.UniformReal(0.0, 2.0);
    }
    const double* row_ptrs[4] = {rows[0].data(), rows[1].data(),
                                 rows[2].data(), rows[3].data()};
    const double scales[4] = {1.7, 3.0e-9, 0.1, 12345.678};
    for (simd::Path path : paths) {
      double dots[4];
      simd::Dot4(row_ptrs, b.data(), n, dots, path);
      std::vector<double> acc4(n, 0.5), acc1(n, 0.5);
      simd::ScaleAdd4(acc4.data(), row_ptrs, b.data(), scales, n, path);
      for (std::size_t r = 0; r < 4; ++r) {
        const double single = simd::Dot(row_ptrs[r], b.data(), n, path);
        EXPECT_EQ(std::memcmp(&dots[r], &single, sizeof(double)), 0)
            << "path=" << simd::PathName(path) << " n=" << n << " row=" << r;
        simd::ScaleAdd(acc1.data(), row_ptrs[r], b.data(), scales[r], n,
                       path);
      }
      EXPECT_EQ(std::memcmp(acc4.data(), acc1.data(), n * sizeof(double)), 0)
          << "path=" << simd::PathName(path) << " n=" << n;
    }
  }
}

// The bin pass counts the same on every SIMD path, across a shard
// boundary and from a partial kernel batch on.
TEST(SimdTest, BinColumnsEqualsAddLoopOnEveryPath) {
  PathGuard guard;
  const stats::Partition grid(0.0, 1.0, 12);
  Rng rng(47);
  std::vector<double> values(kIngestShardRows + 10);
  for (double& v : values) v = rng.UniformReal(-0.5, 1.5);
  const stats::Histogram reference = AddLoop(values, grid);

  ThreadPool pool(4);
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  for (simd::Path path : paths) {
    ASSERT_TRUE(simd::SetPath(path).ok());
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::vector<stats::Histogram> binned =
          BinAndCount(values, 1, {0}, {&grid}, p);
      ASSERT_EQ(binned.size(), 1u);
      EXPECT_EQ(binned[0].counts(), reference.counts())
          << "path=" << simd::PathName(path) << " pool=" << (p != nullptr);
    }
    // Uneven runs (a partial kernel batch, then a run past one batch)
    // count the same as one pass.
    const std::vector<double> head(values.begin(), values.begin() + 7);
    const std::vector<double> tail(values.begin() + 7, values.end());
    const std::vector<stats::Histogram> head_counts =
        BinAndCount(head, 1, {0}, {&grid}, &pool);
    const std::vector<stats::Histogram> tail_counts =
        BinAndCount(tail, 1, {0}, {&grid}, &pool);
    ASSERT_EQ(head_counts.size() + tail_counts.size(), 2u);
    for (std::size_t b = 0; b < grid.intervals(); ++b) {
      EXPECT_EQ(head_counts[0].counts()[b] + tail_counts[0].counts()[b],
                reference.counts()[b])
          << "path=" << simd::PathName(path) << " bin " << b;
    }
  }
}

TEST(SimdTest, AlignedDoublesIsCacheLineAlignedAndZeroed) {
  simd::AlignedDoubles buf(37);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.data()[i], 0.0);
  }
}

// ----------------------------------------------------------- offline jobs

// Perturbed benchmark data shared by the reconstruction tests.
struct EngineFixture {
  EngineFixture() {
    synth::GeneratorOptions gen;
    gen.num_records = 4000;
    gen.seed = 11;
    original = synth::Generate(gen);
    perturb::RandomizerOptions noise;
    noise.kind = perturb::NoiseKind::kUniform;
    noise.privacy_fraction = 1.0;
    noise.seed = 99;
    randomizer = std::make_unique<perturb::Randomizer>(original->schema(),
                                                       noise);
    perturbed = randomizer->Perturb(*original);
  }
  std::optional<data::Dataset> original;
  std::optional<data::Dataset> perturbed;
  std::unique_ptr<perturb::Randomizer> randomizer;
};

TEST(BatchTest, FitIsThreadCountInvariant) {
  const EngineFixture fx;
  const data::FieldSpec& salary = fx.perturbed->schema().Field(synth::kSalary);
  const stats::Partition partition(salary.lo, salary.hi, 25);
  const reconstruct::BayesReconstructor reconstructor(
      fx.randomizer->ModelFor(synth::kSalary), {});
  const std::vector<double>& column = fx.perturbed->Column(synth::kSalary);

  // Inline — the reference decomposition.
  const reconstruct::Reconstruction reference =
      reconstructor.Fit(column, partition, nullptr);
  EXPECT_GT(reference.iterations, 0u);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool pool(threads);
    const reconstruct::Reconstruction parallel =
        reconstructor.Fit(column, partition, &pool);
    // Byte-identical: same masses, same traces, bit for bit.
    EXPECT_TRUE(ReconstructionsIdentical(reference, parallel))
        << "num_threads " << threads;
    ASSERT_EQ(parallel.masses.size(), reference.masses.size());
    EXPECT_EQ(std::memcmp(parallel.masses.data(), reference.masses.data(),
                          reference.masses.size() * sizeof(double)),
              0)
        << "num_threads " << threads;
  }
}

TEST(BatchTest, FitOverAPoolEqualsFitBitwise) {
  // One E-step decomposition: Fit over a 0-thread pool (inline) and over
  // 4 workers is Fit() with no pool, bit for bit — masses and both traces.
  const EngineFixture fx;
  const data::FieldSpec& age = fx.perturbed->schema().Field(synth::kAge);
  const stats::Partition partition(age.lo, age.hi, 20);
  const std::vector<double>& column = fx.perturbed->Column(synth::kAge);
  const reconstruct::BayesReconstructor reconstructor(
      fx.randomizer->ModelFor(synth::kAge), {});
  const reconstruct::Reconstruction sequential =
      reconstructor.Fit(column, partition);
  EXPECT_GT(sequential.iterations, 0u);
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool pool(threads);
    const reconstruct::Reconstruction parallel =
        reconstructor.Fit(column, partition, &pool);
    EXPECT_TRUE(ReconstructionsIdentical(sequential, parallel))
        << "num_threads " << threads;
    ASSERT_EQ(parallel.masses.size(), sequential.masses.size());
    EXPECT_EQ(std::memcmp(parallel.masses.data(), sequential.masses.data(),
                          sequential.masses.size() * sizeof(double)),
              0);
  }
}

TEST(BatchTest, FitEmptyInputYieldsUniform) {
  const perturb::NoiseModel noise = perturb::NoiseModel::Uniform(0.5);
  const reconstruct::BayesReconstructor reconstructor(noise, {});
  const stats::Partition partition(0.0, 1.0, 8);
  ThreadPool pool(2);
  const reconstruct::Reconstruction r =
      reconstructor.Fit({}, partition, &pool);
  ASSERT_EQ(r.masses.size(), 8u);
  for (double m : r.masses) EXPECT_DOUBLE_EQ(m, 0.125);
  EXPECT_EQ(r.sample_count, 0u);
}

TEST(BatchTest, ReconstructByClassIsPoolInvariant) {
  const EngineFixture fx;
  const data::FieldSpec& salary = fx.perturbed->schema().Field(synth::kSalary);
  const stats::Partition partition(salary.lo, salary.hi, 20);
  const reconstruct::BayesReconstructor reconstructor(
      fx.randomizer->ModelFor(synth::kSalary), {});

  const std::vector<reconstruct::Reconstruction> sequential =
      reconstruct::ReconstructByClass(*fx.perturbed, synth::kSalary,
                                      partition, reconstructor);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const std::vector<reconstruct::Reconstruction> parallel =
        reconstruct::ReconstructByClass(*fx.perturbed, synth::kSalary,
                                        partition, reconstructor, &pool);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t c = 0; c < sequential.size(); ++c) {
      EXPECT_TRUE(ReconstructionsIdentical(sequential[c], parallel[c]))
          << "class " << c << " num_threads " << threads;
    }
  }
}

TEST(BatchTest, PerturbIsPoolInvariantWithOneStreamPerColumn) {
  // Perturb over any pool writes the pool-less bytes, column for column.
  const EngineFixture fx;
  const data::Dataset reference = fx.randomizer->Perturb(*fx.original);
  // Perturbation did something.
  EXPECT_NE(reference.At(0, synth::kSalary),
            fx.original->At(0, synth::kSalary));
  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const data::Dataset perturbed =
        fx.randomizer->Perturb(*fx.original, &pool);
    for (std::size_t c = 0; c < reference.NumCols(); ++c) {
      EXPECT_EQ(perturbed.Column(c), reference.Column(c))
          << "column " << c << " num_threads " << threads;
    }
  }

  // Every column takes its fork in column order, whatever its noise, so
  // turning column 0's noise off leaves column 1's draws where they were.
  const data::Schema schema(
      {{"x", data::AttributeKind::kContinuous, 0.0, 1.0},
       {"y", data::AttributeKind::kContinuous, 0.0, 1.0}});
  data::Dataset plain(schema, 2);
  for (int i = 0; i < 1000; ++i) plain.AddRow({0.5, 0.5}, i % 2);
  const perturb::Randomizer noisy(
      schema,
      {perturb::NoiseModel::Uniform(0.25), perturb::NoiseModel::Uniform(0.25)},
      5);
  const perturb::Randomizer quiet(
      schema, {perturb::NoiseModel::None(), perturb::NoiseModel::Uniform(0.25)},
      5);
  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const data::Dataset a = noisy.Perturb(plain, &pool);
    const data::Dataset b = quiet.Perturb(plain, &pool);
    EXPECT_NE(a.Column(0), plain.Column(0)) << "num_threads " << threads;
    EXPECT_EQ(b.Column(0), plain.Column(0)) << "num_threads " << threads;
    EXPECT_EQ(a.Column(1), b.Column(1)) << "num_threads " << threads;
  }
}

TEST(BatchTest, LocalModeTreeIsPoolInvariantWithPerNodeFanOut) {
  // Local re-reconstructs at every node of at least 1500 records (the
  // fixture's 3000 non-holdout rows clear that at the root), and those
  // per-node counts tables fan out over the pool; the tree must still be
  // identical for every pool size.
  const EngineFixture fx;
  tree::TreeOptions options;
  options.intervals = 15;
  // Every EM fit observes the iterations histogram once, so the count
  // growth across a training is its number of fits.
  const obs::Histogram& em_iterations =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_em_iterations", obs::Histogram::IterationBuckets());
  std::uint64_t before = em_iterations.Count();
  tree::TrainDecisionTree(*fx.perturbed, tree::TrainingMode::kByClass,
                          options, fx.randomizer.get(), nullptr);
  const std::uint64_t byclass_fits = em_iterations.Count() - before;
  before = em_iterations.Count();
  const tree::DecisionTree sequential = tree::TrainDecisionTree(
      *fx.perturbed, tree::TrainingMode::kLocal, options,
      fx.randomizer.get(), nullptr);
  // Local fits the same root reconstructions as ByClass; anything more is
  // per-node EM.
  EXPECT_GT(em_iterations.Count() - before, byclass_fits);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const tree::DecisionTree parallel = tree::TrainDecisionTree(
        *fx.perturbed, tree::TrainingMode::kLocal, options,
        fx.randomizer.get(), &pool);
    EXPECT_EQ(sequential.Describe(fx.perturbed->schema()),
              parallel.Describe(fx.perturbed->schema()))
        << "num_threads " << threads;
  }
}

TEST(BatchTest, TrainedTreeIsPoolInvariant) {
  const EngineFixture fx;
  tree::TreeOptions options;
  options.intervals = 20;
  const tree::DecisionTree sequential = tree::TrainDecisionTree(
      *fx.perturbed, tree::TrainingMode::kByClass, options,
      fx.randomizer.get(), nullptr);
  ThreadPool pool(4);
  const tree::DecisionTree parallel = tree::TrainDecisionTree(
      *fx.perturbed, tree::TrainingMode::kByClass, options,
      fx.randomizer.get(), &pool);
  EXPECT_EQ(sequential.NumNodes(), parallel.NumNodes());
  EXPECT_EQ(sequential.Describe(fx.perturbed->schema()),
            parallel.Describe(fx.perturbed->schema()));
}

}  // namespace
}  // namespace ppdm::engine
