// Tests for the parallel execution engine: the thread pool and its
// data-parallel primitives, mergeable shard statistics, and — the contract
// everything else leans on — thread-count invariance: every engine job
// yields byte-identical results for every number of worker threads.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/shard_stats.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "perturb/noise_model.h"
#include "perturb/randomizer.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"
#include "stats/partition.h"
#include "synth/generator.h"
#include "tree/trainer.h"

namespace ppdm::engine {
namespace {

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
  EXPECT_TRUE(MakeChunks(0, 0).empty());
  // chunk_size 0 = one chunk spanning everything.
  const std::vector<ChunkRange> whole = MakeChunks(7, 0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].begin, 0u);
  EXPECT_EQ(whole[0].end, 7u);
  // chunk_size > n also yields a single chunk.
  EXPECT_EQ(MakeChunks(7, 100).size(), 1u);
}

TEST(ThreadPoolTest, ChunkedReduceFoldsInChunkOrder) {
  ThreadPool pool(4);
  const std::vector<ChunkRange> chunks = MakeChunks(100, 7);
  // Concatenating chunk indices in fold order must yield 0,1,2,...
  const std::vector<std::size_t> order = ChunkedReduce<std::vector<std::size_t>>(
      &pool, chunks, {},
      [](std::size_t c, const ChunkRange&) {
        return std::vector<std::size_t>{c};
      },
      [](std::vector<std::size_t>* acc, const std::vector<std::size_t>& v) {
        acc->insert(acc->end(), v.begin(), v.end());
      });
  ASSERT_EQ(order.size(), chunks.size());
  for (std::size_t c = 0; c < order.size(); ++c) EXPECT_EQ(order[c], c);
}

// ------------------------------------------------------------- ShardStats

ShardStats RandomStats(std::uint64_t seed, std::size_t bins, std::size_t n) {
  Rng rng(seed);
  ShardStats stats(bins);
  for (std::size_t i = 0; i < n; ++i) {
    stats.Add(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(bins) - 1)));
  }
  return stats;
}

bool StatsEqual(const ShardStats& a, const ShardStats& b) {
  return a.record_count() == b.record_count() && a.counts() == b.counts();
}

// The bins of a column by the scalar reference binning, one value at a
// time — what every batched, sharded or SIMD ingest must reproduce.
ShardStats SequentialIntervalOf(const std::vector<double>& values,
                                const stats::Partition& grid) {
  ShardStats stats(grid.intervals());
  for (double v : values) stats.Add(grid.IntervalOf(v));
  return stats;
}

TEST(ShardStatsTest, CountsAndAccessorsAgree) {
  ShardStats stats(4);
  stats.Add(0);
  stats.Add(0);
  stats.Add(3);
  EXPECT_EQ(stats.num_bins(), 4u);
  EXPECT_EQ(stats.record_count(), 3u);
  EXPECT_EQ(stats.BinCount(0), 2u);
  EXPECT_EQ(stats.BinCount(1), 0u);
  EXPECT_EQ(stats.BinCount(3), 1u);
  EXPECT_EQ(stats.BinWeights(), (std::vector<double>{2.0, 0.0, 0.0, 1.0}));
}

TEST(ShardStatsTest, MergeIsAssociative) {
  const ShardStats a = RandomStats(1, 8, 500);
  const ShardStats b = RandomStats(2, 8, 700);
  const ShardStats c = RandomStats(3, 8, 300);

  ShardStats left(8);  // (a ⊕ b) ⊕ c
  left.MergeFrom(a);
  left.MergeFrom(b);
  ShardStats left_then_c = left;
  left_then_c.MergeFrom(c);

  ShardStats bc(8);  // a ⊕ (b ⊕ c)
  bc.MergeFrom(b);
  bc.MergeFrom(c);
  ShardStats a_then_bc = a;
  a_then_bc.MergeFrom(bc);

  EXPECT_TRUE(StatsEqual(left_then_c, a_then_bc));
  EXPECT_EQ(a_then_bc.record_count(), 1500u);
}

TEST(ShardStatsTest, ShardedIngestEqualsSequentialPass) {
  Rng rng(7);
  std::vector<double> values(5000);
  for (double& v : values) v = rng.UniformReal(-1.0, 2.0);
  const stats::Partition grid(0.0, 1.0, 3);

  const ShardStats sequential = SequentialIntervalOf(values, grid);
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool pool(threads);
    for (std::size_t shard_size : {std::size_t{1}, std::size_t{333},
                                   std::size_t{10000}}) {
      const ShardStats sharded = IngestBinnedColumn(
          values.data(), values.size(), grid, &pool, shard_size);
      EXPECT_TRUE(StatsEqual(sequential, sharded))
          << "threads " << threads << " shard_size " << shard_size;
    }
  }
}

TEST(ShardStatsTest, IngestEmptyInput) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool pool(threads);
    for (std::size_t shard_size : {std::size_t{1}, std::size_t{333},
                                   std::size_t{10000}}) {
      const ShardStats empty = IngestBinnedColumn(
          nullptr, 0, stats::Partition(0.0, 1.0, 4), &pool, shard_size);
      EXPECT_EQ(empty.record_count(), 0u);
      EXPECT_EQ(empty.num_bins(), 4u);
      EXPECT_EQ(empty.counts(), std::vector<std::uint64_t>(4, 0));
    }
  }
}

TEST(ShardStatsTest, ApproxHeapBytesTracksSizeNotCapacity) {
  const ShardStats stats(21);
  // The counts are allocated once at their final size; the accounting
  // must report that size, not whatever the allocator rounded up to.
  EXPECT_EQ(stats.ApproxHeapBytes(), 21u * sizeof(std::uint64_t));
  EXPECT_EQ(stats.counts().size(), 21u);
}

// ------------------------------------------------------------------- SIMD

// Restores the dispatched path on scope exit.
struct PathGuard {
  simd::Path saved = simd::ActivePath();
  ~PathGuard() { (void)simd::SetPath(saved); }
};

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

TEST(SimdTest, IngestBinnedColumnEqualsFunctorIngest) {
  PathGuard guard;
  const stats::Partition grid(0.0, 1.0, 12);
  Rng rng(47);
  std::vector<double> values(5000);
  for (double& v : values) v = rng.UniformReal(-0.5, 1.5);
  const ShardStats reference = SequentialIntervalOf(values, grid);

  ThreadPool pool(4);
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  for (simd::Path path : paths) {
    ASSERT_TRUE(simd::SetPath(path).ok());
    for (std::size_t shard_size : {std::size_t{0}, std::size_t{100},
                                   std::size_t{333}}) {
      const ShardStats binned = IngestBinnedColumn(
          values.data(), values.size(), grid,
          shard_size == 0 ? nullptr : &pool, shard_size);
      EXPECT_TRUE(StatsEqual(reference, binned))
          << "path=" << simd::PathName(path)
          << " shard_size=" << shard_size;
    }
    // AddBinned over uneven runs (a partial kernel batch, then a run past
    // one batch) counts the same as one pass.
    ShardStats pieces(grid.intervals());
    pieces.AddBinned(values.data(), 7, grid);
    pieces.AddBinned(values.data() + 7, values.size() - 7, grid);
    EXPECT_TRUE(StatsEqual(reference, pieces))
        << "path=" << simd::PathName(path);
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

bool ReconstructionsIdentical(const reconstruct::Reconstruction& a,
                              const reconstruct::Reconstruction& b) {
  return a.masses == b.masses && a.iterations == b.iterations &&
         a.chi_square_trace == b.chi_square_trace &&
         a.log_likelihood_trace == b.log_likelihood_trace &&
         a.sample_count == b.sample_count;
}

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
  // Local re-reconstructs at every large-enough node, and those per-node
  // counts tables now fan out over the pool; the tree must still be
  // identical for every pool size.
  const EngineFixture fx;
  tree::TreeOptions options;
  options.intervals = 15;
  options.max_depth = 6;
  options.local_min_records_to_reconstruct = 400;  // force per-node EM
  const tree::DecisionTree sequential = tree::TrainDecisionTree(
      *fx.perturbed, tree::TrainingMode::kLocal, options,
      fx.randomizer.get(), nullptr);
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
