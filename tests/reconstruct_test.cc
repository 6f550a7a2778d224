// Tests for the reconstruction layer: apportionment,
// order-statistics assignment, and the Bayes/EM reconstructor — including
// the EM signature property (monotone log-likelihood) and the paper's
// headline property that reconstruction recovers the original distribution
// far better than the raw perturbed histogram does.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "perturb/noise_model.h"
#include "reconstruct/assign.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"
#include "stats/distribution.h"
#include "stats/histogram.h"
#include "stats/partition.h"
#include "synth/generator.h"
#include "test_util.h"

namespace ppdm::reconstruct {
namespace {

using test::PathGuard;

using perturb::NoiseKind;
using perturb::NoiseModel;
using stats::Partition;

// ----------------------------------------------------------- Apportionment

TEST(ApportionTest, SumsExactlyToTotal) {
  const auto counts = ApportionCounts({0.3, 0.3, 0.4}, 10);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 10u);
  EXPECT_EQ(counts[2], 4u);
}

TEST(ApportionTest, HandlesRemainders) {
  // 1/3 each of 10: two intervals get 3, one gets 4; total exactly 10.
  const auto counts =
      ApportionCounts({1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0}, 10);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 10u);
  for (std::size_t c : counts) {
    EXPECT_GE(c, 3u);
    EXPECT_LE(c, 4u);
  }
}

TEST(ApportionTest, ZeroTotal) {
  const auto counts = ApportionCounts({0.5, 0.5}, 0);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
}

TEST(ApportionTest, MassesNeedNotBeNormalized) {
  // Masses are normalized internally, so 3:1 of 100 is 75/25.
  const auto counts = ApportionCounts({3.0, 1.0}, 100);
  EXPECT_EQ(counts[0], 75u);
  EXPECT_EQ(counts[1], 25u);
}

// -------------------------------------------------------------- Assignment

TEST(AssignTest, MatchesApportionedCounts) {
  Rng rng(4);
  std::vector<double> values(100);
  for (double& v : values) v = rng.UniformDouble();
  const std::vector<double> masses{0.1, 0.2, 0.3, 0.4};
  const auto assignment = AssignByOrderStatistics(values, masses);
  std::vector<std::size_t> histogram(4, 0);
  for (std::size_t a : assignment) ++histogram[a];
  EXPECT_EQ(histogram[0], 10u);
  EXPECT_EQ(histogram[1], 20u);
  EXPECT_EQ(histogram[2], 30u);
  EXPECT_EQ(histogram[3], 40u);
}

TEST(AssignTest, MonotoneInValue) {
  Rng rng(5);
  std::vector<double> values(500);
  for (double& v : values) v = rng.UniformDouble();
  const std::vector<double> masses{0.25, 0.25, 0.25, 0.25};
  const auto assignment = AssignByOrderStatistics(values, masses);
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[i] < values[j]) {
        ASSERT_LE(assignment[i], assignment[j]);
      }
    }
  }
}

TEST(AssignTest, NoNoiseRecoversTrueIntervals) {
  // With exact masses and untouched values, dealing must reproduce the
  // true interval of every value.
  const Partition p(0.0, 1.0, 4);
  Rng rng(6);
  std::vector<double> values(400);
  for (double& v : values) v = rng.UniformDouble();
  stats::Histogram h(0.0, 1.0, 4);
  h.AddAll(values);
  const auto assignment = AssignByOrderStatistics(values, h.Masses());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(assignment[i], p.IntervalOf(values[i]));
  }
}

TEST(AssignTest, EmptyInput) {
  EXPECT_TRUE(AssignByOrderStatistics({}, {0.5, 0.5}).empty());
}

// ----------------------------------------------------------- Reconstructor

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Iterate i of `rec`'s EM on `perturbed`: the uniform prior at i = 0, else
// the fit capped at i iterations. Every fit starts from the uniform prior,
// so this is the i-th estimate of any fit that ran at least i iterations.
std::vector<double> Iterate(const BayesReconstructor& rec,
                            const std::vector<double>& perturbed,
                            const Partition& p, std::size_t i) {
  if (i == 0) {
    return std::vector<double>(p.intervals(),
                               1.0 / static_cast<double>(p.intervals()));
  }
  ReconstructionOptions capped = rec.options();
  capped.max_iterations = i;
  return BayesReconstructor(rec.noise(), capped).Fit(perturbed, p).masses;
}

// χ² between a fit's estimate and the iterate before it: the statistic
// its last iteration tested against the stopping threshold (RunEm's
// padding lanes are zeros, which ChiSquareDistance skips).
double LastChiSquare(const BayesReconstructor& rec,
                     const std::vector<double>& perturbed, const Partition& p,
                     const Reconstruction& fit) {
  return stats::ChiSquareDistance(
      fit.masses, Iterate(rec, perturbed, p, fit.iterations - 1));
}

TEST(ReconstructorTest, NoNoiseGivesExactHistogram) {
  // With kNone noise the fit is the exact histogram over the partition:
  // each value counted in Partition::IntervalOf, values at or beyond the
  // domain edges clamped into the edge intervals, every count divided by
  // the sample size — byte for byte.
  const Partition p(0.0, 1.0, 10);
  Rng rng(7);
  std::vector<double> values(1000);
  for (double& v : values) v = rng.UniformDouble();
  values.insert(values.end(), {0.0, 0.0, 1.0, -0.5, -3.0, 1.5, 7.0, 0.1});
  const BayesReconstructor rec(NoiseModel::None(), {});
  const Reconstruction r = rec.Fit(values, p);
  std::vector<double> expected(10, 0.0);
  for (double v : values) expected[p.IntervalOf(v)] += 1.0;
  for (double& m : expected) m /= static_cast<double>(values.size());
  EXPECT_TRUE(BytesEqual(r.masses, expected));
  EXPECT_EQ(r.sample_count, values.size());
  EXPECT_EQ(r.iterations, 0u);
}

TEST(ReconstructorTest, EmptyInputYieldsUniform) {
  const Partition p(0.0, 1.0, 8);
  const BayesReconstructor rec(NoiseModel::Uniform(0.1), {});
  const Reconstruction r = rec.Fit({}, p);
  for (double m : r.masses) EXPECT_DOUBLE_EQ(m, 0.125);
}

struct ReconCase {
  const char* name;
  NoiseKind noise;
  double privacy;
};

class ReconstructionProperty : public ::testing::TestWithParam<ReconCase> {
 protected:
  // Draws a plateau sample, perturbs it, reconstructs it, and returns the
  // pieces the properties below inspect.
  void Run(std::size_t n = 8000) {
    Rng rng(11);
    const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
    noise_ = std::make_unique<NoiseModel>(perturb::NoiseForPrivacy(
        GetParam().noise, GetParam().privacy, 1.0, 0.95));
    perturbed_.resize(n);
    truth_hist_ = std::make_unique<stats::Histogram>(0.0, 1.0, 20);
    perturbed_hist_ = std::make_unique<stats::Histogram>(0.0, 1.0, 20);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = truth.Sample(&rng);
      const double w = x + noise_->Sample(&rng);
      truth_hist_->Add(x);
      perturbed_hist_->Add(w);
      perturbed_[i] = w;
    }
    // Default stopping rule.
    rec_ = std::make_unique<BayesReconstructor>(*noise_,
                                                ReconstructionOptions{});
    result_ = rec_->Fit(perturbed_, partition_);
  }

  // Log-likelihood of the binned perturbed sample under `masses`, the
  // objective EM climbs: sum_j w_j log(sum_k T[j][k] masses[k]) over the
  // w-bins of PerturbedBinning, T the kernel table. A row no component
  // reaches scores log(1e-300), the E-step's dead-row floor.
  double LogLikelihood(const std::vector<double>& masses) const {
    stats::Histogram counts(rec_->PerturbedBinning(partition_));
    counts.AddAll(perturbed_);
    const KernelTable table = rec_->BuildKernelTable(partition_);
    double ll = 0.0;
    for (std::size_t j = 0; j < table.wbins; ++j) {
      const double w = static_cast<double>(counts.counts()[j]);
      if (w == 0.0) continue;
      double density = 0.0;
      for (std::size_t k = 0; k < masses.size(); ++k) {
        density += table.Row(j)[k] * masses[k];
      }
      ll += w * std::log(std::max(density, 1e-300));
    }
    return ll;
  }

  const Partition partition_{0.0, 1.0, 20};
  std::vector<double> perturbed_;
  std::unique_ptr<BayesReconstructor> rec_;
  std::unique_ptr<NoiseModel> noise_;
  std::unique_ptr<stats::Histogram> truth_hist_;
  std::unique_ptr<stats::Histogram> perturbed_hist_;
  Reconstruction result_;
};

TEST_P(ReconstructionProperty, MassesFormADistribution) {
  Run();
  double total = 0.0;
  for (double m : result_.masses) {
    EXPECT_GE(m, 0.0);
    total += m;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(ReconstructionProperty, LogLikelihoodIsMonotone) {
  Run();
  ASSERT_GE(result_.iterations, 2u);
  double previous = LogLikelihood(Iterate(*rec_, perturbed_, partition_, 0));
  for (std::size_t i = 1; i <= result_.iterations; ++i) {
    const std::vector<double> iterate =
        Iterate(*rec_, perturbed_, partition_, i);
    const double ll = LogLikelihood(iterate);
    EXPECT_GE(ll, previous - 1e-6)
        << "EM log-likelihood decreased at iteration " << i;
    previous = ll;
    if (i == result_.iterations) {
      EXPECT_TRUE(BytesEqual(iterate, result_.masses))
          << "a fit capped at its own iteration count must reproduce it";
    }
  }
}

TEST_P(ReconstructionProperty, BeatsPerturbedHistogram) {
  Run();
  const double recon_err =
      stats::TotalVariation(result_.masses, truth_hist_->Masses());
  const double raw_err =
      stats::TotalVariation(perturbed_hist_->Masses(), truth_hist_->Masses());
  EXPECT_LT(recon_err, raw_err)
      << "reconstruction should beat using perturbed values directly";
  EXPECT_LT(recon_err, 0.15);
}

TEST_P(ReconstructionProperty, FinalChiSquareIsSmall) {
  Run();
  ASSERT_GE(result_.iterations, 1u);
  // Either converged below epsilon or hit the cap with a small statistic.
  EXPECT_LT(LastChiSquare(*rec_, perturbed_, partition_, result_), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    NoiseKindsAndModes, ReconstructionProperty,
    ::testing::Values(
        ReconCase{"uniform100_binned", NoiseKind::kUniform, 1.0},
        ReconCase{"uniform50_binned", NoiseKind::kUniform, 0.5},
        ReconCase{"uniform200_binned", NoiseKind::kUniform, 2.0},
        ReconCase{"gaussian100_binned", NoiseKind::kGaussian, 1.0},
        ReconCase{"gaussian50_binned", NoiseKind::kGaussian, 0.5}),
    [](const ::testing::TestParamInfo<ReconCase>& info) {
      return info.param.name;
    });

// The reference the binned fit approximates: the Bayes update of §4.1
// applied to every sample, p_k <- (1/N) Σ_i f_Y(w_i − m_k) p_k /
// Σ_l f_Y(w_i − m_l) p_l, from the uniform prior with Fit's χ² stopping
// rule. A sample no component density reaches goes to its own interval.
std::vector<double> PerSampleEm(const std::vector<double>& perturbed,
                                const Partition& p, const NoiseModel& noise,
                                const ReconstructionOptions& options) {
  const std::size_t num_intervals = p.intervals();
  std::vector<double> masses(num_intervals,
                             1.0 / static_cast<double>(num_intervals));
  std::vector<double> density(num_intervals);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    std::vector<double> next(num_intervals, 0.0);
    for (double w : perturbed) {
      double denom = 0.0;
      for (std::size_t k = 0; k < num_intervals; ++k) {
        density[k] = noise.Pdf(w - p.Mid(k)) * masses[k];
        denom += density[k];
      }
      if (denom <= 0.0) {
        next[p.IntervalOf(w)] += 1.0;
        continue;
      }
      for (std::size_t k = 0; k < num_intervals; ++k) {
        next[k] += density[k] / denom;
      }
    }
    double total = 0.0;
    for (double m : next) total += m;
    for (double& m : next) m /= total;
    const double chi2 = stats::ChiSquareDistance(next, masses);
    masses.swap(next);
    if (chi2 < options.chi_square_epsilon) break;
  }
  return masses;
}

TEST(ReconstructorTest, BinnedAndExactAgree) {
  Rng rng(13);
  const stats::TriangleDistribution truth(0.0, 1.0);
  const NoiseModel noise = NoiseModel::Uniform(0.3);
  std::vector<double> perturbed(4000);
  for (double& w : perturbed) w = truth.Sample(&rng) + noise.Sample(&rng);
  const Partition p(0.0, 1.0, 20);
  const Reconstruction fit = BayesReconstructor(noise, {}).Fit(perturbed, p);
  const std::vector<double> per_sample =
      PerSampleEm(perturbed, p, noise, ReconstructionOptions{});
  EXPECT_LT(stats::TotalVariation(fit.masses, per_sample), 0.1);
}

TEST(ReconstructorTest, StopsEarlyWhenConverged) {
  Rng rng(17);
  const NoiseModel noise = NoiseModel::Uniform(0.05);  // weak noise
  std::vector<double> perturbed(2000);
  for (double& w : perturbed) w = rng.UniformDouble() + noise.Sample(&rng);
  ReconstructionOptions options;
  options.max_iterations = 500;
  options.chi_square_epsilon = 1e-6;
  const BayesReconstructor rec(noise, options);
  const Partition p(0.0, 1.0, 10);
  const Reconstruction r = rec.Fit(perturbed, p);
  EXPECT_LT(r.iterations, 500u);
  ASSERT_GE(r.iterations, 1u);
  EXPECT_LT(LastChiSquare(rec, perturbed, p, r), 1e-6);
}

TEST(ReconstructorTest, SampleCountIsRecorded) {
  Rng rng(19);
  std::vector<double> perturbed(321);
  for (double& w : perturbed) w = rng.UniformDouble();
  const BayesReconstructor rec(NoiseModel::Uniform(0.2), {});
  EXPECT_EQ(rec.Fit(perturbed, Partition(0.0, 1.0, 5)).sample_count, 321u);
}

// --------------------------------------------------- SIMD path determinism

namespace simd = engine::simd;

std::vector<double> PlateauPerturbed(std::size_t n, const NoiseModel& noise) {
  Rng rng(31);
  const stats::PlateauDistribution truth(0.0, 1.0, 0.25);
  std::vector<double> w(n);
  for (double& v : w) v = truth.Sample(&rng) + noise.Sample(&rng);
  return w;
}

// The tentpole determinism contract: every dispatched path produces
// byte-identical Reconstruction::masses to the scalar lane-blocked
// reference, at every pool size (0 = inline) — for both noise kinds and
// for the streaming FitFromCounts entry point.
TEST(SimdDeterminismProperty, PathsByteIdenticalAcrossThreadCounts) {
  PathGuard guard;
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  const std::size_t thread_counts[] = {0, 1, 2, 8};
  for (const NoiseModel& noise :
       {NoiseModel::Uniform(0.3), NoiseModel::Gaussian(0.15)}) {
    const std::vector<double> w = PlateauPerturbed(4000, noise);
    const Partition p(0.0, 1.0, 20);
    const BayesReconstructor rec(noise, {});

    ASSERT_TRUE(simd::SetPath(simd::Path::kScalar).ok());
    engine::ThreadPool one(1);
    const Reconstruction reference = rec.Fit(w, p, &one);
    ASSERT_FALSE(reference.masses.empty());

    for (simd::Path path : paths) {
      ASSERT_TRUE(simd::SetPath(path).ok());
      for (std::size_t threads : thread_counts) {
        engine::ThreadPool pool(threads);
        const Reconstruction got =
            rec.Fit(w, p, threads == 0 ? nullptr : &pool);
        EXPECT_TRUE(BytesEqual(got.masses, reference.masses))
            << "path=" << simd::PathName(path) << " threads=" << threads;
      }
    }
  }
}

// The one-decomposition invariant: Fit with no pool and Fit over a pool
// agree bytewise for every pool size
// and every SIMD path. 100 intervals under U(0.3) give 160 w-bins, so the
// E-step spans several kEmChunkBins chunks.
TEST(SimdDeterminismProperty, FitIsPoolInvariantBytewise) {
  PathGuard guard;
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  const NoiseModel noise = NoiseModel::Uniform(0.3);
  const std::vector<double> w = PlateauPerturbed(1500, noise);
  const Partition p(0.0, 1.0, 100);
  engine::ThreadPool pool1(1), pool2(2), pool8(8);
  engine::ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool8};
  const BayesReconstructor rec(noise, {});
  ASSERT_TRUE(simd::SetPath(simd::Path::kScalar).ok());
  const Reconstruction reference = rec.Fit(w, p);
  ASSERT_GT(reference.iterations, 1u);
  for (simd::Path path : paths) {
    ASSERT_TRUE(simd::SetPath(path).ok());
    const Reconstruction fit = rec.Fit(w, p);
    EXPECT_TRUE(BytesEqual(fit.masses, reference.masses))
        << "path=" << simd::PathName(path);
    for (engine::ThreadPool* pool : pools) {
      const Reconstruction got = rec.Fit(w, p, pool);
      const std::size_t threads = pool == nullptr ? 0 : pool->size();
      EXPECT_TRUE(BytesEqual(got.masses, fit.masses))
          << "path=" << simd::PathName(path) << " threads=" << threads;
    }
  }
}

// --------------------------------------------------------- KernelTable

// P(W ∈ w-bin j | X = m_k) evaluated at cell (j, k) on its own — the
// per-cell formula a dense table stores. The outermost bins absorb the
// clamped tails.
double CellKernel(const NoiseModel& noise, const stats::Partition& wgrid,
                  const Partition& p, std::size_t j, std::size_t k) {
  const double mid = p.Mid(k);
  const double u =
      j + 1 == wgrid.intervals() ? 1.0 : noise.Cdf(wgrid.Hi(j) - mid);
  const double l = j == 0 ? 0.0 : noise.Cdf(wgrid.Lo(j) - mid);
  return u - l;
}

// A dense wbins × stride table holding CellKernel at every cell, with the
// shape and fallbacks of the built table, so FitFromCounts can fit over it.
KernelTable DenseCellTable(const BayesReconstructor& rec, const Partition& p) {
  const stats::Partition wgrid = rec.PerturbedBinning(p);
  KernelTable dense = rec.BuildKernelTable(p);
  dense.kernel.assign(dense.wbins * dense.stride, 0.0);
  for (std::size_t j = 0; j < dense.wbins; ++j) {
    dense.row_offset[j] = j * dense.stride;
    for (std::size_t k = 0; k < dense.intervals; ++k) {
      dense.kernel[j * dense.stride + k] =
          CellKernel(rec.noise(), wgrid, p, j, k);
    }
  }
  return dense;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(KernelTableTest, StripEqualsPerDiagonalDefinition) {
  // Tail rows hold their own cells; every interior cell holds its
  // diagonal's value, evaluated at the diagonal's topmost interior cell
  // (j0 = max(1, d), k0 = j0 - d for d = j - k). [20, 80] makes the bin
  // width inexact in binary for most K, so this pins the definition, not
  // an accident of exact arithmetic.
  for (const NoiseKind kind : {NoiseKind::kUniform, NoiseKind::kGaussian}) {
    const NoiseModel noise = perturb::NoiseForPrivacy(kind, 1.0, 60.0, 0.95);
    const BayesReconstructor rec(noise, {});
    for (const std::size_t intervals :
         {std::size_t{1}, std::size_t{3}, std::size_t{30}, std::size_t{198},
          std::size_t{200}}) {
      const Partition p(20.0, 80.0, intervals);
      const stats::Partition wgrid = rec.PerturbedBinning(p);
      const KernelTable table = rec.BuildKernelTable(p);
      ASSERT_EQ(table.wbins, wgrid.intervals());
      ASSERT_EQ(table.intervals, intervals);
      ASSERT_EQ(table.stride, simd::PadLanes(intervals));
      const std::size_t wbins = table.wbins;
      // O(wbins + K) storage: two tail rows plus one strip.
      EXPECT_LE(table.kernel.size(), wbins + 3 * table.stride);
      for (std::size_t j = 0; j < wbins; ++j) {
        const double* row = table.Row(j);
        for (std::size_t k = 0; k < intervals; ++k) {
          double expected;
          if (j == 0 || j + 1 == wbins) {
            expected = CellKernel(noise, wgrid, p, j, k);
          } else {
            const auto d = static_cast<std::ptrdiff_t>(j) -
                           static_cast<std::ptrdiff_t>(k);
            const std::size_t j0 = d >= 1 ? static_cast<std::size_t>(d) : 1;
            const std::size_t k0 = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(j0) - d);
            expected = CellKernel(noise, wgrid, p, j0, k0);
          }
          ASSERT_TRUE(SameBits(row[k], expected))
              << perturb::NoiseKindName(kind) << " K=" << intervals
              << " j=" << j << " k=" << k << ": " << row[k] << " vs "
              << expected;
          // Within a few ulps of the cell's own evaluation.
          EXPECT_NEAR(row[k], CellKernel(noise, wgrid, p, j, k), 4e-15);
        }
        for (std::size_t k = intervals; k < table.stride; ++k) {
          EXPECT_TRUE(std::isfinite(row[k]) && row[k] >= 0.0)
              << "padding lane j=" << j << " k=" << k;
        }
      }
    }
  }
}

TEST(KernelTableTest, ExactWidthStripEqualsPerCellFormula) {
  // [0, 64] in 16 intervals: width 4, every bin edge and midpoint exact, so
  // each cell's CDF argument equals its diagonal representative's and the
  // strip reproduces the per-cell table bit for bit.
  const Partition p(0.0, 64.0, 16);
  for (const NoiseKind kind : {NoiseKind::kUniform, NoiseKind::kGaussian}) {
    const NoiseModel noise = perturb::NoiseForPrivacy(kind, 1.0, 64.0, 0.95);
    const BayesReconstructor rec(noise, {});
    const stats::Partition wgrid = rec.PerturbedBinning(p);
    const KernelTable table = rec.BuildKernelTable(p);
    for (std::size_t j = 0; j < table.wbins; ++j) {
      for (std::size_t k = 0; k < table.intervals; ++k) {
        ASSERT_TRUE(
            SameBits(table.Row(j)[k], CellKernel(noise, wgrid, p, j, k)))
            << perturb::NoiseKindName(kind) << " j=" << j << " k=" << k;
      }
    }
  }
}

// The E-step one row at a time, in RunEm's fixed 32-row chunks with the
// chunk partials folded in order: the reference the four-row E-step must
// reproduce bit for bit.
Reconstruction SingleRowEm(const KernelTable& table,
                           const std::vector<double>& weights, double total,
                           const ReconstructionOptions& options) {
  constexpr double kTiny = 1e-300;
  const simd::Path path = simd::ActivePath();
  const std::size_t stride = table.stride;
  std::vector<double> p(stride, 0.0);
  for (std::size_t k = 0; k < table.intervals; ++k) {
    p[k] = 1.0 / static_cast<double>(table.intervals);
  }
  Reconstruction out;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    std::vector<double> next(stride, 0.0);
    for (std::size_t begin = 0; begin < table.wbins; begin += 32) {
      std::vector<double> local(stride, 0.0);
      for (std::size_t j = begin; j < std::min(begin + 32, table.wbins);
           ++j) {
        const double w = weights[j];
        if (w == 0.0) continue;
        const double denom = simd::Dot(table.Row(j), p.data(), stride, path);
        if (denom <= kTiny) {
          local[table.fallback[j]] += w;
          continue;
        }
        simd::ScaleAdd(local.data(), table.Row(j), p.data(), w / denom,
                       stride, path);
      }
      for (std::size_t k = 0; k < table.intervals; ++k) next[k] += local[k];
    }
    for (std::size_t k = 0; k < table.intervals; ++k) next[k] /= total;
    double mass = 0.0;
    for (std::size_t k = 0; k < table.intervals; ++k) mass += next[k];
    for (std::size_t k = 0; k < table.intervals; ++k) next[k] /= mass;
    const double chi2 = stats::ChiSquareDistance(next, p);
    p.swap(next);
    ++out.iterations;
    if (chi2 < options.chi_square_epsilon) break;
  }
  out.masses.assign(p.begin(), p.begin() + table.intervals);
  return out;
}

TEST(KernelTableTest, FourRowEStepEqualsSingleRowEm) {
  PathGuard guard;
  std::vector<simd::Path> paths{simd::Path::kScalar};
  if (simd::Avx2Supported()) paths.push_back(simd::Path::kAvx2);
  engine::ThreadPool pool(2);
  ReconstructionOptions options;
  options.max_iterations = 40;

  struct Layout {
    NoiseModel noise;
    Partition partition;
  };
  // U(0.25) over [0,1]/10: 16 w-bins, row 0 dead (no density reaches it).
  // Gaussian over the refresh layout: 712 w-bins, 23 chunks.
  const std::vector<Layout> layouts = {
      {NoiseModel::Uniform(0.25), Partition(0.0, 1.0, 10)},
      {NoiseModel::Uniform(0.3), Partition(0.0, 1.0, 100)},
      {perturb::NoiseForPrivacy(NoiseKind::kGaussian, 1.0, 60.0, 0.95),
       Partition(20.0, 80.0, 200)},
  };
  for (const Layout& layout : layouts) {
    const BayesReconstructor rec(layout.noise, options);
    const KernelTable table = rec.BuildKernelTable(layout.partition);
    std::vector<double> weights(table.wbins, 0.0);
    Rng rng(91);
    for (std::size_t j = 0; j < table.wbins; ++j) {
      // Zero-weight rows interleaved with live ones (every third row, plus
      // random gaps), so live groups straddle dead stretches and chunks
      // end on 1–3-row remainders.
      if (j % 3 != 1 && rng.UniformDouble() < 0.8) {
        weights[j] = static_cast<double>(rng.UniformInt(1, 50));
      }
    }
    // First live group {0, 2, 3, 5}: row 0 is a fallback row.
    weights[0] = 5.0;
    weights[1] = 0.0;
    weights[2] = 3.0;
    weights[3] = 1.0;
    weights[4] = 0.0;
    weights[5] = 2.0;
    if (table.wbins == 16) {
      for (std::size_t k = 0; k < table.stride; ++k) {
        ASSERT_EQ(table.Row(0)[k], 0.0) << "row 0 must be dead";
      }
    }
    double total = 0.0;
    for (double w : weights) total += w;

    for (simd::Path path : paths) {
      ASSERT_TRUE(simd::SetPath(path).ok());
      const Reconstruction want = SingleRowEm(table, weights, total, options);
      for (engine::ThreadPool* maybe_pool : {static_cast<engine::ThreadPool*>(
                                                 nullptr),
                                             &pool}) {
        const Reconstruction got =
            rec.FitFromCounts(weights, total, table, maybe_pool);
        const std::string where =
            std::string("path=") + simd::PathName(path) +
            " wbins=" + std::to_string(table.wbins) +
            " pool=" + (maybe_pool == nullptr ? "none" : "2");
        EXPECT_EQ(got.iterations, want.iterations) << where;
        EXPECT_TRUE(BytesEqual(got.masses, want.masses)) << where;
      }
    }
  }
}

TEST(KernelTableTest, RefreshLayoutMassesTrackDensePerCellTable) {
  // The nine benchmark attributes at 200 intervals under Gaussian noise:
  // the strip moves table entries by a few ulps where a bin width is
  // inexact; the fitted masses must stay within 1e-12 of a fit over the
  // dense per-cell table.
  const data::Schema schema = synth::BenchmarkSchema();
  for (std::size_t col = 0; col < schema.NumFields(); ++col) {
    const data::FieldSpec& field = schema.Field(col);
    const Partition p(field.lo, field.hi, 200);
    const BayesReconstructor rec(
        perturb::NoiseForPrivacy(NoiseKind::kGaussian, 1.0, field.Range(),
                                 0.95),
        {});
    const KernelTable strip = rec.BuildKernelTable(p);
    const KernelTable dense = DenseCellTable(rec, p);
    const stats::Partition wgrid = rec.PerturbedBinning(p);

    synth::GeneratorOptions gen;
    gen.num_records = 4000;
    gen.seed = 7 + col;
    const data::Dataset data = synth::Generate(gen);
    Rng rng(101 + col);
    std::vector<double> weights(wgrid.intervals(), 0.0);
    for (double x : data.Column(col)) {
      weights[wgrid.IntervalOf(x + rec.noise().Sample(&rng))] += 1.0;
    }
    const double total = static_cast<double>(data.NumRows());

    const Reconstruction cold_strip =
        rec.FitFromCounts(weights, total, strip, nullptr);
    const Reconstruction cold_dense =
        rec.FitFromCounts(weights, total, dense, nullptr);
    ASSERT_EQ(cold_strip.masses.size(), 200u);
    for (std::size_t k = 0; k < 200; ++k) {
      EXPECT_NEAR(cold_strip.masses[k], cold_dense.masses[k], 1e-12)
          << field.name << " k=" << k;
    }
  }
}

// ------------------------------------------------- degenerate-input paths

TEST(ReconstructorTest, TinyDensityFallbackAbsorbsDeadBins) {
  // U[-0.25, 0.25] noise over [0,1]/K=10: the perturbed layout extends 3
  // bins past each edge, and the outermost extension bin is farther than
  // the noise support from every partition midpoint — its kernel row is
  // all zeros. Weight placed there must flow to the fallback interval,
  // with no NaN, no abort, and a normalized result.
  const NoiseModel noise = NoiseModel::Uniform(0.25);
  const Partition p(0.0, 1.0, 10);
  const BayesReconstructor rec(noise, {});
  const stats::Partition wgrid = rec.PerturbedBinning(p);
  ASSERT_EQ(wgrid.intervals(), 16u);

  std::vector<double> weights(wgrid.intervals(), 0.0);
  weights[0] = 5.0;  // dead bin: no component density reaches it
  const Reconstruction r =
      rec.FitFromCounts(weights, 5.0, rec.BuildKernelTable(p), nullptr);
  ASSERT_EQ(r.masses.size(), 10u);
  double total = 0.0;
  for (double m : r.masses) {
    EXPECT_TRUE(std::isfinite(m));
    EXPECT_GE(m, 0.0);
    total += m;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The fallback interval of the leftmost bin is interval 0.
  EXPECT_GT(r.masses[0], 0.99);
}

TEST(ReconstructorTest, NoNoiseEmptyInputYieldsUniform) {
  // An empty sample is the uniform prior under kNone noise too, with a
  // sample count of zero.
  const Partition p(0.0, 1.0, 8);
  const BayesReconstructor rec(NoiseModel::None(), {});
  const Reconstruction r = rec.Fit({}, p);
  ASSERT_EQ(r.masses.size(), 8u);
  for (double m : r.masses) EXPECT_DOUBLE_EQ(m, 0.125);
  EXPECT_EQ(r.sample_count, 0u);
}

// ---------------------------------------------------------------- ByClass

TEST(ByClassTest, SeparatesClassDistributions) {
  // Class 0 lives on the left half, class 1 on the right; after uniform
  // perturbation the per-class reconstructions must still separate.
  data::Schema schema({{"x", data::AttributeKind::kContinuous, 0.0, 1.0}});
  data::Dataset d(schema, 2);
  Rng rng(23);
  const NoiseModel noise = perturb::NoiseForPrivacy(NoiseKind::kUniform, 0.5,
                                                    1.0, 0.95);
  for (int i = 0; i < 4000; ++i) {
    const int label = i % 2;
    const double x = label == 0 ? rng.UniformReal(0.0, 0.5)
                                : rng.UniformReal(0.5, 1.0);
    d.AddRow({x + noise.Sample(&rng)}, label);
  }
  const Partition p(0.0, 1.0, 10);
  const BayesReconstructor rec(noise, {});
  const auto recons = ReconstructByClass(d, 0, p, rec);
  ASSERT_EQ(recons.size(), 2u);
  // Mass below 0.5 should be large for class 0, small for class 1.
  const auto lower_half = [](const Reconstruction& r) {
    return std::accumulate(r.masses.begin(), r.masses.begin() + 5, 0.0);
  };
  EXPECT_GT(lower_half(recons[0]), 0.8);
  EXPECT_LT(lower_half(recons[1]), 0.2);
}

}  // namespace
}  // namespace ppdm::reconstruct
