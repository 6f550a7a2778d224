// Cross-cutting property suites: invariants that must hold over the whole
// (training mode × noise kind × privacy) matrix and over randomized
// inputs, beyond the targeted unit tests.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/infotheory.h"
#include "reconstruct/assign.h"
#include "stats/histogram.h"
#include "stats/partition.h"

namespace ppdm {
namespace {

// ----------------------------------------------- mode × noise invariants

struct PipelineCase {
  tree::TrainingMode mode;
  perturb::NoiseKind noise;
  double privacy;
};

std::string CaseName(const ::testing::TestParamInfo<PipelineCase>& info) {
  return tree::TrainingModeName(info.param.mode) +
         perturb::NoiseKindName(info.param.noise) +
         std::to_string(static_cast<int>(100 * info.param.privacy));
}

class PipelineInvariants : public ::testing::TestWithParam<PipelineCase> {
 protected:
  core::ExperimentConfig Config() const {
    core::ExperimentConfig config;
    config.function = synth::Function::kF1;
    config.train_records = 4000;
    config.test_records = 1000;
    config.noise = GetParam().noise;
    config.privacy_fraction = GetParam().privacy;
    config.seed = 1234;
    return config;
  }
};

TEST_P(PipelineInvariants, BeatsOrMatchesMajorityBaseline) {
  const core::ExperimentConfig config = Config();
  const core::ExperimentData data = core::PrepareData(config);
  const core::ModeResult result =
      core::RunMode(data, GetParam().mode, config);
  // Majority class of Fn1 is Group A at ~2/3.
  const auto counts = data.test.ClassCounts();
  const double majority =
      static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
      static_cast<double>(data.test.NumRows());
  EXPECT_GE(result.accuracy, majority - 0.2)
      << "far below even the majority baseline";
}

TEST_P(PipelineInvariants, TreeShapeIsBounded) {
  const core::ExperimentConfig config = Config();
  const core::ExperimentData data = core::PrepareData(config);
  const core::ModeResult result =
      core::RunMode(data, GetParam().mode, config);
  EXPECT_GE(result.tree_nodes, 1u);
  EXPECT_LE(result.tree_depth, tree::kMaxDepth);
  EXPECT_LE(result.tree_nodes, 2 * config.train_records);
}

TEST_P(PipelineInvariants, DeterministicAcrossRuns) {
  const core::ExperimentConfig config = Config();
  const core::ModeResult a =
      core::RunMode(core::PrepareData(config), GetParam().mode, config);
  const core::ModeResult b =
      core::RunMode(core::PrepareData(config), GetParam().mode, config);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.tree_nodes, b.tree_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    ModeNoiseMatrix, PipelineInvariants,
    ::testing::Values(
        PipelineCase{tree::TrainingMode::kOriginal,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kRandomized,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kGlobal,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kByClass,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kLocal,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kRandomized,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kGlobal,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kByClass,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kLocal,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kByClass,
                     perturb::NoiseKind::kUniform, 2.0}),
    CaseName);

// --------------------------------------------------- partition properties

class PartitionProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionProperty, IntervalOfAgreesWithEdges) {
  const std::size_t k = GetParam();
  const stats::Partition p(-3.0, 11.0, k);
  Rng rng(k);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.UniformReal(-3.0, 11.0);
    const std::size_t bin = p.IntervalOf(x);
    EXPECT_LE(p.Lo(bin), x + 1e-9);
    EXPECT_GE(p.Hi(bin), x - 1e-9);
  }
}

TEST_P(PartitionProperty, MidpointsAreInsideTheirIntervals) {
  const std::size_t k = GetParam();
  const stats::Partition p(0.0, 1.0, k);
  for (std::size_t bin = 0; bin < k; ++bin) {
    EXPECT_EQ(p.IntervalOf(p.Mid(bin)), bin);
  }
}

TEST_P(PartitionProperty, EdgesTileTheDomain) {
  const std::size_t k = GetParam();
  const stats::Partition p(5.0, 25.0, k);
  const auto edges = p.Edges();
  ASSERT_EQ(edges.size(), k + 1);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_NEAR(edges[i] - edges[i - 1], p.width(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, PartitionProperty,
                         ::testing::Values(2u, 3u, 7u, 10u, 30u, 100u));

// -------------------------------------------------- assignment properties

class AssignProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssignProperty, CountsAlwaysMatchApportionment) {
  Rng rng(GetParam());
  const std::size_t bins = 1 + static_cast<std::size_t>(rng.UniformInt(1, 12));
  std::vector<double> masses(bins);
  double total = 0.0;
  for (double& m : masses) {
    m = rng.UniformDouble();
    total += m;
  }
  for (double& m : masses) m /= total;

  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 500));
  std::vector<double> values(n);
  for (double& v : values) v = rng.Gaussian();

  const auto assignment = reconstruct::AssignByOrderStatistics(values,
                                                               masses);
  const auto expected = reconstruct::ApportionCounts(masses, n);
  std::vector<std::size_t> got(bins, 0);
  for (std::size_t a : assignment) ++got[a];
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

// ------------------------------------------------ information inequalities

TEST(InfoInequalities, MutualInformationBoundedByEntropy) {
  const stats::Partition p(0.0, 1.0, 16);
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> masses(16);
    double total = 0.0;
    for (double& m : masses) {
      m = rng.UniformDouble() + 1e-3;
      total += m;
    }
    for (double& m : masses) m /= total;
    const double h = core::DiscreteEntropyBits(masses);
    for (double scale : {0.05, 0.2, 0.6}) {
      const double mi = core::MutualInformationBits(
          masses, p, perturb::NoiseModel::Uniform(scale));
      EXPECT_GE(mi, -1e-9);
      EXPECT_LE(mi, h + 1e-9);
    }
  }
}

TEST(InfoInequalities, MoreNoiseNeverMoreInformation) {
  const stats::Partition p(0.0, 1.0, 16);
  const std::vector<double> masses(16, 1.0 / 16.0);
  double previous = 1e9;
  for (double sigma : {0.02, 0.05, 0.1, 0.2, 0.4, 0.8}) {
    const double mi = core::MutualInformationBits(
        masses, p, perturb::NoiseModel::Gaussian(sigma));
    EXPECT_LE(mi, previous + 1e-6) << "sigma " << sigma;
    previous = mi;
  }
}

// --------------------------------------------------- histogram properties

TEST(HistogramProperty, MassConservedUnderAnyInput) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t bins =
        1 + static_cast<std::size_t>(rng.UniformInt(0, 30));
    stats::Histogram h(-1.0, 1.0, bins);
    const int n = static_cast<int>(rng.UniformInt(0, 300));
    for (int i = 0; i < n; ++i) h.Add(rng.Gaussian() * 3.0);  // outliers too
    EXPECT_EQ(h.total(), static_cast<std::size_t>(n));
    double total_mass = 0.0;
    for (double m : h.Masses()) total_mass += m;
    if (n > 0) {
      EXPECT_NEAR(total_mass, 1.0, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(total_mass, 0.0);
    }
  }
}

}  // namespace
}  // namespace ppdm
