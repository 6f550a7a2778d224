// Tests for the core layer: confusion/accuracy metrics, the
// information-theoretic privacy extensions, and the experiment driver.

#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/infotheory.h"
#include "core/metrics.h"
#include "stats/partition.h"

namespace ppdm::core {
namespace {

// --------------------------------------------------------- ConfusionMatrix

TEST(ConfusionMatrixTest, CountsAndAccuracy) {
  ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(0, 1);
  cm.Add(1, 1);
  EXPECT_EQ(cm.Total(), 4u);
  EXPECT_EQ(cm.Count(0, 0), 2u);
  EXPECT_EQ(cm.Count(0, 1), 1u);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.75);
}

TEST(ConfusionMatrixTest, EmptyAccuracyIsZero) {
  ConfusionMatrix cm(3);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.0);
}

TEST(ConfusionMatrixTest, Recalls) {
  ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Add(0, 1);
  cm.Add(1, 1);
  const auto recalls = cm.Recalls();
  EXPECT_DOUBLE_EQ(recalls[0], 0.5);
  EXPECT_DOUBLE_EQ(recalls[1], 1.0);
}

TEST(ConfusionMatrixTest, ToStringContainsCounts) {
  ConfusionMatrix cm(2);
  cm.Add(1, 0);
  const std::string s = cm.ToString();
  EXPECT_NE(s.find("actual"), std::string::npos);
}

// ------------------------------------------------------------- Infotheory

TEST(InfotheoryTest, DiscreteEntropyUniformIsLogK) {
  EXPECT_NEAR(DiscreteEntropyBits({0.25, 0.25, 0.25, 0.25}), 2.0, 1e-12);
  EXPECT_NEAR(DiscreteEntropyBits({1.0, 0.0}), 0.0, 1e-12);
}

TEST(InfotheoryTest, DifferentialEntropyOfUniform) {
  // Uniform over width 8 (4 bins of width 2): h = log2(8) = 3 bits.
  EXPECT_NEAR(DifferentialEntropyBits({0.25, 0.25, 0.25, 0.25}, 2.0), 3.0,
              1e-12);
}

TEST(InfotheoryTest, EntropyPrivacyOfUniformIsItsWidth) {
  // AA'01: Π(X) for U[0, a] equals a.
  EXPECT_NEAR(EntropyPrivacy({0.25, 0.25, 0.25, 0.25}, 2.0), 8.0, 1e-9);
  EXPECT_NEAR(EntropyPrivacy({0.5, 0.5}, 3.0), 6.0, 1e-9);
}

TEST(InfotheoryTest, ConcentratedDistributionHasLessEntropyPrivacy) {
  const double spread = EntropyPrivacy({0.25, 0.25, 0.25, 0.25}, 1.0);
  const double peaked = EntropyPrivacy({0.85, 0.05, 0.05, 0.05}, 1.0);
  EXPECT_GT(spread, peaked);
}

TEST(InfotheoryTest, MutualInformationShrinksWithNoise) {
  const stats::Partition p(0.0, 1.0, 10);
  const std::vector<double> masses(10, 0.1);
  const double weak = MutualInformationBits(
      masses, p, perturb::NoiseModel::Uniform(0.05));
  const double strong = MutualInformationBits(
      masses, p, perturb::NoiseModel::Uniform(0.6));
  EXPECT_GT(weak, strong);
  EXPECT_GT(strong, 0.0);
  // H(X) = log2(10) bits is an upper bound for both.
  EXPECT_LE(weak, std::log2(10.0) + 1e-9);
}

TEST(InfotheoryTest, MutualInformationGaussianVsUniformAtSamePrivacy) {
  // The paper prefers Gaussian at equal 95%-confidence privacy; the mutual
  // information through the channel quantifies what each leaks in total.
  const stats::Partition p(0.0, 1.0, 20);
  const std::vector<double> masses(20, 0.05);
  const auto uniform =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kUniform, 1.0, 1.0, 0.95);
  const auto gaussian =
      perturb::NoiseForPrivacy(perturb::NoiseKind::kGaussian, 1.0, 1.0, 0.95);
  const double mi_u = MutualInformationBits(masses, p, uniform);
  const double mi_g = MutualInformationBits(masses, p, gaussian);
  EXPECT_GT(mi_u, 0.0);
  EXPECT_GT(mi_g, 0.0);
  EXPECT_LT(std::fabs(mi_u - mi_g), 1.0);  // same order of magnitude
}

TEST(InfotheoryTest, InformationLossZeroForPerfectReconstruction) {
  const std::vector<double> p{0.2, 0.3, 0.5};
  EXPECT_DOUBLE_EQ(InformationLoss(p, p), 0.0);
  EXPECT_DOUBLE_EQ(InformationLoss({1.0, 0.0}, {0.0, 1.0}), 1.0);
}

// -------------------------------------------------------------- Experiment

TEST(ExperimentTest, PrepareDataShapes) {
  ExperimentConfig config;
  config.train_records = 800;
  config.test_records = 200;
  const ExperimentData data = PrepareData(config);
  EXPECT_EQ(data.train.NumRows(), 800u);
  EXPECT_EQ(data.perturbed_train.NumRows(), 800u);
  EXPECT_EQ(data.test.NumRows(), 200u);
  EXPECT_TRUE(data.train.Validate().ok());
  EXPECT_TRUE(data.perturbed_train.Validate().ok());
}

TEST(ExperimentTest, PerturbedTrainDiffersFromTrain) {
  ExperimentConfig config;
  config.train_records = 100;
  config.test_records = 50;
  config.privacy_fraction = 1.0;
  const ExperimentData data = PrepareData(config);
  int diffs = 0;
  for (std::size_t r = 0; r < data.train.NumRows(); ++r) {
    if (data.train.At(r, 0) != data.perturbed_train.At(r, 0)) ++diffs;
  }
  EXPECT_GT(diffs, 90);
}

TEST(ExperimentTest, TrainAndTestAreDisjointStreams) {
  ExperimentConfig config;
  config.train_records = 100;
  config.test_records = 100;
  const ExperimentData data = PrepareData(config);
  int identical = 0;
  for (std::size_t r = 0; r < 100; ++r) {
    if (data.train.At(r, 0) == data.test.At(r, 0)) ++identical;
  }
  EXPECT_EQ(identical, 0);
}

TEST(ExperimentTest, RunModesReturnsOnePerMode) {
  ExperimentConfig config;
  config.train_records = 2000;
  config.test_records = 500;
  config.privacy_fraction = 0.5;
  const auto results = RunModes(
      config, {tree::TrainingMode::kOriginal, tree::TrainingMode::kByClass});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].mode, tree::TrainingMode::kOriginal);
  EXPECT_EQ(results[1].mode, tree::TrainingMode::kByClass);
  EXPECT_GT(results[0].accuracy, 0.9);
  EXPECT_GT(results[1].accuracy, 0.7);
  EXPECT_GT(results[0].tree_nodes, 0u);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ExperimentConfig config;
  config.train_records = 1500;
  config.test_records = 300;
  const auto a = RunModes(config, {tree::TrainingMode::kByClass});
  const auto b = RunModes(config, {tree::TrainingMode::kByClass});
  EXPECT_DOUBLE_EQ(a[0].accuracy, b[0].accuracy);
  EXPECT_EQ(a[0].tree_nodes, b[0].tree_nodes);
}

TEST(ExperimentTest, PaperScaleEnvToggle) {
  unsetenv("PPDM_PAPER_SCALE");
  EXPECT_FALSE(PaperScaleRequested());
  setenv("PPDM_PAPER_SCALE", "1", 1);
  EXPECT_TRUE(PaperScaleRequested());
  ExperimentConfig config;
  ApplyScale(&config);
  EXPECT_EQ(config.train_records, 100000u);
  EXPECT_EQ(config.test_records, 5000u);
  unsetenv("PPDM_PAPER_SCALE");
}

TEST(ExperimentTest, ZeroPrivacyMakesModesCoincide) {
  ExperimentConfig config;
  config.train_records = 2000;
  config.test_records = 500;
  config.privacy_fraction = 0.0;
  const auto results = RunModes(config, {tree::TrainingMode::kOriginal,
                                         tree::TrainingMode::kRandomized});
  // With no noise the perturbed dataset equals the original, so the two
  // baselines train identical trees.
  EXPECT_DOUBLE_EQ(results[0].accuracy, results[1].accuracy);
}

}  // namespace
}  // namespace ppdm::core
