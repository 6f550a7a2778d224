// Tests for naive Bayes over reconstructed distributions.

#include <memory>

#include <gtest/gtest.h>

#include "bayes/naive_bayes.h"
#include "core/experiment.h"

namespace ppdm::bayes {
namespace {

// Accuracy of a model on a dataset.
double Accuracy(const NaiveBayesModel& model, const data::Dataset& test) {
  std::size_t correct = 0;
  for (std::size_t r = 0; r < test.NumRows(); ++r) {
    if (model.Predict(test.Row(r)) == test.Label(r)) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(test.NumRows());
}

TEST(NaiveBayesModelTest, PredictsFromHandBuiltTables) {
  // One attribute over [0,1), 2 intervals: class 0 lives left, class 1
  // right.
  std::vector<stats::Partition> partitions{{0.0, 1.0, 2}};
  NaiveBayesModel model({0.5, 0.5},
                        {{{0.9, 0.1}}, {{0.1, 0.9}}}, partitions);
  EXPECT_EQ(model.Predict({0.25}), 0);
  EXPECT_EQ(model.Predict({0.75}), 1);
}

TEST(NaiveBayesModelTest, PriorsBreakTies) {
  std::vector<stats::Partition> partitions{{0.0, 1.0, 2}};
  NaiveBayesModel model({0.9, 0.1},
                        {{{0.5, 0.5}}, {{0.5, 0.5}}}, partitions);
  EXPECT_EQ(model.Predict({0.25}), 0);  // likelihoods equal, prior decides
}

TEST(NaiveBayesModelTest, LogPosteriorOrdersClasses) {
  std::vector<stats::Partition> partitions{{0.0, 1.0, 2}};
  NaiveBayesModel model({0.5, 0.5},
                        {{{0.8, 0.2}}, {{0.2, 0.8}}}, partitions);
  const auto lp = model.LogPosterior({0.1});
  EXPECT_GT(lp[0], lp[1]);
}

class NaiveBayesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ExperimentConfig config;
    // Fn1 (age bands only) is exactly representable under NB's
    // independence assumption; the interaction functions (Fn3..Fn5) are
    // not, which caps NB regardless of privacy.
    config.function = synth::Function::kF1;
    config.train_records = 8000;
    config.test_records = 2000;
    config.noise = perturb::NoiseKind::kUniform;
    config.privacy_fraction = 1.0;
    config.seed = 97;
    data_ = std::make_unique<core::ExperimentData>(core::PrepareData(config));
  }

  std::unique_ptr<core::ExperimentData> data_;
};

TEST_F(NaiveBayesFixture, OriginalBaselineIsStrong) {
  const NaiveBayesModel model = TrainNaiveBayes(data_->train);
  EXPECT_GE(Accuracy(model, data_->test), 0.97);
}

TEST_F(NaiveBayesFixture, ReconstructedSurvivesFullPrivacy) {
  const NaiveBayesModel model = TrainNaiveBayesReconstructed(
      data_->perturbed_train, data_->randomizer);
  EXPECT_GE(Accuracy(model, data_->test), 0.85);
}

TEST_F(NaiveBayesFixture, ReconstructedBeatsTrainingOnRawPerturbed) {
  const NaiveBayesModel reconstructed = TrainNaiveBayesReconstructed(
      data_->perturbed_train, data_->randomizer);
  // Naive NB trained directly on perturbed values (no reconstruction).
  const NaiveBayesModel raw = TrainNaiveBayes(data_->perturbed_train);
  EXPECT_GT(Accuracy(reconstructed, data_->test),
            Accuracy(raw, data_->test));
}

TEST_F(NaiveBayesFixture, ZeroNoiseReconstructionMatchesOriginal) {
  // With kNone noise models, reconstruction degenerates to histograms and
  // both trainers must produce near-identical models.
  perturb::RandomizerOptions no_noise;
  no_noise.privacy_fraction = 0.0;
  const perturb::Randomizer rz(data_->train.schema(), no_noise);
  const NaiveBayesModel a = TrainNaiveBayes(data_->train);
  const NaiveBayesModel b = TrainNaiveBayesReconstructed(data_->train, rz);
  const double acc_a = Accuracy(a, data_->test);
  const double acc_b = Accuracy(b, data_->test);
  EXPECT_NEAR(acc_a, acc_b, 0.01);
}

TEST(NaiveBayesSweep, AccuracyDegradesGracefullyWithPrivacy) {
  double previous = 1.1;
  int inversions = 0;
  for (double privacy : {0.25, 0.5, 1.0, 2.0}) {
    core::ExperimentConfig config;
    config.function = synth::Function::kF1;
    config.train_records = 6000;
    config.test_records = 1500;
    config.privacy_fraction = privacy;
    config.seed = 11;
    const core::ExperimentData data = core::PrepareData(config);
    const NaiveBayesModel model = TrainNaiveBayesReconstructed(
        data.perturbed_train, data.randomizer);
    const double acc = Accuracy(model, data.test);
    if (acc > previous + 0.03) ++inversions;
    previous = acc;
    EXPECT_GE(acc, 0.7) << "privacy " << privacy;
  }
  EXPECT_LE(inversions, 1);
}

}  // namespace
}  // namespace ppdm::bayes
